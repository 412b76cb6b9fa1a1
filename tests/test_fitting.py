"""Half-wave-voltage fit: recovery, noise robustness, degenerate inputs."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from picmod.config import ExperimentConfig
from picmod.core import make_calibrated_channel, power_split_for_er, sweep_channel
from picmod.errors import PicmodError
from picmod.fitting import (
    _SCAN_BASIS_GRIDS,
    _linear_solve,
    _median,
    _scan_basis,
    _scan_sse,
    fit_v_pi,
)
from picmod.noise import DetectorModel
from picmod.rng import derive_rng

from conftest import CONFIG_DIR


def sin2(volts, v_pi, theta0=0.0, amp=1.0, floor=0.0):
    return amp * np.sin(np.pi * volts / (2 * v_pi) + theta0) ** 2 + floor


class TestNoiselessRecovery:
    def test_generating_model_roundtrip(self):
        volts = np.linspace(0, 160, 201)
        fit = fit_v_pi(volts, sin2(volts, 74.7))
        assert fit.v_pi == pytest.approx(74.7, rel=1e-3)
        assert fit.residual < 1e-9

    def test_recovers_offset_and_amplitude(self):
        volts = np.linspace(-100, 260, 301)
        fit = fit_v_pi(volts, sin2(volts, 123.4, theta0=0.3, amp=0.8, floor=0.05))
        assert fit.v_pi == pytest.approx(123.4, rel=1e-6)

    @pytest.mark.parametrize("v_pi", [74.7, 200.0, 44.4])
    def test_all_configured_half_wave_voltages(self, v_pi):
        split = power_split_for_er(60.0, n_stages=2)
        ch = make_calibrated_channel(v_pi=v_pi, power_split=split, n_stages=2)
        res = sweep_channel(ch, 0.0, 2 * v_pi, 241, DetectorModel())
        assert res.fitted_v_pi == pytest.approx(v_pi, rel=0.01)


class TestNoisyRecovery:
    def test_one_percent_multiplicative_noise_monte_carlo(self):
        # 95th-percentile error over >= 100 seeds stays within 1%.
        volts = np.linspace(0, 160, 161)
        clean = sin2(volts, 74.7)
        errors = []
        for seed in range(120):
            rng = derive_rng(seed, "fit-noise-test")
            noisy = clean * (1 + 0.01 * rng.standard_normal(volts.size))
            fit = fit_v_pi(volts, np.clip(noisy, 0, None))
            errors.append(abs(fit.v_pi - 74.7) / 74.7)
        assert np.percentile(errors, 95) < 0.01

    def test_channel_sweep_with_noise_within_two_percent(self, channel_714):
        rng = derive_rng(3, "sweep-noise-test")
        volts = np.linspace(0, 2 * 74.7, 241)
        from picmod.core import channel_transmission_equal

        trans = channel_transmission_equal(channel_714, volts, include_loss=False)
        noisy = trans * (1 + 0.01 * rng.standard_normal(volts.size))
        fit = fit_v_pi(volts, np.clip(noisy, 0, None) ** 0.5)
        assert fit.v_pi == pytest.approx(74.7, rel=0.02)


class TestDegenerateInputs:
    def test_constant_data(self):
        volts = np.linspace(0, 100, 50)
        with pytest.raises(PicmodError, match="no usable fringe contrast"):
            fit_v_pi(volts, np.full(50, 0.3))

    def test_less_than_half_fringe(self):
        volts = np.linspace(0, 10, 50)  # tiny arc of a 74.7 V fringe
        with pytest.raises(PicmodError, match="^no residual minimum inside the v_pi scan: "):
            fit_v_pi(volts, sin2(volts, 74.7))

    def test_too_few_samples(self):
        with pytest.raises(PicmodError, match="need at least 5 samples"):
            fit_v_pi([0, 1, 2], [0, 0.1, 0.2])

    def test_non_finite_samples(self):
        volts = np.linspace(0, 160, 20)
        trans = sin2(volts, 74.7)
        trans[3] = np.nan
        with pytest.raises(PicmodError, match="non-finite samples"):
            fit_v_pi(volts, trans)

    def test_shape_mismatch(self):
        with pytest.raises(PicmodError, match="must be 1-D arrays of equal length"):
            fit_v_pi(np.arange(10), np.arange(9))


def scan_grid(volts):
    """fit_v_pi's coarse grid: half a fringe over the span up to Nyquist."""
    span = float(np.ptp(volts))
    dv = float(np.median(np.diff(np.sort(volts))))
    return np.geomspace(0.5 * math.pi / span, math.pi / dv, 512)


def basis(volts, omega):
    return np.column_stack([np.ones_like(volts), np.cos(omega * volts), np.sin(omega * volts)])


def shipped_sweeps():
    """The fringes fit_v_pi sees from every shipped channel, through the
    ideal and the sweep detector (calibrate, and the sweep subcommand)."""
    cases = []
    for nm in (420, 795, 1013):
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        v_pi = cfg.data["chip"]["v_pi_volts"]
        for det in (DetectorModel(), cfg.sweep_detector()):
            for ch in cfg.channels():
                res = sweep_channel(ch, 0.0, 2 * v_pi, 241, detector=det)
                cases.append((res.voltages, res.transmissions ** (1.0 / ch.n_stages)))
    return cases


def noisy_sweeps(n_seeds=10):
    volts = np.linspace(0, 160, 161)
    clean = sin2(volts, 74.7)
    cases = []
    for seed in range(n_seeds):
        rng = derive_rng(seed, "scan-oracle-test")
        noisy = clean * (1 + 0.01 * rng.standard_normal(volts.size))
        cases.append((volts, np.clip(noisy, 0, None)))
    return cases


class TestBatchedScan:
    """The batched scan against one lstsq solve per grid point."""

    @pytest.mark.parametrize("volts, trans", shipped_sweeps() + noisy_sweeps())
    def test_matches_per_point_solve(self, volts, trans):
        grid = scan_grid(volts)
        # Every sweep starts at 0 V, so at the Nyquist end sin(wV) vanishes on
        # every sample to rounding: the basis there is numerically singular.
        assert np.linalg.cond(basis(volts, grid[-1])) > 1e11
        fast = _scan_sse(volts, trans, grid)
        slow = np.array([_linear_solve(volts, trans, w)[1] for w in grid])
        assert np.argmin(fast) == np.argmin(slow)
        assert np.max(np.abs(fast - slow)) <= 1e-9 * np.dot(trans, trans)

    def test_ill_conditioned_nyquist_end_keeps_argmin(self):
        # Off zero, cos(wV) and sin(wV) become nearly parallel at Nyquist,
        # so the residual there depends on rounding in either solver; the
        # comparison holds on the rest of the grid.
        volts = np.linspace(-100, 260, 301)
        trans = sin2(volts, 123.4, theta0=0.3, amp=0.8, floor=0.05)
        grid = scan_grid(volts)
        fast = _scan_sse(volts, trans, grid)
        slow = np.array([_linear_solve(volts, trans, w)[1] for w in grid])
        assert np.argmin(fast) == np.argmin(slow)
        ok = np.array([np.linalg.cond(basis(volts, w)) < 1e6 for w in grid])
        assert not ok[-1] and ok[:-1].all()
        assert np.max(np.abs(fast - slow)[ok]) <= 1e-9 * np.dot(trans, trans)


class TestScanBasisCache:
    """The scan basis is built once per voltage grid and shared read-only."""

    def test_cached_arrays_are_read_only(self):
        volts, _ = noisy_sweeps(1)[0]
        q_cos, q_sin = _scan_basis(volts.tobytes(), scan_grid(volts).tobytes())
        assert q_cos.shape == q_sin.shape == (512, volts.size)
        for q in (q_cos, q_sin):
            assert not q.flags.writeable
            with pytest.raises(ValueError):
                q[0, 0] = 0.0

    def test_second_fit_on_same_grid_hits_cache(self):
        (volts, first), (_, second) = noisy_sweeps(2)
        _scan_basis.cache_clear()
        fit_v_pi(volts, first)
        assert _scan_basis.cache_info()[:2] == (0, 1)  # (hits, misses)
        fit_v_pi(volts, second)
        assert _scan_basis.cache_info()[:2] == (1, 1)

    def test_equal_length_grids_each_get_their_own_basis(self):
        # Grids of one length but different voltages, fitted in turn more
        # times than the cache holds grids: each scan must still match the
        # per-point solve on its own grid, whether built or taken from cache.
        v_pis = (44.4, 74.7, 99.0, 150.0, 200.0, 123.4)
        grids = [np.linspace(0.0, 2.0 * v_pi, 241) for v_pi in v_pis]
        assert len(grids) > _SCAN_BASIS_GRIDS
        _scan_basis.cache_clear()
        for volts in grids + grids:
            trans = sin2(volts, float(volts[-1]) / 2.0, theta0=0.2, floor=1e-3)
            grid = scan_grid(volts)
            fast = _scan_sse(volts, trans, grid)
            slow = np.array([_linear_solve(volts, trans, w)[1] for w in grid])
            assert np.argmin(fast) == np.argmin(slow)
            assert np.max(np.abs(fast - slow)) <= 1e-9 * np.dot(trans, trans)
        assert _scan_basis.cache_info().currsize == _SCAN_BASIS_GRIDS


def scipy_refined_omega(volts, trans):
    """Reference: scipy's bounded minimiser of `_linear_solve`'s residual
    between the neighbours of the best scan point, as fit_v_pi brackets it."""
    grid = scan_grid(volts)
    best = int(np.argmin(_scan_sse(volts, trans, grid)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    res = minimize_scalar(lambda w: _linear_solve(volts, trans, w)[1], bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12 * (hi - lo) + 1e-15})
    assert res.success
    return float(res.x)


class TestSlopeRefinement:
    """fit_v_pi refines w to the root of `_linear_solve`'s residual slope."""

    @pytest.mark.parametrize("volts, trans", shipped_sweeps())
    def test_slope_matches_central_difference(self, volts, trans):
        fitted = math.pi / fit_v_pi(volts, trans).v_pi
        for omega in fitted * np.array([0.98, 0.995, 1.005, 1.02]):
            h = 1e-6 * omega
            diff = (_linear_solve(volts, trans, omega + h)[1]
                    - _linear_solve(volts, trans, omega - h)[1]) / (2.0 * h)
            assert _linear_solve(volts, trans, omega)[2] == pytest.approx(diff, rel=1e-6)

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_noise_free_sweeps_recover_configured_v_pi(self, nm):
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        for ch in cfg.channels():
            res = sweep_channel(ch, 0.0, 2 * ch.v_pi, 241, DetectorModel())
            assert res.fitted_v_pi == pytest.approx(ch.v_pi, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("volts, trans", shipped_sweeps() + noisy_sweeps())
    def test_agrees_with_scipy_bounded_minimiser(self, volts, trans):
        omega = math.pi / fit_v_pi(volts, trans).v_pi
        ref = scipy_refined_omega(volts, trans)
        assert omega == pytest.approx(ref, rel=1e-7, abs=0.0)
        # No larger up to the residual's own rounding: at the minimum, values
        # one ulp of w apart scatter by up to 4e-15 relative.
        sse, ref_sse = _linear_solve(volts, trans, omega)[1], _linear_solve(volts, trans, ref)[1]
        assert sse <= ref_sse * (1.0 + 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 240, 241])
def test_median_is_numpys_bit_for_bit(n):
    # Rounded draws give ties and zeros of both signs; np.median's median
    # of zeros is +0.0.
    rng = np.random.default_rng(n)
    for scale in (1e-9, 1.0, 1e9):
        for x in (rng.standard_normal(n) * scale, np.round(rng.standard_normal(n)), -np.zeros(n)):
            assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()
