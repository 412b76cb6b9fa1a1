"""Half-wave-voltage fit: recovery, noise robustness, degenerate inputs."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from picmod import fitting
from picmod.calibration import calibrate
from picmod.config import ExperimentConfig
from picmod.core import make_calibrated_channel, power_split_for_er, sweep_channel
from picmod.dynamics import _median
from picmod.errors import PicmodError
from picmod.fitting import (
    _SCAN_BASIS_LENGTHS,
    _brent_root,
    _index_solve,
    _scan_basis,
    _scan_sse,
    fit_v_pi,
)
from picmod.experiments import run_sweep
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

    @pytest.mark.parametrize("order", ["descending", "unsorted", "uneven"])
    def test_voltages_not_ascending_and_evenly_spaced(self, order):
        volts = np.linspace(0, 160, 161)
        trans = sin2(volts, 74.7)
        if order == "descending":
            volts, trans = volts[::-1], trans[::-1]
        elif order == "unsorted":
            perm = np.random.default_rng(0).permutation(volts.size)
            volts, trans = volts[perm], trans[perm]
        else:
            volts = 160.0 * (volts / 160.0) ** 1.1
            trans = sin2(volts, 74.7)
        with pytest.raises(PicmodError, match="^voltages must be ascending and evenly spaced$"):
            fit_v_pi(volts, trans)


def lstsq_solve(volts: np.ndarray, trans: np.ndarray, omega: float):
    """Oracle: least squares on [1, cos wV, sin wV] at one w by LAPACK, in
    volts: the coefficients, the residual sum of squares and its slope in w,
    2 r.(V * (b_cos sin wV - b_sin cos wV))."""
    cos, sin = np.cos(omega * volts), np.sin(omega * volts)
    basis = np.column_stack([np.ones_like(volts), cos, sin])
    coef, _, _, _ = np.linalg.lstsq(basis, trans, rcond=None)
    resid = trans - basis @ coef
    slope = 2.0 * resid @ (volts * (coef[1] * sin - coef[2] * cos))
    return coef, float(np.sum(resid**2)), float(slope)


def voltage_step(volts):
    return (volts[-1] - volts[0]) / (volts.size - 1)


def scan_thetas(n):
    """The scan's phase steps: half a fringe over n samples up to pi."""
    return np.geomspace(0.5 * math.pi / (n - 1), math.pi, 512)


def basis(volts, omega):
    return np.column_stack([np.ones_like(volts), np.cos(omega * volts), np.sin(omega * volts)])


def assert_scan_matches_oracle(volts, trans):
    """`_scan_sse` against one lstsq solve per scan point, within
    1e-9 |t|^2 where the basis is well conditioned. At the Nyquist end
    cos(wV) and sin(wV) are parallel to rounding, so lstsq's residual there
    depends on that rounding; the scan zeroes its sin row there and must
    give the residual of the cos column alone."""
    omegas = scan_thetas(volts.size) / voltage_step(volts)
    thetas, fast = _scan_sse(trans - trans.mean())
    assert np.array_equal(thetas, scan_thetas(volts.size))
    slow = np.array([lstsq_solve(volts, trans, w)[1] for w in omegas])
    assert np.argmin(fast) == np.argmin(slow)
    ok = np.array([np.linalg.cond(basis(volts, w)) < 1e6 for w in omegas])
    assert not ok[-1] and ok[:-1].all()
    bound = 1e-9 * np.dot(trans, trans)
    assert np.max(np.abs(fast - slow)[ok]) <= bound
    cos_only = basis(volts, omegas[-1])[:, :2]
    resid = trans - cos_only @ np.linalg.lstsq(cos_only, trans, rcond=None)[0]
    assert abs(fast[-1] - resid @ resid) <= bound


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


def shifted_sweep():
    """A sweep that starts at -100 V, off zero, with offset and floor."""
    volts = np.linspace(-100, 260, 301)
    return volts, sin2(volts, 123.4, theta0=0.3, amp=0.8, floor=0.05)


class TestIndexSolve:
    """The one-theta solve against the lstsq oracle at w = theta/h."""

    @pytest.mark.parametrize("volts, trans", shipped_sweeps() + noisy_sweeps() + [shifted_sweep()])
    def test_matches_lstsq_oracle(self, volts, trans):
        step, sq = voltage_step(volts), np.dot(trans, trans)
        centred = trans - trans.mean()
        fitted = math.pi * step / fit_v_pi(volts, trans).v_pi
        # Near the fit, and at every scan point short of the Nyquist end,
        # where the oracle's basis is singular.
        thetas = np.concatenate([fitted * np.array([0.9, 0.98, 0.995, 1.005, 1.02, 1.1]),
                                 scan_thetas(volts.size)[:-1]])
        for theta in thetas:
            b_cos, b_sin, sse, slope = _index_solve(centred, theta)
            coef, ref_sse, ref_slope = lstsq_solve(volts, trans, theta / step)
            assert abs(sse - ref_sse) <= 1e-9 * sq
            # The residual at theta is the oracle's at w = theta/h, so the
            # oracle's slope in w is h times the slope in theta.
            assert step * slope == pytest.approx(ref_slope, rel=1e-9, abs=1e-12 * sq * np.ptp(volts))
            # The bases differ by a rotation of (cos, sin) through w*V_0,
            # which keeps the fringe amplitude.
            assert math.hypot(b_cos, b_sin) == pytest.approx(math.hypot(*coef[1:]), rel=1e-8)


class TestBatchedScan:
    """The batched scan against one lstsq solve per grid point."""

    @pytest.mark.parametrize("volts, trans", shipped_sweeps() + noisy_sweeps())
    def test_matches_per_point_solve(self, volts, trans):
        assert_scan_matches_oracle(volts, trans)

    @pytest.mark.parametrize(
        "volts",
        [np.linspace(-100, 260, 301)]
        + [np.linspace(0, 2 * v_pi, 241) for v_pi in (44.4, 74.7, 200.0)],
        ids=["shifted", "vpi_44.4", "vpi_74.7", "vpi_200"],
    )
    def test_one_basis_serves_shifted_and_scaled_grids(self, volts):
        # The basis is built in the sample index alone, so the same rows
        # must give the residual on a grid that starts off zero and on each
        # shipped chip's sweep.
        assert_scan_matches_oracle(volts, sin2(volts, 123.4, theta0=0.3, amp=0.8, floor=0.05))


class TestScanBasisCache:
    """The scan basis is built once per sweep length and shared read-only."""

    def test_cached_arrays_are_read_only(self):
        volts, _ = noisy_sweeps(1)[0]
        thetas, q_cos, q_sin = _scan_basis(volts.size)
        assert thetas.shape == (512,)
        assert q_cos.shape == q_sin.shape == (512, volts.size)
        for q in (q_cos, q_sin):
            assert not q.flags.writeable
            with pytest.raises(ValueError):
                q[0, 0] = 0.0
        with pytest.raises(ValueError):
            thetas[0] = 0.0

    def test_second_fit_on_same_grid_hits_cache(self):
        (volts, first), (_, second) = noisy_sweeps(2)
        _scan_basis.cache_clear()
        fit_v_pi(volts, first)
        assert _scan_basis.cache_info()[:2] == (0, 1)  # (hits, misses)
        fit_v_pi(volts, second)
        assert _scan_basis.cache_info()[:2] == (1, 1)

    def test_equal_length_grids_share_one_basis(self):
        # Grids of one length but different voltages, more of them than the
        # cache holds lengths: one basis, built once, must match the
        # per-point solve on every grid.
        v_pis = (44.4, 74.7, 99.0, 150.0, 200.0, 123.4)
        grids = [np.linspace(0.0, 2.0 * v_pi, 241) for v_pi in v_pis]
        assert len(grids) > _SCAN_BASIS_LENGTHS
        _scan_basis.cache_clear()
        for volts in grids + grids:
            assert_scan_matches_oracle(
                volts, sin2(volts, float(volts[-1]) / 2.0, theta0=0.2, floor=1e-3))
        assert _scan_basis.cache_info()[:2] == (2 * len(grids) - 1, 1)  # (hits, misses)
        assert _scan_basis.cache_info().currsize == 1

    def test_three_shipped_chips_share_one_basis(self):
        # Each chip has its own v_pi and so its own voltage grid; calibrate
        # and sweep on all three build one basis between them.
        _scan_basis.cache_clear()
        for nm in (420, 795, 1013):
            cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
            calibrate(cfg)
            run_sweep(cfg, list(range(cfg.data["chip"]["n_channels"])))
        assert _scan_basis.cache_info().misses == 1
        assert _scan_basis.cache_info().currsize == 1


def scipy_refined_theta(volts, trans):
    """Reference: scipy's bounded minimiser of `_index_solve`'s residual
    between the neighbours of the best scan point, as fit_v_pi brackets it."""
    centred = trans - trans.mean()
    thetas = scan_thetas(volts.size)
    best = int(np.argmin(_scan_sse(centred)[1]))
    lo, hi = thetas[max(best - 1, 0)], thetas[min(best + 1, thetas.size - 1)]
    res = minimize_scalar(lambda t: _index_solve(centred, t)[2], bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12 * (hi - lo) + 1e-15})
    assert res.success
    return float(res.x)


class TestSlopeRefinement:
    """fit_v_pi refines theta to the root of `_index_solve`'s residual slope."""

    @pytest.mark.parametrize("volts, trans", shipped_sweeps())
    def test_slope_matches_central_difference(self, volts, trans):
        fitted = math.pi * voltage_step(volts) / fit_v_pi(volts, trans).v_pi
        centred = trans - trans.mean()
        for theta in fitted * np.array([0.98, 0.995, 1.005, 1.02]):
            h = 1e-6 * theta
            diff = (_index_solve(centred, theta + h)[2]
                    - _index_solve(centred, theta - h)[2]) / (2.0 * h)
            assert _index_solve(centred, theta)[3] == pytest.approx(diff, rel=1e-6)

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_noise_free_sweeps_recover_configured_v_pi(self, nm):
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        for ch in cfg.channels():
            res = sweep_channel(ch, 0.0, 2 * ch.v_pi, 241, DetectorModel())
            assert res.fitted_v_pi == pytest.approx(ch.v_pi, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("volts, trans", shipped_sweeps() + noisy_sweeps())
    def test_agrees_with_scipy_bounded_minimiser(self, volts, trans):
        theta = math.pi * voltage_step(volts) / fit_v_pi(volts, trans).v_pi
        ref = scipy_refined_theta(volts, trans)
        assert theta == pytest.approx(ref, rel=1e-7, abs=0.0)
        # No larger up to the residual's own rounding: at the minimum, values
        # one ulp of theta apart scatter by up to 4e-15 relative.
        centred = trans - trans.mean()
        sse, ref_sse = _index_solve(centred, theta)[2], _index_solve(centred, ref)[2]
        assert sse <= ref_sse * (1.0 + 1e-14)

    @pytest.mark.parametrize("volts, trans", shipped_sweeps()[::8] + [shifted_sweep()])
    def test_returns_python_floats(self, volts, trans):
        # A numpy scalar would make the report's verdicts numpy booleans,
        # which the JSON writer rejects.
        fit = fit_v_pi(volts, trans)
        assert type(fit.v_pi) is float and type(fit.residual) is float


class TestSolveAtRoot:
    """fit_v_pi takes the coefficients and residual at the root from the
    solve Brent's method made there, with no solve of its own."""

    @pytest.mark.parametrize("volts, trans", shipped_sweeps() + noisy_sweeps(3) + [shifted_sweep()])
    def test_one_solve_per_brent_evaluation(self, monkeypatch, volts, trans):
        solved, evaluated, roots = [], [], []

        def counting_solve(centred, theta):
            solved.append(theta)
            return _index_solve(centred, theta)

        def recording_root(f, xa, xb, xtol):
            def counted(t):
                evaluated.append(t)
                return f(t)

            roots.append(_brent_root(counted, xa, xb, xtol))
            return roots[-1]

        monkeypatch.setattr(fitting, "_index_solve", counting_solve)
        monkeypatch.setattr(fitting, "_brent_root", recording_root)
        fit = fit_v_pi(volts, trans)
        (theta,) = roots
        assert solved == evaluated and theta in solved
        # Every sweep here, the shipped 241-point ones included, takes 7 solves.
        assert len(solved) == 7
        # The same bits as a fresh solve at the root.
        sse = _index_solve(trans - trans.mean(), theta)[2]
        assert fit.residual == math.sqrt(sse / volts.size)
        step = float(volts[-1] - volts[0]) / (volts.size - 1)
        assert fit.v_pi == math.pi * step / theta


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 240, 241])
def test_median_is_numpys_bit_for_bit(n):
    # Rounded draws give ties and zeros of both signs; np.median's median
    # of zeros is +0.0.
    rng = np.random.default_rng(n)
    for scale in (1e-9, 1.0, 1e9):
        for x in (rng.standard_normal(n) * scale, np.round(rng.standard_normal(n)), -np.zeros(n)):
            assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()
