"""Stochastic processes, seeding contract, and the detector model."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from picmod.errors import PicmodError
from picmod.noise import DetectorModel, OuParams, _ar1_filter, sample_ou_path
from picmod.rng import derive_rng


class TestOuPath:
    def test_zero_sigma_is_zero_path(self):
        path = sample_ou_path(0.0, 10.0, 100.0, 1.0, rng=derive_rng(0, "ou-path"))
        assert np.all(path == 0.0)

    def test_same_seed_bit_identical(self):
        a = sample_ou_path(0.01, 600.0, 3600.0, 10.0, rng=derive_rng(42, "ou-path"))
        b = sample_ou_path(0.01, 600.0, 3600.0, 10.0, rng=derive_rng(42, "ou-path"))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_ou_path(0.01, 600.0, 3600.0, 10.0, rng=derive_rng(1, "ou-path"))
        b = sample_ou_path(0.01, 600.0, 3600.0, 10.0, rng=derive_rng(2, "ou-path"))
        assert not np.array_equal(a, b)

    def test_stationary_std_over_seeds(self):
        # sigma = 0.01, tau = 600 s, 20 h paths: pooled std within [0.008, 0.012].
        stds = []
        for seed in range(20):
            rng = derive_rng(seed, "ou-path")
            path = sample_ou_path(0.01, 600.0, 20 * 3600.0, 30.0, rng=rng)
            stds.append(np.std(path))
        assert 0.008 < np.mean(stds) < 0.012

    def test_autocovariance_at_lag_tau(self):
        # E[x(t) x(t+tau)] = sigma^2 / e within 10%, pooled over >= 50 seeds.
        tau, dt, sigma = 5.0, 0.25, 0.7
        lag = int(round(tau / dt))
        acc = []
        for seed in range(60):
            x = sample_ou_path(sigma, tau, 2000.0, dt, rng=derive_rng(seed, "ou-path"))
            acc.append(np.mean(x[:-lag] * x[lag:]))
        assert np.mean(acc) == pytest.approx(sigma**2 * math.exp(-1), rel=0.10)

    def test_dt_too_coarse_rejected(self):
        with pytest.raises(PicmodError):
            sample_ou_path(0.01, 10.0, 100.0, 2.0, rng=derive_rng(0, "ou-path"))

    def test_path_holds_one_full_length_array(self):
        # 500 000 samples are 4 MB. The filter runs in place on the drawn
        # drive and adds only chunk-sized temporaries and the block ends;
        # a second output array would add another 4 MB.
        rng = derive_rng(0, "ou-path")  # numpy imports numpy.random on first use: untraced
        tracemalloc.start()
        try:
            path = sample_ou_path(0.01, 10.0, 499_999.0, 1.0, rng=rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.size == 500_000
        assert peak < 6e6

    def test_ou_params_validation(self):
        with pytest.raises(PicmodError):
            OuParams(-0.1, 1.0)
        with pytest.raises(PicmodError):
            OuParams(0.1, 0.0)


def ar1_loop(drive, a, state=0.0):
    """Oracle: the exact AR(1) recursion y[k] = a*y[k-1] + drive[k], y[-1] = state."""
    out, y = [], state
    for x in drive.tolist():
        y = a * y + x
        out.append(y)
    return np.array(out)


# From the largest step sample_ou_path allows (dt = tau/10) to a slow drift.
AR1_POLES = [math.exp(-0.1), 0.999, 1 - 2e-6, 1 - 1e-7]
# Below 256 samples the rows are one sample long and the filter is the
# scalar recursion; then rows of 3, 15 (with a tail), 65 (2^18 samples),
# 75 (the 20 h lock path), 89 (the block pulse train, with a tail) and 125.
AR1_LENGTHS = [0, 1, 15, 63, 255, 256, 16_007, 262_144, 360_001, 500_000, 10**6]


class TestAr1Filter:
    def test_oracle_equals_lfilter(self):
        drive = np.random.default_rng(0).standard_normal(5000)
        assert np.array_equal(ar1_loop(drive, 0.999), lfilter([1.0], [1.0, -0.999], drive))

    @pytest.mark.parametrize("n", AR1_LENGTHS)
    @pytest.mark.parametrize("a", AR1_POLES)
    def test_matches_exact_recursion(self, a, n):
        # Relative to the path's largest magnitude: the blocked sums round
        # differently, and a close to 1 carries that rounding a long way.
        drive = np.random.default_rng(n).standard_normal(n)
        want = ar1_loop(drive, a)
        got = _ar1_filter(drive, a)
        assert got is drive
        assert got.shape == want.shape
        if n < 256:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", AR1_POLES)
    def test_impulse_response_is_powers_of_a(self, a):
        # 360 001 samples are 4 800 rows of 75 and a one-sample tail. A unit
        # impulse mid-row must leave every earlier sample exactly 0 and carry
        # a^(k - k0) through every later row boundary and into the tail.
        n, k0 = 360_001, 1_000 * 75 + 37
        drive = np.zeros(n)
        drive[k0] = 1.0
        got = _ar1_filter(drive, a)
        assert not np.any(got[:k0])
        want = a ** np.arange(n - k0, dtype=float)
        assert np.max(np.abs(got[k0:] - want)) <= 1e-11


class TestDeriveRng:
    def test_label_isolation(self):
        a = derive_rng(0, "stream-a").standard_normal(8)
        b = derive_rng(0, "stream-b").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a = derive_rng(123, "x", "y").standard_normal(8)
        b = derive_rng(123, "x", "y").standard_normal(8)
        assert np.array_equal(a, b)


class TestDetector:
    def test_true_70db_through_424db_floor(self):
        det = DetectorModel(relative_floor=10 ** (-4.24))
        on = det.measure(1.0)
        off = det.measure(1e-7)
        assert 10 * math.log10(on / off) == pytest.approx(42.4, abs=1e-9)

    def test_identity_with_no_floor_no_noise(self):
        det = DetectorModel()
        assert det.measure(0.123) == 0.123

    def test_clamp_definition(self):
        det = DetectorModel(relative_floor=1e-8)
        assert det.measure(1e-9) == 1e-8

    def test_floor_idempotence(self):
        det = DetectorModel(relative_floor=1e-8)
        once = det.measure(3e-9)
        assert det.measure(once) == once

    def test_negative_power_rejected(self):
        with pytest.raises(PicmodError):
            DetectorModel().measure(-1.0)
