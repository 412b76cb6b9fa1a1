"""Actuator kernels, convolution, optical traces, rise-time measurement."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from picmod.calibration import calibrate
from picmod.config import ExperimentConfig
from picmod.core import channel_transmission_equal
from picmod.dynamics import (
    DIRECT_KERNEL_LIMIT,
    _first_order_kernel,
    _interp_crossing,
    _second_order_kernel,
    ActuatorResponse,
    KernelKind,
    Waveform,
    convolve_causal,
    measure_rise_time,
    on_hold_samples,
    step_response_trace,
    synthesize_kernel,
    trace_optical,
)
from picmod.errors import PicmodError
from picmod.fitting import _brent_root

from conftest import CONFIG_DIR


class TestSynthesizeKernel:
    def test_first_order_time_constant(self, fo_response):
        # Analytic 10-90 relation: t_r = tau * ln 9 -> tau ~ 11.83 ns.
        k = fo_response.impulse_kernel
        tau = -1e-9 / math.log(k[1] / k[0])
        assert tau == pytest.approx(26e-9 / math.log(9), rel=0.05)

    @pytest.mark.parametrize("kind,zeta", [(KernelKind.FIRST_ORDER, None),
                                           (KernelKind.SECOND_ORDER, 0.3)])
    def test_measured_rise_matches_request(self, kind, zeta):
        resp = synthesize_kernel(kind, 26e-9, 1e-9, damping_ratio=zeta)
        step = np.cumsum(resp.impulse_kernel)
        t = np.arange(step.size) * 1e-9
        t10 = np.interp(0.1, step, t)
        t90 = np.interp(0.9, step, t)
        assert (t90 - t10) == pytest.approx(26e-9, rel=0.02)

    def test_unit_dc_gain(self, fo_response, so_response):
        for resp in (fo_response, so_response):
            assert abs(resp.impulse_kernel.sum() - 1.0) < 1e-9

    def test_unresolvable_rise_time(self):
        with pytest.raises(PicmodError, match=r"unresolvable at sample period 2e-08 s \(need >= 2"):
            synthesize_kernel(KernelKind.FIRST_ORDER, 26e-9, 20e-9)

    def test_second_order_needs_damping(self):
        with pytest.raises(PicmodError):
            synthesize_kernel(KernelKind.SECOND_ORDER, 26e-9, 1e-9)

    def test_non_unit_gain_kernel_rejected(self):
        with pytest.raises(PicmodError):
            ActuatorResponse(26e-9, 1e-9, np.array([0.5, 0.4]))


def kernel_cases():
    """(kind, rise, dt, damping) of the shipped actuators, then first- and
    second-order kernels over a grid of rise times, sample periods and
    damping ratios."""
    cases = []
    for nm in (420, 795, 1013):
        act = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml").data["actuator"]
        cases.append((KernelKind(act["kind"]), act["rise_time_10_90_ns"] * 1e-9,
                      act["sample_period_ns"] * 1e-9, act["damping_ratio"]))
    for rise in (3e-9, 10e-9, 26e-9, 120e-9):
        for dt in (0.5e-9, 1e-9):
            cases.append((KernelKind.FIRST_ORDER, rise, dt, None))
            for zeta in (0.2, 0.5, 0.9):
                cases.append((KernelKind.SECOND_ORDER, rise, dt, zeta))
    return cases


def two_closure_kernel(kind, rise, dt, zeta):
    """Oracle: the kernel solve with one rise-time closure and one root
    solve per kind, on a step response assumed to settle at 1."""

    def step_rise(kernel):
        step, t = np.cumsum(kernel), np.arange(kernel.size) * dt
        return _interp_crossing(t, step, 0.9) - _interp_crossing(t, step, 0.1)

    if kind is KernelKind.FIRST_ORDER:
        tau0 = rise / math.log(9.0)

        def err(tau):
            return step_rise(_first_order_kernel(tau, dt)) - rise

        return _first_order_kernel(_brent_root(err, 0.2 * tau0, 5.0 * tau0, 1e-6 * tau0), dt)
    w0 = 1.5 / rise

    def err(w):
        return step_rise(_second_order_kernel(w, zeta, dt)) - rise

    return _second_order_kernel(_brent_root(err, 0.3 * w0, 6.0 * w0, 1e-8 * w0), zeta, dt)


@pytest.mark.parametrize("kind, rise, dt, zeta", kernel_cases())
def test_kernel_equals_two_closure_solve(kind, rise, dt, zeta):
    got = synthesize_kernel(kind, rise, dt, damping_ratio=zeta).impulse_kernel
    assert np.array_equal(got, two_closure_kernel(kind, rise, dt, zeta))


def record_roots(monkeypatch, target):
    """Replace the root finder at target by one that records each root it
    returns next to brentq's root of the same problem."""
    calls = []

    def recording(f, xa, xb, xtol):
        root = _brent_root(f, xa, xb, xtol)
        calls.append((root, brentq(f, xa, xb, xtol=xtol)))
        return root

    monkeypatch.setattr(target, recording)
    return calls


class TestBrentRoot:
    """The package's one root finder against scipy's brentq, which
    implements the same published algorithm: the roots must be the same
    floats, in kernel synthesis and in the v_pi fit alike."""

    @pytest.mark.parametrize("kind, rise, dt, zeta", kernel_cases())
    def test_equals_brentq_in_kernel_synthesis(self, kind, rise, dt, zeta, monkeypatch):
        calls = record_roots(monkeypatch, "picmod.dynamics._brent_root")
        synthesize_kernel(kind, rise, dt, damping_ratio=zeta)
        assert len(calls) == 1
        assert calls[0][0] == calls[0][1]

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_equals_brentq_in_v_pi_fit(self, nm, monkeypatch):
        calls = record_roots(monkeypatch, "picmod.fitting._brent_root")
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        calibrate(cfg)
        assert len(calls) == cfg.data["chip"]["n_channels"]
        for root, want in calls:
            assert root == want

    @pytest.mark.parametrize("f, xa, xb", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),  # Brent's own example
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 1e-3, -10.0, 10.0),
        (lambda x: x - 0.25, 0.25, 1.0),  # a root on the bracket
    ])
    def test_equals_brentq_on_smooth_functions(self, f, xa, xb):
        assert _brent_root(f, xa, xb, 1e-14) == brentq(f, xa, xb, xtol=1e-14)

    def test_same_signs_rejected(self):
        with pytest.raises(PicmodError, match="same sign"):
            _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_nan_rejected(self):
        with pytest.raises(PicmodError, match="NaN"):
            _brent_root(lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0, 1e-12)

    def test_non_convergence_raises(self):
        # A sign step at 0 defeats interpolation, so every step bisects; with
        # no absolute tolerance, 100 halvings of [-1, 2] cannot reach 4 eps*|x|.
        with pytest.raises(PicmodError, match="did not converge"):
            _brent_root(lambda x: math.copysign(1.0, x), -1.0, 2.0, 5e-324)


def direct_sum(x, k):
    """Oracle: y[n] = sum over m of x[n - m] k[m], truncated to len(x)."""
    return np.array(
        [sum(x[n - m] * k[m] for m in range(min(n + 1, k.size))) for n in range(x.size)]
    )


class TestConvolveCausal:
    def test_constant_drive_converges_to_pi(self, fo_response):
        phase = convolve_causal(np.full(2000, 74.7), fo_response.impulse_kernel) * (
            math.pi / 74.7
        )
        assert phase[-1] == pytest.approx(math.pi, rel=1e-9)

    def test_unit_impulse_returns_kernel(self, fo_response):
        k = fo_response.impulse_kernel
        out = convolve_causal(np.concatenate([[1.0], np.zeros(k.size)]), k)
        assert np.allclose(out[:k.size], k, atol=1e-15)

    def test_direct_sum_convolution_oracle(self, so_response):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(400)
        k = so_response.impulse_kernel
        assert np.max(np.abs(convolve_causal(x, k) - direct_sum(x, k))) < 1e-10

    # One sample; shorter than the kernel; n + k - 1 equal to 1024 and to 1025,
    # the edges of the power-of-two FFT length.
    @pytest.mark.parametrize("n, taps", [(1, 600), (300, 600), (513, 512), (514, 512)])
    def test_fft_branch_matches_direct_sum(self, n, taps):
        assert taps >= DIRECT_KERNEL_LIMIT
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        k = rng.random(taps)
        k /= k.sum()
        expected = direct_sum(x, k)
        got = convolve_causal(x, k)
        assert got.shape == (n,)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_direct_and_fft_paths_agree(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4096)
        k_long = np.exp(-np.arange(DIRECT_KERNEL_LIMIT + 64) / 200.0)
        k_long /= k_long.sum()
        k_short = k_long[:DIRECT_KERNEL_LIMIT - 1] / k_long[:DIRECT_KERNEL_LIMIT - 1].sum()
        direct = np.convolve(x, k_long)[:4096]
        assert np.max(np.abs(convolve_causal(x, k_long) - direct)) < 1e-10
        assert np.max(np.abs(convolve_causal(x, k_short) - np.convolve(x, k_short)[:4096])) == 0

    def test_linearity(self, fo_response):
        rng = np.random.default_rng(3)
        d1, d2 = rng.standard_normal((2, 500))
        a, b = 1.7, -0.4
        k = fo_response.impulse_kernel
        lhs = convolve_causal(a * d1 + b * d2, k)
        rhs = a * convolve_causal(d1, k) + b * convolve_causal(d2, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_time_invariance(self, fo_response):
        rng = np.random.default_rng(4)
        d = rng.standard_normal(300)
        k_shift = 37
        shifted = np.concatenate([np.zeros(k_shift), d])
        out = convolve_causal(d, fo_response.impulse_kernel)
        out_shifted = convolve_causal(shifted, fo_response.impulse_kernel)
        assert np.allclose(out_shifted[k_shift:], out, atol=1e-12)
        assert np.allclose(out_shifted[:k_shift], 0.0, atol=1e-12)


class TestTraceOptical:
    def test_zero_drive_on_nulled_channel(self, ideal_channel, fo_response):
        trace = trace_optical(ideal_channel, fo_response, Waveform(1e-9, np.zeros(100)))
        assert isinstance(trace, Waveform) and trace.sample_period == 1e-9
        assert np.allclose(trace.samples, 0.0, atol=1e-15)

    def test_full_swing_optical_rise_matches_quartic_oracle(self, ideal_channel, fo_response):
        # The optics compress the edge: a full 0 -> v_pi swing through the
        # two-stage sin^4 fringe rises faster than the phase itself. For a
        # first-order actuator the analytic 10-90 crossings of
        # sin^4(pi*s(t)/2), s = 1 - exp(-t/tau), give ~1.45*tau ~ 17.2 ns.
        tau = 26e-9 / math.log(9)
        s10 = 2 / math.pi * math.asin(0.1**0.25)
        s90 = 2 / math.pi * math.asin(0.9**0.25)
        expected = tau * (math.log(1 - s10) - math.log(1 - s90))
        got = measure_rise_time(step_response_trace(ideal_channel, fo_response, 0.0, 74.7))
        assert got == pytest.approx(expected, rel=0.05)

    def test_small_signal_rise_equals_kernel_rise(self, ideal_channel, fo_response):
        # About quadrature the optical map is locally linear, so a small
        # step reproduces the actuator's own 26 ns rise.
        got = measure_rise_time(
            step_response_trace(ideal_channel, fo_response, 74.7 / 2, 74.7 / 2 * 1.02)
        )
        assert got == pytest.approx(26e-9, abs=2e-9)

    def test_grid_mismatch_rejected(self, ideal_channel, fo_response):
        with pytest.raises(PicmodError, match="^kernel and drive sample periods differ$"):
            trace_optical(ideal_channel, fo_response, Waveform(2e-9, np.zeros(4)))

    def test_dc_fidelity(self, channel_714, fo_response):
        v = 23.0
        drive = Waveform(1e-9, np.full(2000, v))  # >> 10 rise times
        trace = trace_optical(channel_714, fo_response, drive)
        expected = channel_transmission_equal(channel_714, v, include_loss=False)
        expected /= channel_714.max_transmission()
        assert trace.samples[-1] == pytest.approx(expected, abs=1e-9)

    def test_naive_second_order_off_switch_rings_above_target(
        self, ideal_channel, so_response
    ):
        trace = step_response_trace(ideal_channel, so_response, 74.7, 0.0)
        post = trace.samples[2:]
        assert np.max(post[200:]) > 1e-6  # ringing persists past the edge


def ten_rise_hold_step(channel, response, v_from, v_to):
    """Oracle: step_response_trace's power with the pre-step level held
    for the kernel length plus 2 or 10 rise times, whichever is longer."""
    dt = response.sample_period
    n_settle = max(response.impulse_kernel.size + 2, int(10 * response.rise_time_10_90 / dt))
    n_after = max(int(20 * response.rise_time_10_90 / dt), 64)
    samples = np.concatenate([np.full(n_settle, v_from), np.full(n_after, v_to)])
    return trace_optical(channel, response, Waveform(dt, samples)).samples[n_settle - 2:]


def actuator(rise, zeta):
    if zeta is None:
        return synthesize_kernel(KernelKind.FIRST_ORDER, rise, 1e-9)
    return synthesize_kernel(KernelKind.SECOND_ORDER, rise, 1e-9, damping_ratio=zeta)


class TestSettleHold:
    """step_response_trace holds for on_hold_samples; the trace is the one
    a longer 10-rise-time hold gives."""

    @pytest.mark.parametrize("steps", [(0.5, 0.51), (1.0, 0.0)], ids=["small", "off"])
    @pytest.mark.parametrize("zeta", [None, 0.3, 0.95, 0.999])
    @pytest.mark.parametrize("rise", [4e-9, 10e-9, 26e-9])
    def test_unchanged(self, channel_714, rise, zeta, steps):
        response = actuator(rise, zeta)
        v_from, v_to = (f * channel_714.v_pi for f in steps)
        got = step_response_trace(channel_714, response, v_from, v_to)
        want = ten_rise_hold_step(channel_714, response, v_from, v_to)
        if response.impulse_kernel.size < DIRECT_KERNEL_LIMIT:
            assert np.array_equal(got.samples, want)
        else:  # the FFT length follows the hold length
            np.testing.assert_allclose(got.samples, want, rtol=1e-12, atol=0.0)

    def test_shorter_hold_on_fft_branch(self, channel_714):
        # A slow, nearly critically damped kernel: 10 rise times outlast
        # the kernel, so the two holds differ and only rounding may move.
        response = actuator(60e-9, 0.95)
        assert response.impulse_kernel.size >= DIRECT_KERNEL_LIMIT
        dt = response.sample_period
        assert on_hold_samples(response) < int(10 * response.rise_time_10_90 / dt)
        v_from, v_to = 0.5 * channel_714.v_pi, 0.51 * channel_714.v_pi
        got = step_response_trace(channel_714, response, v_from, v_to)
        want = ten_rise_hold_step(channel_714, response, v_from, v_to)
        np.testing.assert_allclose(got.samples, want, rtol=1e-12, atol=0.0)


class TestMeasureRiseTime:
    def test_analytic_first_order_trace(self):
        tau = 26e-9 / math.log(9)
        t = np.arange(0, 300e-9, 1e-9)
        trace = Waveform(1e-9, 1 - np.exp(-t / tau))
        assert measure_rise_time(trace) == pytest.approx(26e-9, abs=1e-9)

    def test_instantaneous_step(self):
        trace = Waveform(1e-9, np.concatenate([np.zeros(5), np.ones(50)]))
        assert measure_rise_time(trace) <= 1e-9

    def test_flat_trace(self):
        with pytest.raises(PicmodError, match=r"^no transition found \(flat trace\)$"):
            measure_rise_time(Waveform(1e-9, np.full(100, 0.5)))

    def test_falling_transition(self):
        tau = 10e-9
        t = np.arange(0, 200e-9, 1e-9)
        trace = Waveform(1e-9, np.exp(-t / tau))
        assert measure_rise_time(trace) == pytest.approx(tau * math.log(9), rel=0.02)


class TestWaveformValidation:
    def test_negative_sample_period(self):
        with pytest.raises(PicmodError):
            Waveform(-1e-9, np.zeros(4))

    def test_non_finite_samples(self):
        with pytest.raises(PicmodError):
            Waveform(1e-9, np.array([0.0, np.inf]))

    def test_times_grid(self):
        w = Waveform(2e-9, np.zeros(3))
        assert np.allclose(w.times(), [0.0, 2e-9, 4e-9])
