"""Pulse timing, phase-target inversion, pre-distortion, dynamic extinction."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from picmod.core import (
    Coupler,
    ModulatorChannel,
    MziStage,
    channel_transmission_equal,
    power_split_for_er,
)
from picmod.dynamics import (
    ActuatorResponse,
    Waveform,
    convolve_causal,
    on_hold_samples,
    step_response_trace,
    trace_optical,
)
from picmod.errors import PicmodError
from picmod.waveforms import (
    PredistortionProblem,
    PulseSpec,
    _deconvolve,
    dynamic_extinction,
    predistort,
    pulse_period,
    simulate_switch_off,
    switch_off_target_phase,
    target_phase_from_power,
)


def identical_stage_channel(n_stages, split_in=None):
    """n stages at a 71.4 dB ER; ``split_in`` sets the input split."""
    split = power_split_for_er(71.4, n_stages)
    stage = MziStage(Coupler(split_in or split), Coupler(split), 74.7)
    return ModulatorChannel(stage, n_stages)


def phase_by_root_finding(target, channel):
    """Oracle: bracketed root finding of the equal-drive forward model."""
    peak = channel.max_transmission()

    def excess(phase, p):
        volts = phase * 74.7 / math.pi
        return channel_transmission_equal(channel, volts, include_loss=False) / peak - p

    return np.array([brentq(excess, 0.0, math.pi, args=(p,), xtol=1e-15) for p in target])


class TestPulsePeriod:
    @pytest.mark.parametrize("duty", [0.001, 0.5, 0.999])
    def test_one_period_of_v_pi_then_zero(self, duty):
        period = pulse_period(PulseSpec(duty * 1e-6, 1e-6), 74.7, 1e-9)
        n_on = round(duty * 1000)
        assert period.sample_period == 1e-9 and period.samples.size == 1000
        assert np.all(period.samples[:n_on] == 74.7) and np.all(period.samples[n_on:] == 0.0)

    @pytest.mark.parametrize(
        "on_duration, period", [(0.5e-9, 1.5e-9), (2e-20, 1e-19), (1e-20, 1e-6)]
    )
    def test_off_grid_period_rejected(self, on_duration, period):
        # Off the grid, or shorter than one sample (0 samples is no pulse).
        spec = PulseSpec(on_duration, period)
        with pytest.raises(PicmodError, match="s is not a positive integer number of samples$"):
            pulse_period(spec, 1.0, 1e-9)

    def test_spec_validation(self):
        with pytest.raises(PicmodError):
            PulseSpec(2e-6, 1e-6)  # on_duration >= period


class TestTargetPhaseFromPower:
    def test_full_on(self, channel_714):
        assert target_phase_from_power(1.0, channel_714)[0] == pytest.approx(math.pi)

    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    def test_roundtrip_through_forward_map(self, n_stages):
        # Net phases over [0.05, pi).
        channel = identical_stage_channel(n_stages)
        rng = np.random.default_rng(9)
        phases = rng.uniform(0.05, math.pi, 1000)
        volts = phases * 74.7 / math.pi
        powers = channel_transmission_equal(channel, volts, include_loss=False)
        powers = powers / channel.max_transmission()
        got = target_phase_from_power(powers, channel)
        assert np.max(np.abs(got - phases)) < 1e-9

    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    def test_floor_and_peak_are_exact(self, n_stages):
        # Unpinned, the arccos would land up to ~4e-8 rad off for some splits.
        for split in np.linspace(0.5001, 0.75, 40):
            channel = identical_stage_channel(n_stages, split_in=split)
            floor = channel.min_transmission() / channel.max_transmission()
            assert target_phase_from_power([floor, 1.0], channel).tolist() == [0.0, math.pi]

    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    def test_matches_root_finding(self, n_stages):
        channel = identical_stage_channel(n_stages)
        floor = channel.min_transmission() / channel.max_transmission()
        envelope = floor + (1.0 - floor) * np.sin(np.pi * np.arange(1, 256) / 512) ** 2
        got = target_phase_from_power(envelope, channel)
        assert np.max(np.abs(got - phase_by_root_finding(envelope, channel))) < 1e-9

    def test_roundtrip_near_the_floor_on_shipped_channels(self, shipped_channels):
        # Within 100x of the floor the stage power barely leaves its floor,
        # where the inversion must not cancel.
        for channel in shipped_channels:
            peak = channel.max_transmission()
            targets = channel.min_transmission() / peak * np.geomspace(1 + 1e-8, 100, 400)
            powers = channel.power_at_phase(target_phase_from_power(targets, channel)) / peak
            assert np.max(np.abs(powers / targets - 1.0)) <= 1e-14

    def test_target_below_floor_unachievable(self, channel_714):
        # Channel floor is 10^-7.14; 1e-9 cannot be reached.
        with pytest.raises(PicmodError, match=r"^target power 1e-09 outside achievable range \["):
            target_phase_from_power(1e-9, channel_714)


class TestDynamicExtinction:
    def test_ideal_instant_off(self):
        power = np.concatenate([np.ones(100), np.zeros(900)])
        ext = dynamic_extinction(Waveform(1e-9, power), 100e-9)
        t, reached = ext.time_to(1e-6)
        assert reached and t == 0.0

    def test_first_order_decay_against_small_angle_oracle(
        self, ideal_channel, fo_response
    ):
        # Post-switch the phase decays as pi*exp(-t/tau) and the optics
        # follow sin^4(phi/2) ~ (phi/2)^4 near the null, so the 1e-6
        # crossing is at t = tau * ln(pi / (2 * (1e-6)^(1/4))) ~ 46 ns,
        # far sooner than the power-linear guess tau*ln(1e6).
        trace = step_response_trace(ideal_channel, fo_response, 74.7, 0.0)
        ext = dynamic_extinction(trace, 2e-9)
        t, reached = ext.time_to(1e-6)
        tau = 26e-9 / math.log(9)
        oracle = tau * math.log(math.pi / (2 * math.asin(1e-6**0.25)))
        assert reached
        assert t == pytest.approx(oracle, rel=0.10)

    def test_envelope_is_monotone_nonincreasing(self, ideal_channel, so_response):
        trace = step_response_trace(ideal_channel, so_response, 74.7, 0.0)
        ext = dynamic_extinction(trace, 2e-9)
        assert np.all(np.diff(ext.envelope) <= 0)

    def test_never_reached_flag(self):
        power = np.concatenate([np.ones(10), np.full(90, 0.5)])
        ext = dynamic_extinction(Waveform(1e-9, power), 10e-9)
        t, reached = ext.time_to(1e-6)
        assert not reached and t == pytest.approx(89e-9)

    def test_switch_time_out_of_range(self):
        with pytest.raises(PicmodError):
            dynamic_extinction(Waveform(1e-9, np.ones(10)), 50e-9)


class TestSimulateSwitchOff:
    @pytest.mark.parametrize("settle_window, converged", [(20e-9, False), (100e-9, True)])
    def test_converged_needs_the_target_within_the_window(
        self, ideal_channel, fo_response, settle_window, converged
    ):
        # A square step reaches 1e-6 about 46 ns after the switch (see the
        # small-angle oracle above), inside a 400 ns trace: reached either
        # way, converged only if the window covers it.
        n_pre = on_hold_samples(fo_response)
        drive = Waveform(1e-9, np.concatenate([np.full(n_pre, 74.7), np.zeros(400)]))
        switch = n_pre * 1e-9
        result = simulate_switch_off(ideal_channel, fo_response, drive, switch, settle_window, 1e-6)
        assert result.time_to_floor == pytest.approx(46e-9, rel=0.1)
        assert result.converged is converged
        ext = dynamic_extinction(result.trace, switch)
        assert result.achieved_floor == ext.envelope[round(settle_window / 1e-9)]


def off_switch_problem(channel, response, **kw):
    phase, switch_time = switch_off_target_phase(response, 52e-9, 1e-6)
    defaults = dict(
        target_phase=phase,
        response=response,
        channel=channel,
        switch_time=switch_time,
        v_max=2 * channel.v_pi,
        settle_window=1e-6,
        extinction_target=1e-6,
    )
    defaults.update(kw)
    return PredistortionProblem(**defaults)


def clipped_deconvolution(problem):
    """Oracle: the target phase deconvolved by the kernel, in volts, clipped
    to +/- v_max."""
    kernel = problem.response.impulse_kernel
    phase = _deconvolve(problem.target_phase, kernel, problem.regularization)
    return np.clip(phase * problem.channel.v_pi / math.pi, -problem.v_max, problem.v_max)


class TestPredistort:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("extinction_target", 0.0, "extinction_target"),
            ("extinction_target", 1.0, "extinction_target"),
            ("settle_window", 0.0, "settle_window"),
            ("v_max", 0.0, "v_max"),
            ("regularization", -1e-6, "regularization"),
        ],
    )
    def test_problem_validation(self, channel_714, fo_response, field, value, match):
        with pytest.raises(PicmodError, match=match):
            off_switch_problem(channel_714, fo_response, **{field: value})

    def test_problem_has_no_iteration_cap(self, channel_714, fo_response):
        # One deconvolution and one forward check: nothing to cap.
        assert "max_iterations" not in {f.name for f in dataclasses.fields(PredistortionProblem)}
        with pytest.raises(TypeError):
            off_switch_problem(channel_714, fo_response, max_iterations=5)

    @pytest.mark.parametrize("response", ["fo_response", "so_response"])
    def test_solution_reports_no_iterations(self, channel_714, response, request):
        # The benchmark's layer tracer sums this field; one pass takes no
        # iterative steps.
        sol = predistort(off_switch_problem(channel_714, request.getfixturevalue(response)))
        assert sol.iterations == 0

    def test_identity_kernel_is_exact(self, channel_714):
        ident = ActuatorResponse(2e-9, 1e-9, np.array([1.0]))
        phase = np.concatenate([np.full(50, math.pi), np.zeros(1050)])
        problem = PredistortionProblem(
            target_phase=phase,
            response=ident,
            channel=channel_714,
            switch_time=50e-9,
            v_max=2 * 74.7,
            regularization=0.0,
        )
        sol = predistort(problem)
        assert np.allclose(sol.drive.samples, phase * 74.7 / math.pi, atol=1e-8)

    def test_first_order_off_switch_meets_target(self, channel_714, fo_response):
        sol = predistort(off_switch_problem(channel_714, fo_response))
        assert sol.converged
        assert sol.achieved_floor <= 1e-6
        assert sol.time_to_floor <= 1e-6

    def test_second_order_predistorted_beats_naive(self, channel_714, so_response):
        # Naive square OFF-drive rings above 1e-6; the optimized drive does not.
        naive = step_response_trace(channel_714, so_response, 74.7, 0.0)
        naive_ext = dynamic_extinction(naive, 2e-9)
        t_naive, reached_naive = naive_ext.time_to(1e-6)
        assert np.max(naive_ext.envelope[naive_ext.times > 100e-9]) > 1e-6

        sol = predistort(off_switch_problem(channel_714, so_response))
        assert sol.converged and sol.achieved_floor <= 1e-6
        assert sol.time_to_floor < t_naive or not reached_naive

    def test_achieved_floor_from_independent_forward_sim(self, channel_714, fo_response):
        sol = predistort(off_switch_problem(channel_714, fo_response))
        trace = trace_optical(channel_714, fo_response, sol.drive)
        ext = dynamic_extinction(trace, off_switch_problem(channel_714, fo_response).switch_time)
        idx = min(int(round(1e-6 / 1e-9)), ext.envelope.size - 1)
        assert sol.achieved_floor == pytest.approx(float(ext.envelope[idx]), rel=1e-12)

    @pytest.mark.parametrize("v_max_over_v_pi", [2.0, 0.9])
    @pytest.mark.parametrize("response", ["fo_response", "so_response"])
    def test_drive_is_the_clipped_deconvolution(
        self, channel_714, response, v_max_over_v_pi, request
    ):
        # The deconvolved drive peaks near v_pi: a 0.9 v_pi limit clips it.
        resp = request.getfixturevalue(response)
        v_max = v_max_over_v_pi * channel_714.v_pi
        problem = off_switch_problem(channel_714, resp, v_max=v_max)
        sol = predistort(problem)
        assert np.array_equal(sol.drive.samples, clipped_deconvolution(problem))
        assert sol.drive.sample_period == resp.sample_period
        assert (np.max(sol.drive.samples) == v_max) == (v_max_over_v_pi < 1.0)

    @pytest.mark.parametrize("response", ["fo_response", "so_response"])
    def test_unmet_target_returns_the_drive_traced(self, channel_714, response, request):
        # A target below the channel floor (10^-7.14) is never met: the
        # solution is unconverged, its drive is the clipped deconvolution,
        # and its trace is that drive traced.
        resp = request.getfixturevalue(response)
        problem = off_switch_problem(
            channel_714, resp, regularization=0.1, extinction_target=1e-9
        )
        sol = predistort(problem)
        assert not sol.converged
        assert np.array_equal(sol.drive.samples, clipped_deconvolution(problem))
        fresh = trace_optical(channel_714, resp, sol.drive)
        assert sol.trace.sample_period == fresh.sample_period
        assert np.array_equal(sol.trace.samples, fresh.samples)

    def test_deconvolution_consistency_zero_regularization(self, fo_response, channel_714):
        # Forward-convolving the deconvolved drive reproduces the target phase.
        phase, _ = switch_off_target_phase(fo_response, 52e-9, 0.2e-6)
        u = _deconvolve(phase, fo_response.impulse_kernel, 0.0)
        back = convolve_causal(u, fo_response.impulse_kernel)
        interior = slice(fo_response.impulse_kernel.size, phase.size)
        assert np.max(np.abs(back[interior] - phase[interior])) < 1e-8
