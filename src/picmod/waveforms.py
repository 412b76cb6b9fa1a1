"""Drive-waveform synthesis: pulse timing, pre-distortion, switch-off targets
and the one switch-off check.

Pre-distortion solves for the drive that makes the actuator's phase output
follow a target trajectory: one Tikhonov-regularized frequency-domain
deconvolution, clipped to the drive limit. `simulate_switch_off` checks
every switch-off drive, pre-distorted or a square step, by a forward
simulation through the full nonlinear optical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModulatorChannel
from .dynamics import ActuatorResponse, Waveform, _median, on_hold_samples, trace_optical
from .errors import PicmodError


@dataclass(frozen=True)
class PulseSpec:
    """Timing of a periodic pulse: ON for on_duration in every period."""

    on_duration: float
    period: float

    def __post_init__(self):
        if not 0.0 < self.on_duration < self.period:
            raise PicmodError("need 0 < on_duration < period")


def _grid_count(duration: float, dt: float, what: str) -> int:
    n = duration / dt
    if round(n) < 1 or abs(n - round(n)) > 1e-9 * max(n, 1.0):
        raise PicmodError(f"{what} {duration:.6g} s is not a positive integer number of samples")
    return int(round(n))


def pulse_period(spec: PulseSpec, v_pi: float, sample_period: float) -> Waveform:
    """One period of the pulse drive, v_pi while ON and 0 after. Raises
    PicmodError unless both durations are whole numbers of samples."""
    n_period = _grid_count(spec.period, sample_period, "period")
    n_on = _grid_count(spec.on_duration, sample_period, "on_duration")
    one = np.zeros(n_period)
    one[:n_on] = v_pi
    return Waveform(sample_period, one)


def target_phase_from_power(target_power, channel: ModulatorChannel) -> np.ndarray:
    """Drive phase pi*V/v_pi achieving each normalized power target.

    A channel is one stage repeated n times, so the stage power is
    s = (target * peak)^(1/n) = floor + depth*sin^2(phi/2), which inverts
    exactly: phi = 2*arcsin(sqrt((s - floor) / depth)) on the branch
    phi in [0, pi], the ratio clipped to [0, 1]. phi is the stage's net
    phase pi*V/v_pi, so it is the drive phase. The channel's OFF level
    and 1.0 map exactly to the null and the peak. The tests check the
    result against the forward model and against bracketed root finding.
    """
    target = np.atleast_1d(np.asarray(target_power, dtype=float))
    peak = channel.max_transmission()
    floor = channel.min_transmission() / peak

    lo_ok = target >= floor - 1e-300
    hi_ok = target <= 1.0 + 1e-12
    if not np.all(lo_ok & hi_ok):
        bad = target[~(lo_ok & hi_ok)][0]
        raise PicmodError(
            f"target power {bad:.3g} outside achievable range [{floor:.3g}, 1]"
        )
    stage_floor, depth = channel.stage.fringe
    stage_power = (target * peak) ** (1.0 / channel.n_stages)
    sin2 = np.clip((stage_power - stage_floor) / depth, 0.0, 1.0)
    sin2[target >= 1.0] = 1.0
    sin2[target <= floor] = 0.0
    return 2.0 * np.arcsin(np.sqrt(sin2))


@dataclass(frozen=True)
class DynamicExtinction:
    """Worst-case-remaining extinction envelope after a switch-off event."""

    times: np.ndarray  # seconds after the switch
    envelope: np.ndarray  # linear power relative to the pre-switch ON level

    def time_to(self, threshold: float) -> tuple[float, bool]:
        """First time the envelope stays below threshold for good.

        Returns (window length, False) if the threshold is never reached.
        """
        below = self.envelope < threshold
        if not np.any(below):
            return float(self.times[-1]), False
        return float(self.times[int(np.argmax(below))]), True


def dynamic_extinction(trace: Waveform, switch_time: float) -> DynamicExtinction:
    """Reverse-cumulative-max envelope of post-switch power vs time.

    Normalized to the settled ON level just before the switch. The
    envelope at time t is the maximum power at any time >= t, a monotone
    non-increasing worst-case-remaining summary.
    """
    dt = trace.sample_period
    n = trace.samples.size
    idx = int(round(switch_time / dt))
    if not 0 < idx < n:
        raise PicmodError(f"switch_time {switch_time} outside trace")
    pre = trace.samples[max(0, idx - max(8, idx // 4)):idx]
    on_level = _median(pre)
    if on_level <= 0:
        raise PicmodError("pre-switch ON level is not positive")
    post = trace.samples[idx:]
    envelope = np.maximum.accumulate(post[::-1])[::-1] / on_level
    times = np.arange(post.size) * dt
    return DynamicExtinction(times=times, envelope=envelope)


@dataclass(frozen=True)
class PredistortionProblem:
    """Target phase trajectory plus actuator and drive constraints."""

    target_phase: np.ndarray
    response: ActuatorResponse
    channel: ModulatorChannel
    switch_time: float
    v_max: float
    regularization: float = 1e-4
    settle_window: float = 1e-6
    extinction_target: float = 1e-6

    def __post_init__(self):
        object.__setattr__(
            self, "target_phase", np.asarray(self.target_phase, dtype=float)
        )
        if not 0.0 < self.extinction_target < 1.0:
            raise PicmodError("extinction_target must lie in (0,1)")
        if self.settle_window <= 0:
            raise PicmodError("settle_window must be positive")
        if self.v_max <= 0:
            raise PicmodError("v_max must be positive")
        if self.regularization < 0:
            raise PicmodError("regularization must be >= 0")


@dataclass(frozen=True)
class SwitchOffResult:
    drive: Waveform
    trace: Waveform  # the drive's simulated optical trace
    achieved_floor: float  # envelope at the end of the settle window
    time_to_floor: float
    converged: bool
    # Never set; perfbench/tracer.py reads it for waveforms.predistort.iterations.
    iterations: int = 0


def _deconvolve(signal: np.ndarray, kernel: np.ndarray, relative_reg: float) -> np.ndarray:
    """Tikhonov-regularized deconvolution with constant edge padding."""
    pad = kernel.size
    padded = np.concatenate(
        [np.full(pad, signal[0]), signal, np.full(pad, signal[-1])]
    )
    nfft = 1 << (padded.size + kernel.size - 1).bit_length()
    h = np.fft.rfft(kernel, nfft)
    d = np.fft.rfft(padded, nfft)
    power = np.abs(h) ** 2
    lam = relative_reg * float(np.max(power))
    if lam == 0.0 and np.any(power == 0.0):
        raise PicmodError("kernel spectrum not invertible without regularization")
    u = np.fft.irfft(d * np.conj(h) / (power + lam), nfft)
    return u[pad:pad + signal.size]


def simulate_switch_off(
    channel: ModulatorChannel,
    response: ActuatorResponse,
    drive: Waveform,
    switch_time: float,
    settle_window: float,
    extinction_target: float,
) -> SwitchOffResult:
    """Forward check of a switch-off drive through the full optical model.

    The floor is the extinction envelope settle_window after the switch, or
    at the trace's end; the drive converged if the envelope falls below
    extinction_target within the window."""
    trace = trace_optical(channel, response, drive)
    ext = dynamic_extinction(trace, switch_time)
    window_idx = min(int(round(settle_window / drive.sample_period)), ext.envelope.size - 1)
    t_floor, reached = ext.time_to(extinction_target)
    return SwitchOffResult(
        drive=drive,
        trace=trace,
        achieved_floor=float(ext.envelope[window_idx]),
        time_to_floor=t_floor,
        converged=reached and t_floor <= settle_window + 1e-15,
    )


def predistort(problem: PredistortionProblem) -> SwitchOffResult:
    """Solve for a drive whose optical output meets the extinction target.

    The target phase is deconvolved by the kernel and the drive clipped to
    +/- v_max; the floor, the time to reach the target and convergence are
    then read from `simulate_switch_off`, an independent forward
    simulation of that drive.
    """
    phase_cmd = _deconvolve(
        problem.target_phase, problem.response.impulse_kernel, problem.regularization
    )
    v_cmd = np.clip(phase_cmd * problem.channel.v_pi / math.pi, -problem.v_max, problem.v_max)
    return simulate_switch_off(
        problem.channel,
        problem.response,
        Waveform(problem.response.sample_period, v_cmd),
        problem.switch_time,
        problem.settle_window,
        problem.extinction_target,
    )


def switch_off_target_phase(
    response: ActuatorResponse, ramp_time: float, settle_window: float
) -> tuple[np.ndarray, float]:
    """Target phase trajectory for a switch-off event: settled ON (pi),
    a raised-cosine ramp to 0 over ramp_time, then a 0 hold covering the
    settle window. Returns (phase samples, switch time = ramp start)."""
    dt = response.sample_period
    n_pre = on_hold_samples(response)
    n_ramp = max(int(round(ramp_time / dt)), 1)
    n_post = int(round(settle_window / dt)) + n_ramp
    ramp = 0.5 * (1.0 + np.cos(np.pi * np.arange(1, n_ramp + 1) / n_ramp))
    phase = np.concatenate([np.full(n_pre, np.pi), np.pi * ramp, np.zeros(n_post)])
    return phase, n_pre * dt
