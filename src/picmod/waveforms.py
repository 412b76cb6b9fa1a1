"""Drive-waveform synthesis: pulse trains, pre-distortion, switch-off targets
and the dynamic extinction of a switch-off.

Pre-distortion solves for the drive that makes the actuator's phase output
follow a target trajectory: one Tikhonov-regularized frequency-domain
deconvolution, clipped to the drive limit. The reported extinction floor
is recomputed by an independent forward simulation of the returned drive
through the full nonlinear optical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModulatorChannel, fringe_coeffs
from .dynamics import ActuatorResponse, OpticalTrace, Waveform, on_hold_samples, trace_optical
from .errors import GridError, PicmodError, UnachievableTargetError


@dataclass(frozen=True)
class PulseSpec:
    """Periodic ON/OFF drive pulse description."""

    on_level: float
    off_level: float
    on_duration: float
    period: float

    def __post_init__(self):
        if not 0.0 < self.on_duration < self.period:
            raise PicmodError("need 0 < on_duration < period")


def _grid_count(duration: float, dt: float, what: str) -> int:
    n = duration / dt
    if round(n) < 1 or abs(n - round(n)) > 1e-9 * max(n, 1.0):
        raise GridError(f"{what} {duration:.6g} s is not a positive integer number of samples")
    return int(round(n))


def make_pulse_train(spec: PulseSpec, n_pulses: int, sample_period: float) -> Waveform:
    """Deterministic waveform of n_pulses periods of the pulse spec."""
    if n_pulses < 0:
        raise PicmodError("n_pulses must be >= 0")
    if n_pulses == 0:
        return Waveform(sample_period, np.empty(0))
    n_period = _grid_count(spec.period, sample_period, "period")
    n_on = _grid_count(spec.on_duration, sample_period, "on_duration")
    one = np.full(n_period, spec.off_level, dtype=float)
    one[:n_on] = spec.on_level
    return Waveform(sample_period, np.tile(one, n_pulses))


def target_phase_from_power(target_power, channel: ModulatorChannel) -> np.ndarray:
    """Drive phase pi*V/v_pi achieving each normalized power target.

    A channel is one stage repeated n times, so the stage power is
    (target * peak)^(1/n) = c0 + c1*cos(phi), which inverts exactly:
    phi = arccos(((target * peak)^(1/n) - c0) / c1) on the branch
    phi in [0, pi] (on the BAR port, a^2 + b^2 - stage power over 2ab).
    phi is the stage's net phase pi*V/v_pi, so it is the drive phase.
    The floor and 1.0 map exactly
    to the null and the peak, where arccos is worst conditioned. The
    tests check the result against the forward model and against
    bracketed root finding.
    """
    target = np.atleast_1d(np.asarray(target_power, dtype=float))
    stage = channel.stages[0]
    peak = channel.max_transmission()
    floor = channel.min_transmission() / peak

    lo_ok = target >= floor - 1e-300
    hi_ok = target <= 1.0 + 1e-12
    if not np.all(lo_ok & hi_ok):
        bad = target[~(lo_ok & hi_ok)][0]
        raise UnachievableTargetError(
            f"target power {bad:.3g} outside achievable range [{floor:.3g}, 1]"
        )
    c0, c1 = fringe_coeffs(*stage.terms)
    cos_phi = np.clip(((target * peak) ** (1.0 / channel.n_stages) - c0) / c1, -1.0, 1.0)
    cos_peak = -1.0
    cos_phi[target >= 1.0] = cos_peak
    cos_phi[target <= floor] = -cos_peak
    return np.arccos(cos_phi)


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
            window = float(self.times[-1]) if self.times.size else 0.0
            return window, False
        return float(self.times[int(np.argmax(below))]), True


def dynamic_extinction(trace: OpticalTrace, switch_time: float) -> DynamicExtinction:
    """Reverse-cumulative-max envelope of post-switch power vs time.

    Normalized to the settled ON level just before the switch. The
    envelope at time t is the maximum power at any time >= t, a monotone
    non-increasing worst-case-remaining summary.
    """
    dt = trace.sample_period
    n = trace.power.size
    idx = int(round(switch_time / dt))
    if not 0 < idx < n:
        raise PicmodError(f"switch_time {switch_time} outside trace")
    pre = trace.power[max(0, idx - max(8, idx // 4)):idx]
    on_level = float(np.median(pre))
    if on_level <= 0:
        raise PicmodError("pre-switch ON level is not positive")
    post = trace.power[idx:]
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
class PredistortionSolution:
    drive: Waveform
    trace: OpticalTrace  # the verified optical trace of the drive
    achieved_floor: float
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
    nfft = int(2 ** math.ceil(math.log2(padded.size + kernel.size)))
    h = np.fft.rfft(kernel, nfft)
    d = np.fft.rfft(padded, nfft)
    power = np.abs(h) ** 2
    lam = relative_reg * float(np.max(power))
    if lam == 0.0 and np.any(power == 0.0):
        raise PicmodError("kernel spectrum not invertible without regularization")
    u = np.fft.irfft(d * np.conj(h) / (power + lam), nfft)
    return u[pad:pad + signal.size]


def predistort(problem: PredistortionProblem) -> PredistortionSolution:
    """Solve for a drive whose optical output meets the extinction target.

    The target phase is deconvolved by the kernel and the drive clipped to
    +/- v_max; the floor, the time to reach the target and convergence are
    then read from an independent forward simulation of that drive.
    """
    v_pi = problem.channel.v_pi
    dt = problem.response.sample_period
    phase_cmd = _deconvolve(
        problem.target_phase, problem.response.impulse_kernel, problem.regularization
    )
    drive = Waveform(dt, np.clip(phase_cmd * v_pi / math.pi, -problem.v_max, problem.v_max))

    trace = trace_optical(problem.channel, problem.response, drive)
    ext = dynamic_extinction(trace, problem.switch_time)
    window_idx = min(int(round(problem.settle_window / dt)), ext.envelope.size - 1)
    t_floor, reached = ext.time_to(problem.extinction_target)
    return PredistortionSolution(
        drive=drive,
        trace=trace,
        achieved_floor=float(ext.envelope[window_idx]),
        time_to_floor=t_floor,
        converged=reached and t_floor <= problem.settle_window + 1e-15,
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
