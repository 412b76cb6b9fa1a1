"""Discrete-time LTI actuator model and time-resolved optical traces.

The piezo actuator is a causal impulse-response kernel with unit DC gain
mapping drive voltage to optical phase (scaled by pi/v_pi). Optics are
quasi-static: transmission follows the instantaneous phase sample by
sample. A drive holds a level for `on_hold_samples` before it switches,
long enough for the actuator to settle.

Everything here runs on numpy and the standard library. `synthesize_kernel`
solves for the time constant with `fitting._brent_root`, Brent's bracketing
root finder, which `fit_v_pi` also uses.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ModulatorChannel, channel_transmission_equal
from .errors import PicmodError
from .fitting import _brent_root

# Kernels shorter than this use direct convolution, longer ones numpy's
# real FFT on a zero-padded power-of-two length; both agree within 1e-10.
DIRECT_KERNEL_LIMIT = 512

_TAIL_MASS = 1e-12


class KernelKind(enum.Enum):
    FIRST_ORDER = "first_order"
    SECOND_ORDER = "second_order"


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled time series: a drive voltage or an optical trace."""

    sample_period: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_period <= 0:
            raise PicmodError("sample_period must be positive")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise PicmodError("samples must be a 1-D array")
        if samples.size and not np.all(np.isfinite(samples)):
            raise PicmodError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.sample_period


@dataclass(frozen=True)
class ActuatorResponse:
    """Causal impulse kernel with unit DC gain at a fixed sample period."""

    rise_time_10_90: float
    sample_period: float
    impulse_kernel: np.ndarray

    def __post_init__(self):
        kernel = np.asarray(self.impulse_kernel, dtype=float)
        object.__setattr__(self, "impulse_kernel", kernel)
        if abs(kernel.sum() - 1.0) > 1e-9:
            raise PicmodError("impulse kernel must have unit DC gain")


def _interp_crossing(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """First time y crosses level (upward)."""
    above = y >= level
    if not np.any(above):
        raise PicmodError(f"trace never reaches level {level}")
    i = int(np.argmax(above))
    if i == 0 or y[i] == y[i - 1]:
        return float(t[i])
    frac = (level - y[i - 1]) / (y[i] - y[i - 1])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def _rise_time(y: np.ndarray, dt: float, start: float, final: float) -> float:
    """10-90% rise time of the edge of y (sampled at dt) from start to final.

    A falling edge is measured as the rising edge of -y; crossing times
    are linearly interpolated.
    """
    sign = 1.0 if final > start else -1.0
    span = sign * (final - start)
    t = np.arange(y.size) * dt
    y = y if sign > 0 else -y
    t10 = _interp_crossing(t, y, sign * start + 0.1 * span)
    t90 = _interp_crossing(t, y, sign * start + 0.9 * span)
    return t90 - t10


def _trim_tail(kernel: np.ndarray) -> np.ndarray:
    """The kernel without its last _TAIL_MASS of |mass|, scaled to unit sum."""
    mass = np.cumsum(np.abs(kernel[::-1]))[::-1]
    total = float(np.sum(np.abs(kernel)))
    keep = mass > _TAIL_MASS * total
    n = int(np.max(np.nonzero(keep)[0])) + 1 if np.any(keep) else kernel.size
    kernel = kernel[:n]
    return kernel / kernel.sum()


def _first_order_kernel(tau: float, dt: float) -> np.ndarray:
    # Exact discretization of a one-pole low-pass; geometric tail.
    a = math.exp(-dt / tau)
    n = max(int(math.ceil(-tau / dt * math.log(_TAIL_MASS))) + 2, 4)
    return _trim_tail((1.0 - a) * a ** np.arange(n))


def _second_order_kernel(omega_n: float, zeta: float, dt: float) -> np.ndarray:
    omega_d = omega_n * math.sqrt(1.0 - zeta**2)
    n = max(int(math.ceil(-math.log(_TAIL_MASS) / (zeta * omega_n * dt))) + 2, 4)
    t = np.arange(n) * dt
    return _trim_tail(np.exp(-zeta * omega_n * t) * np.sin(omega_d * t))


def synthesize_kernel(
    kind: KernelKind,
    rise_time_10_90: float,
    sample_period: float,
    damping_ratio: float | None = None,
) -> ActuatorResponse:
    """Build a kernel whose step response has the requested 10-90% rise.

    The time constant (or natural frequency) is solved numerically so the
    measured discrete-time rise matches the request within 2%.
    """
    if rise_time_10_90 < 2.0 * sample_period:
        raise PicmodError(
            f"rise time {rise_time_10_90:.3g} s unresolvable at sample period "
            f"{sample_period:.3g} s (need >= 2 samples)"
        )
    dt = sample_period

    # Each kind sets its kernel builder and its root bracket (lo, hi, xtol).
    if kind is KernelKind.FIRST_ORDER:
        tau0 = rise_time_10_90 / math.log(9.0)
        build = functools.partial(_first_order_kernel, dt=dt)
        bracket = (0.2 * tau0, 5.0 * tau0, 1e-6 * tau0)
    elif kind is KernelKind.SECOND_ORDER:
        if damping_ratio is None or not 0.0 < damping_ratio < 1.0:
            raise PicmodError("SECOND_ORDER kernel needs damping_ratio in (0,1)")
        w0 = 1.5 / rise_time_10_90
        build = functools.partial(_second_order_kernel, zeta=damping_ratio, dt=dt)
        bracket = (0.3 * w0, 6.0 * w0, 1e-8 * w0)
    else:
        raise PicmodError(f"unknown kernel kind {kind}")

    def step_rise(kernel):
        return _rise_time(np.cumsum(kernel), dt, 0.0, 1.0)

    kernel = build(_brent_root(lambda x: step_rise(build(x)) - rise_time_10_90, *bracket))
    achieved = step_rise(kernel)
    if abs(achieved - rise_time_10_90) > 0.02 * rise_time_10_90:
        raise PicmodError(
            f"kernel synthesis missed rise-time target: {achieved} vs {rise_time_10_90}"
        )
    return ActuatorResponse(
        rise_time_10_90=rise_time_10_90,
        sample_period=sample_period,
        impulse_kernel=kernel,
    )


def convolve_causal(samples: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution truncated to the input length."""
    n = samples.size
    if n == 0:
        return samples.copy()
    if kernel.size < DIRECT_KERNEL_LIMIT:
        return np.convolve(samples, kernel)[:n]
    nfft = 1 << (n + kernel.size - 2).bit_length()
    spectrum = np.fft.rfft(samples, nfft)
    spectrum *= np.fft.rfft(kernel, nfft)
    return np.fft.irfft(spectrum, nfft)[:n]


def trace_optical(
    channel: ModulatorChannel,
    response: ActuatorResponse,
    drive: Waveform,
) -> Waveform:
    """Time-resolved optical power for a drive applied to every stage.

    The actuator filters the voltage (phase is linear in voltage, so
    filtering commutes with the pi/v_pi scale); the optical map is applied
    per sample. Power is normalized to the channel's ON level.
    """
    if not math.isclose(response.sample_period, drive.sample_period, rel_tol=1e-9):
        raise PicmodError("kernel and drive sample periods differ")
    v_eff = convolve_causal(drive.samples, response.impulse_kernel)
    power = channel_transmission_equal(channel, v_eff, include_loss=False)
    return Waveform(drive.sample_period, power / channel.max_transmission())


def on_hold_samples(response: ActuatorResponse) -> int:
    """Samples a drive holds a level for the actuator to settle: the
    kernel length plus 2, or 5 rise times, whichever is longer."""
    dt = response.sample_period
    return max(response.impulse_kernel.size + 2, int(round(5 * response.rise_time_10_90 / dt)))


def step_response_trace(
    channel: ModulatorChannel,
    response: ActuatorResponse,
    v_from: float,
    v_to: float,
) -> Waveform:
    """Optical trace of a settled voltage step, starting just before the step.

    The pre-step level is held for `on_hold_samples`, so the returned
    trace is free of the startup transient.
    """
    dt = response.sample_period
    n_settle = on_hold_samples(response)
    n_after = max(int(20 * response.rise_time_10_90 / dt), 64)
    samples = np.concatenate([np.full(n_settle, v_from), np.full(n_after, v_to)])
    trace = trace_optical(channel, response, Waveform(dt, samples))
    return Waveform(dt, trace.samples[n_settle - 2:])


def _median(x) -> float:
    """np.median of a finite 1-D array, bit for bit: the mean of the middle
    sorted value, or of the middle two, as np.median takes it (so a zero
    median is +0.0). np.median's NaN check imports numpy.ma, which no
    command needs otherwise."""
    s = np.sort(x)
    m = s.size // 2
    return float(s[m - 1 + s.size % 2 : m + 1].mean())


def measure_rise_time(trace: Waveform) -> float:
    """10-90% rise time of the settled transition in a trace.

    Thresholds are taken on the settled span (initial sample to the median
    of the final 10%); crossing times are linearly interpolated.
    """
    power = trace.samples
    if power.size < 3:
        raise PicmodError("trace too short")
    start = float(power[0])
    settled = _median(power[-max(power.size // 10, 3):])
    if abs(settled - start) < 1e-9 * max(abs(settled), abs(start), 1e-30):
        raise PicmodError("no transition found (flat trace)")
    return _rise_time(power, trace.sample_period, start, settled)
