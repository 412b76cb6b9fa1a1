"""Stochastic processes and the detector measurement model.

Every stochastic quantity is a pure function of (parameters, seed); the
same seed always reproduces the same path bit for bit on one machine.
Streams are derived by labeled splitting (see rng.py) so module call
order cannot perturb them. OU paths are filtered by `_ar1_filter`, a
blocked AR(1) recursion of elementwise products and sums with no BLAS
call. It filters the drawn drive in place, so a path of n samples holds
one n-sample array and two of about 8*sqrt(n) samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError


@dataclass(frozen=True)
class OuParams:
    """Ornstein-Uhlenbeck process parameters (stationary std, memory)."""

    sigma: float
    correlation_time: float

    def __post_init__(self):
        if self.sigma < 0:
            raise PicmodError("sigma must be >= 0")
        if self.correlation_time <= 0:
            raise PicmodError("correlation_time must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Noise processes acting on a modulator channel."""

    bias_drift: OuParams = OuParams(0.0, 1.0)  # radians on the bias phase
    amplitude_jitter_sigma: float = 0.0  # per-pulse multiplicative
    v_pi_drift: OuParams = OuParams(0.0, 1.0)  # relative v_pi drift
    seed: int = 0

    def __post_init__(self):
        if self.amplitude_jitter_sigma < 0:
            raise PicmodError("amplitude_jitter_sigma must be >= 0")


def _ar1_scalar(x: np.ndarray, a: float, state: float = 0.0) -> None:
    """x[k] <- a*x[k-1] + x[k] in place, one sample at a time, with x[-1] = state."""
    y = state
    for k, v in enumerate(x.tolist()):
        y = a * y + v
        x[k] = y


def _ar1_filter(drive: np.ndarray, a: float) -> np.ndarray:
    """Filter the contiguous `drive` in place into y[k] = a*y[k-1] + drive[k],
    with y[-1] = 0, for 0 <= a <= 1, and return it.

    The samples are cut into m rows of b = isqrt(n // 64) | 1 and the
    recursion runs down the columns, all rows at once. Pass 1 reads each
    row's end from zero state; those ends, filtered with pole a^b, are the
    state at the end of each row. Pass 2 starts each row from the state the
    row before it ends in and writes the exact recursion in place. The
    samples after the last full row run the scalar recursion. Below 256
    samples b is 1, so the result is the scalar recursion bit for bit. b is
    odd, never a power of two: a row stride of 2^k samples maps a column
    onto a few cache sets, and on an x86-64 CPU with AVX-512, b = 64 at
    n = 2^18 and b = 128 at n = 2^20 ran 1.7-2.2x slower than b + 1.
    """
    n = drive.size
    b = math.isqrt(n // 64) | 1
    m = n // b
    blocks = drive[: m * b].reshape(m, b)
    ends = np.zeros(m)
    for j in range(b):
        ends *= a
        ends += blocks[:, j]
    _ar1_scalar(ends, a**b)
    state = np.empty(m)
    state[:1] = 0.0
    state[1:] = ends[:-1]
    for j in range(b):
        state *= a
        state += blocks[:, j]
        blocks[:, j] = state
    _ar1_scalar(drive[m * b :], a, float(ends[-1]) if m else 0.0)
    return drive


def sample_ou_path(
    sigma: float,
    correlation_time: float,
    duration: float,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact-discretization OU path with a stationary start.

    x[k+1] = a x[k] + sigma sqrt(1-a^2) w[k],  a = exp(-dt/tau),
    x[0] ~ N(0, sigma^2). Returns floor(duration/dt)+1 samples. The
    recursion runs in `_ar1_filter`; dt <= tau/10 keeps a in
    [exp(-0.1), 1).
    """
    if dt <= 0 or duration < 0:
        raise PicmodError("dt must be positive and duration >= 0")
    n = int(math.floor(duration / dt + 1e-9)) + 1
    if sigma == 0.0:
        return np.zeros(n)
    if dt > correlation_time / 10.0:
        raise PicmodError(
            f"dt {dt:.3g} too coarse for correlation time {correlation_time:.3g}"
        )
    a = math.exp(-dt / correlation_time)
    # Scaled and filtered in place: the path is the only full-length array.
    drive = rng.standard_normal(n)
    w0 = drive[0]
    drive *= sigma * math.sqrt(1.0 - a * a)
    drive[0] = w0 * sigma  # stationary start
    return _ar1_filter(drive, a)


@dataclass(frozen=True)
class DetectorModel:
    """Reads the true power floored at relative_floor; a zero floor is an
    ideal detector."""

    relative_floor: float = 0.0  # linear power

    def __post_init__(self):
        if self.relative_floor < 0:
            raise PicmodError("relative_floor must be >= 0")

    def measure(self, true_power):
        """Measured power: the true power, floored."""
        p = np.asarray(true_power, dtype=float)
        if np.any(p < 0):
            raise PicmodError("true_power must be >= 0")
        p = np.maximum(p, self.relative_floor)
        return float(p) if p.ndim == 0 else p
