"""Stochastic processes and the detector measurement model.

Every stochastic quantity is a pure function of (parameters, seed); the
same seed always reproduces the same path bit for bit on one machine.
Streams are derived by labeled splitting (see rng.py) so module call order
cannot perturb them. OU paths are filtered by `_ar1_filter`, a blocked
AR(1) recursion whose matmul rounds as the CPU's BLAS kernel does, so
another CPU may differ in the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError

# Blocked AR(1) filter: samples per block; inputs shorter than _AR1_SCALAR_MAX
# run the scalar loop; the carry update runs on row chunks of 64K elements
# (512 KiB temporaries, which stay in cache).
_AR1_BLOCK = 16
_AR1_SCALAR_MAX = 64
_AR1_CHUNK_ROWS = (1 << 16) // _AR1_BLOCK


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


def _ar1_scalar(drive: np.ndarray, a: float, state: float = 0.0) -> np.ndarray:
    """y[k] = a*y[k-1] + drive[k] one sample at a time, with y[-1] = state."""
    out = np.empty(drive.size)
    y = state
    for k, x in enumerate(drive.tolist()):
        y = a * y + x
        out[k] = y
    return out


def _ar1_filter(drive: np.ndarray, a: float) -> np.ndarray:
    """y[k] = a*y[k-1] + drive[k] with y[-1] = 0, for 0 <= a <= 1.

    The full blocks of B = _AR1_BLOCK samples are filtered from zero state
    by one matmul against the upper-triangular matrix U[i, j] = a^(j-i).
    The state each block hands to the next is itself an AR(1) series in
    a^B, driven by the blocks' last zero-state samples, and is filtered by
    this function; block r then adds a^(j+1) times the state at the end
    of block r-1. Every weight is a power of a, at most 1, so no rounding
    error is amplified. Inputs shorter than _AR1_SCALAR_MAX samples, and
    the samples after the last full block, run the scalar recursion.
    """
    n = drive.size
    if n < _AR1_SCALAR_MAX:
        return _ar1_scalar(drive, a)
    b = _AR1_BLOCK
    m = n // b
    powers = a ** np.arange(b + 1.0)
    lag = np.arange(b)
    upper = np.triu(powers[np.maximum(lag[None, :] - lag[:, None], 0)])
    out = np.empty(n)
    blocks = out[: m * b].reshape(m, b)
    np.matmul(drive[: m * b].reshape(m, b), upper, out=blocks)
    ends = _ar1_filter(blocks[:, -1].copy(), float(powers[-1]))
    later, carried = blocks[1:], ends[:-1, None]
    for r in range(0, m - 1, _AR1_CHUNK_ROWS):
        rows = slice(r, r + _AR1_CHUNK_ROWS)
        later[rows] += carried[rows] * powers[1:]
    out[m * b :] = _ar1_scalar(drive[m * b :], a, float(ends[-1]))
    return out


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
    drive = rng.standard_normal(n)  # scaled in place: no second full-length array
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
