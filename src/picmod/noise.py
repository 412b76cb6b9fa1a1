"""Stochastic processes and the detector measurement model.

Every stochastic quantity is a pure function of (parameters, seed); the
same seed always reproduces the same path bit for bit on one machine.
Streams are derived by labeled splitting (see rng.py) so module call order
cannot perturb them. OU paths are filtered by `_ar1_filter`, a blocked
AR(1) recursion whose matmul rounds as the CPU's BLAS kernel does, so
another CPU may differ in the last digits. It filters the drawn drive in
place, a chunk of blocks at a time, so a path of n samples holds one
n-sample array and cache-sized temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError

# Blocked AR(1) filter: samples per block; inputs shorter than _AR1_SCALAR_MAX
# run the scalar loop; the block matmul and the carry update run on chunks of
# at most 64K elements (512 KiB temporaries, which stay in cache).
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


def _ar1_scalar(x: np.ndarray, a: float, state: float = 0.0) -> None:
    """x[k] <- a*x[k-1] + x[k] in place, one sample at a time, with x[-1] = state."""
    y = state
    for k, v in enumerate(x.tolist()):
        y = a * y + v
        x[k] = y


def _ar1_filter(drive: np.ndarray, a: float) -> np.ndarray:
    """Filter the contiguous `drive` in place into y[k] = a*y[k-1] + drive[k],
    with y[-1] = 0, for 0 <= a <= 1, and return it.

    The full blocks of B = _AR1_BLOCK samples are filtered from zero state
    by a matmul against the upper-triangular matrix U[i, j] = a^(j-i), a
    chunk of block rows at a time through one chunk-sized buffer. The
    chunks are near-equal (`np.array_split`), so none has a single row:
    numpy sends a one-row matmul down another BLAS path, which rounds
    differently. The state each
    block hands to the next is itself an AR(1) series in a^B, driven by the
    blocks' last zero-state samples, and is filtered by this function;
    block r then adds a^(j+1) times the state at the end of block r-1.
    Every weight is a power of a, at most 1, so no rounding error is
    amplified. Inputs shorter than _AR1_SCALAR_MAX samples, and the samples
    after the last full block, run the scalar recursion.
    """
    n = drive.size
    if n < _AR1_SCALAR_MAX:
        _ar1_scalar(drive, a)
        return drive
    b = _AR1_BLOCK
    m = n // b
    powers = a ** np.arange(b + 1.0)
    lag = np.arange(b)
    upper = np.triu(powers[np.maximum(lag[None, :] - lag[:, None], 0)])
    blocks = drive[: m * b].reshape(m, b)
    n_chunks = -(-m // _AR1_CHUNK_ROWS)
    buf = np.empty((-(-m // n_chunks), b))
    for rows in np.array_split(blocks, n_chunks):
        zero_state = buf[: len(rows)]
        np.matmul(rows, upper, out=zero_state)
        rows[...] = zero_state
    ends = _ar1_filter(blocks[:, -1].copy(), float(powers[-1]))
    later, carried = blocks[1:], ends[:-1, None]
    for r in range(0, m - 1, _AR1_CHUNK_ROWS):
        rows = slice(r, r + _AR1_CHUNK_ROWS)
        later[rows] += carried[rows] * powers[1:]
    _ar1_scalar(drive[m * b :], a, float(ends[-1]))
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
