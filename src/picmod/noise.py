"""Stochastic processes and the detector measurement model.

Every stochastic quantity is a pure function of (parameters, seed); the
same seed always reproduces the same path bit for bit. Streams are
derived by labeled splitting (see rng.py) so module call order cannot
perturb them.
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
    recursion runs in `scipy.signal.lfilter`, imported on the first call.
    """
    from scipy.signal import lfilter
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
    w = rng.standard_normal(n)
    drive = w * (sigma * math.sqrt(1.0 - a * a))
    drive[0] = w[0] * sigma  # stationary start
    return lfilter([1.0], [1.0, -a], drive)


@dataclass(frozen=True)
class DetectorModel:
    """Measurement floor, optional additive noise, and clamping."""

    relative_floor: float = 0.0  # linear power
    additive_noise_sigma: float = 0.0
    clamp: bool = True

    def __post_init__(self):
        if self.relative_floor < 0 or self.additive_noise_sigma < 0:
            raise PicmodError("floor and noise sigma must be >= 0")

    def measure(self, true_power, rng: np.random.Generator | None = None):
        """Measured power: floor-clamped, noise added, clipped at zero."""
        p = np.asarray(true_power, dtype=float)
        if np.any(p < 0):
            raise PicmodError("true_power must be >= 0")
        if self.clamp:
            p = np.maximum(p, self.relative_floor)
        if self.additive_noise_sigma > 0:
            if rng is None:
                raise PicmodError("additive detector noise needs an rng")
            p = p + rng.normal(0.0, self.additive_noise_sigma, size=p.shape)
            p = np.maximum(p, 0.0)
        return float(p) if p.ndim == 0 else p
