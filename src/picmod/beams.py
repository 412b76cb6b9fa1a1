"""Free-space beam-array model at the target plane.

Sites sit on a 1-D line at a fixed pitch in units of the 1/e^2 intensity
diameter d0. Each active channel contributes a Gaussian beam at its site;
evanescent coupling in the delivery path places attenuated copies on the
nearest-neighbor sites. Fields add coherently and in phase, the worst
case for the leakage at an idle site, so every amplitude is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import db
from .errors import PicmodError

WAIST_RADIUS = 0.5  # 1/e^2 field radius in units of d0


@dataclass(frozen=True)
class BeamArray:
    """Beam sites with real per-site field amplitudes (leaks included)."""

    amplitudes: np.ndarray  # field amplitude per site
    active: frozenset
    pitch: float  # in units of d0
    measurement_floor_db: float

    @property
    def n_beams(self) -> int:
        return self.amplitudes.size

    def site_positions(self) -> np.ndarray:
        return np.arange(self.n_beams) * self.pitch


def make_beam_array(
    n_beams: int,
    active,
    pitch: float = 4.33,
    nn_leak_db: float = -50.8,
    measurement_floor_db: float = -65.0,
) -> BeamArray:
    """Array with unit amplitude on active sites plus NN leaked copies.

    nn_leak_db is the leaked *intensity* at a neighbor site relative to an
    active site; the leaked field amplitude is its square root, in phase
    with the main beams (the worst case when fields add coherently).
    """
    active = frozenset(int(i) for i in active)
    if not active:
        raise PicmodError("active set must be non-empty")
    if any(not 0 <= i < n_beams for i in active):
        raise PicmodError(f"active sites must lie in [0, {n_beams - 1}]")
    # As a float: numpy cannot scale indices by an int past int64. A last
    # site past the float range would make every distance to it NaN.
    pitch = float(pitch)
    if not (pitch > 0 and math.isfinite((n_beams - 1) * pitch)):
        raise PicmodError(f"pitch must be > 0 and fit {n_beams} sites in floats, got {pitch!r}")
    on = np.zeros(n_beams)
    on[list(active)] = 1.0
    leak = math.sqrt(10.0 ** (nn_leak_db / 10.0)) * on
    # Each site sums its own beam, the leak from its left, then its right.
    amps = on.copy()
    amps[1:] += leak[:-1]
    amps[:-1] += leak[1:]
    return BeamArray(amps, active, pitch, measurement_floor_db)


def intensity_profile(array: BeamArray, x_samples) -> np.ndarray:
    """Unnormalized intensity cross-section along the site axis."""
    x = np.atleast_1d(np.asarray(x_samples, dtype=float))
    # Per-site Gaussian field envelopes, shape (sites, x).
    pos = array.site_positions()[:, None]
    # A distance whose square overflows to inf is a field of exactly 0,
    # which is what exp(-inf) gives, so the overflow is not an error.
    with np.errstate(over="ignore"):
        fields = np.exp(-((x[None, :] - pos) ** 2) / WAIST_RADIUS**2)
    total = (array.amplitudes[:, None] * fields).sum(axis=0)
    return total * total


@dataclass(frozen=True)
class BeamProfile:
    x_over_d0: np.ndarray
    intensity: np.ndarray  # normalized to peak
    intensity_db: np.ndarray  # floor-clamped for reporting


def target_plane_profile(array: BeamArray, x_samples) -> BeamProfile:
    """Normalized target-plane intensity cross-section.

    The linear profile is normalized to its peak; the dB profile is
    clamped at the measurement floor, as a real detector would report it.
    """
    x = np.atleast_1d(np.asarray(x_samples, dtype=float))
    intensity = intensity_profile(array, x)
    peak = float(intensity.max())
    if peak <= 0:
        raise PicmodError("profile has no power")
    norm = intensity / peak
    level = np.maximum(db(norm), array.measurement_floor_db)
    return BeamProfile(x_over_d0=x, intensity=norm, intensity_db=level)


@dataclass(frozen=True)
class SiteLeakage:
    site: int
    reported_db: float  # relative to the active-site peak, floor-clamped
    floor_limited: bool


def site_leakage_report(array: BeamArray) -> list[SiteLeakage]:
    """Leakage at every idle site center relative to the active-site peak."""
    intensity = intensity_profile(array, array.site_positions())
    rel = intensity / max(intensity[i] for i in array.active)
    floor = array.measurement_floor_db
    report = []
    for site in sorted(set(range(array.n_beams)) - array.active):
        level = db(rel[site])
        report.append(SiteLeakage(site, max(level, floor), level < floor))
    return report
