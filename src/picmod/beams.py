"""Free-space beam-array model at the target plane.

Sites sit on a 1-D line at a fixed pitch in units of the 1/e^2 intensity
diameter d0. Each active channel contributes a Gaussian beam at its site;
evanescent coupling in the delivery path places attenuated copies on the
nearest-neighbor sites. Fields add coherently, in phase: the worst case
for the leakage at an idle site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError

WAIST_RADIUS = 0.5  # 1/e^2 field radius in units of d0


@dataclass(frozen=True)
class BeamArray:
    """Beam sites with complex per-site amplitudes (leaks included)."""

    n_beams: int
    amplitudes: np.ndarray  # complex field amplitude per site
    active: frozenset
    pitch: float = 4.33  # in units of d0
    measurement_floor_db: float = -65.0

    def __post_init__(self):
        if self.n_beams < 1 or self.pitch <= 0:
            raise PicmodError("n_beams and pitch must be positive")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.n_beams,):
            raise PicmodError("amplitudes must have one entry per site")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "active", frozenset(self.active))

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
    amps = np.zeros(n_beams, dtype=complex)
    leak_amp = math.sqrt(10.0 ** (nn_leak_db / 10.0))
    for i in active:
        amps[i] += 1.0
        for j in (i - 1, i + 1):
            if 0 <= j < n_beams:
                amps[j] += leak_amp
    return BeamArray(
        n_beams=n_beams,
        amplitudes=amps,
        active=active,
        pitch=pitch,
        measurement_floor_db=measurement_floor_db,
    )


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
    return np.abs(total) ** 2


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
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(norm)
    db = np.maximum(db, array.measurement_floor_db)
    return BeamProfile(x_over_d0=x, intensity=norm, intensity_db=db)


@dataclass(frozen=True)
class SiteLeakage:
    site: int
    reported_db: float  # relative to the active-site peak, floor-clamped
    floor_limited: bool


def site_leakage_report(array: BeamArray) -> list[SiteLeakage]:
    """Leakage at every idle site center relative to the active-site peak."""
    pos = array.site_positions()
    intensity = intensity_profile(array, pos)
    peak = float(max(intensity[i] for i in array.active))
    report = []
    for site in range(array.n_beams):
        if site in array.active:
            continue
        rel = intensity[site] / peak
        db = 10.0 * math.log10(rel) if rel > 0 else float("-inf")
        limited = db < array.measurement_floor_db
        report.append(
            SiteLeakage(
                site=site,
                reported_db=max(db, array.measurement_floor_db),
                floor_limited=limited,
            )
        )
    return report
