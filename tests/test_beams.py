"""Free-space beam array: profiles, leakage, floor flags."""

import math

import numpy as np
import pytest

from picmod.beams import (
    intensity_profile,
    make_beam_array,
    site_leakage_report,
    target_plane_profile,
)
from picmod.errors import PicmodError

PITCH = 4.33


class TestSingleActiveChannel:
    def test_nn_leakage_level(self):
        array = make_beam_array(8, [0], pitch=PITCH, nn_leak_db=-50.8)
        leaks = {l.site: l for l in site_leakage_report(array)}
        assert leaks[1].reported_db == pytest.approx(-50.8, abs=0.2)
        assert not leaks[1].floor_limited

    def test_pure_gaussian_tail_negligible(self):
        array = make_beam_array(8, [0], pitch=PITCH, nn_leak_db=-1000.0)
        tail = intensity_profile(array, [PITCH])[0]
        # Analytic: exp(-2 * pitch^2 / (d0/2)^2) in field -> intensity
        expected = math.exp(-2 * PITCH**2 / 0.5**2)
        assert 10 * math.log10(tail) < -300
        assert tail == pytest.approx(expected, rel=1e-6)

    def test_nnn_sites_floor_flagged(self):
        array = make_beam_array(8, [0], pitch=PITCH, nn_leak_db=-50.8)
        leaks = {l.site: l for l in site_leakage_report(array)}
        for site in range(2, 8):
            assert leaks[site].floor_limited
            assert leaks[site].reported_db == -65.0

    def test_overflowing_distance_is_zero_field(self):
        # At a pitch of 1e300 d0 the squared distance to every other site
        # overflows; that field is exactly 0, with no RuntimeWarning
        # (which the suite turns into an error).
        pitch = 1e300
        array = make_beam_array(8, [0, 2, 4, 6], pitch=pitch, nn_leak_db=-50.8)
        on_site, between = intensity_profile(array, [0.0, pitch])
        assert on_site == 1.0
        assert between == pytest.approx(4 * 10 ** (-50.8 / 10), rel=1e-12)
        leaks = {l.site: l for l in site_leakage_report(array)}
        assert leaks[7].reported_db == pytest.approx(-50.8, abs=1e-9)


class TestPatterns:
    def test_all_active_eight_peaks(self):
        array = make_beam_array(8, range(8), pitch=PITCH)
        x = np.linspace(-2, 7 * PITCH + 2, 4096)
        profile = target_plane_profile(array, x)
        y = profile.intensity
        peaks = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
        tall = [p for p in peaks if y[p] > 0.5]
        assert len(tall) == 8

    def test_all_active_empty_leakage_list(self):
        array = make_beam_array(8, range(8), pitch=PITCH)
        assert site_leakage_report(array) == []

    def test_alternating_pattern_idle_sites(self):
        # Idle sites between two active neighbors carry two coherent leaked
        # copies: between -50.8 dB (one leak) and -50.8 + 6.02 dB (two in
        # phase). The end site (one active neighbor) sits at -50.8 exactly.
        array = make_beam_array(8, [0, 2, 4, 6], pitch=PITCH, nn_leak_db=-50.8)
        leaks = {l.site: l for l in site_leakage_report(array)}
        for site in (1, 3, 5):
            assert -51.3 <= leaks[site].reported_db <= -50.8 + 6.1
        assert leaks[7].reported_db == pytest.approx(-50.8, abs=0.2)


class TestValidation:
    def test_empty_active_set(self):
        with pytest.raises(PicmodError):
            make_beam_array(8, [])

    def test_active_out_of_range(self):
        with pytest.raises(PicmodError):
            make_beam_array(8, [8])

    def test_profile_normalized_and_floor_clamped(self):
        array = make_beam_array(4, [0], pitch=PITCH, measurement_floor_db=-65.0)
        x = np.linspace(-2, 3 * PITCH + 2, 1024)
        profile = target_plane_profile(array, x)
        assert profile.intensity.max() == pytest.approx(1.0)
        assert profile.intensity_db.min() >= -65.0


class TestGaussianTailDominance:
    def test_leak_exceeds_tail_by_100_db(self):
        # For pitch >= 3 d0 and leak >= -60 dB the evanescent copy dwarfs
        # the Gaussian tail of the main beam at the NN site center.
        for pitch in (3.0, 4.33, 6.0):
            tail_db = 10 * math.log10(math.exp(-2 * pitch**2 / 0.25))
            assert -60.0 - tail_db >= 100.0
