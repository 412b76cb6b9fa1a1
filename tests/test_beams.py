"""Free-space beam array: profiles, leakage, floor flags."""

import copy
import itertools
import math

import numpy as np
import pytest

from picmod.beams import (
    SiteLeakage,
    intensity_profile,
    make_beam_array,
    site_leakage_report,
    target_plane_profile,
)
from picmod.config import ExperimentConfig
from picmod.errors import PicmodError
from picmod.experiments import run_beams

PITCH = 4.33


def reference_amplitudes(n_beams, active, nn_leak_db):
    """Oracle: one beam per active site, in ascending order, adding its
    unit amplitude and then a leaked copy on each neighbor."""
    amps = np.zeros(n_beams)
    leak_amp = math.sqrt(10.0 ** (nn_leak_db / 10.0))
    for i in sorted(active):
        amps[i] += 1.0
        for j in (i - 1, i + 1):
            if 0 <= j < n_beams:
                amps[j] += leak_amp
    return amps


def reference_leakage(array):
    """Oracle: each idle site's intensity divided by the active peak on
    its own, then clamped at the floor."""
    intensity = intensity_profile(array, array.site_positions())
    peak = float(max(intensity[i] for i in array.active))
    report = []
    for site in range(array.n_beams):
        if site in array.active:
            continue
        rel = intensity[site] / peak
        db = 10.0 * math.log10(rel) if rel > 0 else float("-inf")
        floor = array.measurement_floor_db
        report.append(SiteLeakage(site, max(db, floor), db < floor))
    return report


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


class TestReferenceLoops:
    # At -20 dB (leak amplitude 0.1), (1 + 0.1) + 0.1 and 1 + 0.2 round
    # apart, so a site summed in another order shows.
    @pytest.mark.parametrize("nn_leak_db", [0.0, -6.0, -20.0, -50.8, -math.inf])
    @pytest.mark.parametrize("pitch", [1e-3, PITCH, 1e300])
    def test_matches_per_site_loops_bit_for_bit(self, pitch, nn_leak_db):
        rng = np.random.default_rng(20)
        for _ in range(25):
            n_beams = int(rng.integers(1, 65))
            active = set(rng.choice(n_beams, size=int(rng.integers(1, n_beams + 1)),
                                    replace=False).tolist())
            array = make_beam_array(n_beams, active, pitch=pitch, nn_leak_db=nn_leak_db)
            expected = reference_amplitudes(n_beams, active, nn_leak_db)
            assert array.amplitudes.dtype == expected.dtype
            assert array.amplitudes.tobytes() == expected.tobytes()
            leaks = site_leakage_report(array)
            assert leaks == reference_leakage(array)
            assert all(type(l.floor_limited) is bool for l in leaks)


class TestProfileAtSiteCentres:
    def test_profile_db_equals_site_report(self):
        # The profile sampled at the site centres holds the site report's
        # ratios, so its dB must be the report's bit for bit.
        rng = np.random.default_rng(38)
        for _ in range(2000):
            n_beams = int(rng.integers(2, 33))
            active = rng.choice(n_beams, size=int(rng.integers(1, n_beams)), replace=False)
            array = make_beam_array(n_beams, active.tolist(), pitch=PITCH,
                                    nn_leak_db=float(rng.uniform(-60.0, -20.0)),
                                    measurement_floor_db=-300.0)
            profile = target_plane_profile(array, array.site_positions())
            for leak in site_leakage_report(array):
                assert profile.intensity_db[leak.site] == leak.reported_db, (array, leak)


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

    @pytest.mark.parametrize("pitch", [0.0, -1.0, math.nan, math.inf])
    def test_pitch_not_positive_and_finite(self, pitch):
        with pytest.raises(PicmodError, match="pitch"):
            make_beam_array(8, [0], pitch=pitch)

    def test_last_site_past_float_range(self):
        # 7 * 1e308 overflows: site 7 would sit at inf, every distance to
        # it NaN. One 1.7e308 step still fits.
        with pytest.raises(PicmodError, match="8 sites"):
            make_beam_array(8, [0, 2, 4, 6], pitch=1e308)
        with pytest.raises(PicmodError, match="1 sites"):
            make_beam_array(1, [0], pitch=math.inf)
        array = make_beam_array(2, [0], pitch=1.7e308, nn_leak_db=-50.8)
        [leak] = site_leakage_report(array)
        assert leak.reported_db == pytest.approx(-50.8, abs=1e-9)

    def test_int_pitch_past_int64(self):
        # numpy cannot scale int64 site indices by 10**19 (an int that a
        # YAML config may hold); the pitch is used as the float it equals.
        by_int = make_beam_array(8, [0, 2], pitch=10**19)
        by_float = make_beam_array(8, [0, 2], pitch=1e19)
        assert site_leakage_report(by_int) == site_leakage_report(by_float)


class TestBeamsConfigEdges:
    def test_run_beams_on_schema_edges(self, config_795):
        """Every schema-valid beams section at the edges of its ranges
        returns a report or raises PicmodError, and raises exactly when
        the last site lies past the float range. Warnings are errors."""
        outcomes = []
        for n, pitch, leak_db, floor_db, pattern in itertools.product(
            [1, 2, 8, 64],
            [1e-3, PITCH, 1e300, 2.8e306, 1e308, 1.7e308],
            [0.0, -50.8, -math.inf],
            [0.0, -65.0, -math.inf],
            ["site 0", "evens", "all"],
        ):
            data = copy.deepcopy(config_795.data)
            data["beams"].update(n_beams=n, pitch_d0=pitch, nn_leak_db=leak_db, floor_db=floor_db)
            sites = {"site 0": [0], "evens": range(0, n, 2), "all": range(n)}[pattern]
            overflows = not math.isfinite((n - 1) * pitch)
            try:
                report, tables = run_beams(ExperimentConfig(data), list(sites))
            except PicmodError:
                assert overflows, (n, pitch)
                outcomes.append("error")
                continue
            assert not overflows, (n, pitch)
            for column in tables["beam_profile.csv"][1]:
                assert not np.isnan(column).any(), (n, pitch, leak_db, floor_db, pattern)
            outcomes.append("report")
        assert (outcomes.count("report"), outcomes.count("error")) == (540, 108)


class TestGaussianTailDominance:
    def test_leak_exceeds_tail_by_100_db(self):
        # For pitch >= 3 d0 and leak >= -60 dB the evanescent copy dwarfs
        # the Gaussian tail of the main beam at the NN site center.
        for pitch in (3.0, 4.33, 6.0):
            tail_db = 10 * math.log10(math.exp(-2 * pitch**2 / 0.25))
            assert -60.0 - tail_db >= 100.0
