"""Static closed-form model: stages, cascades, sweeps, budgets."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from picmod.config import ExperimentConfig
from picmod.core import (
    Coupler,
    ModulatorChannel,
    MziStage,
    channel_transmission_equal,
    db,
    make_calibrated_channel,
    power_split_for_er,
    sweep_channel,
)
from picmod.errors import PicmodError
from picmod.noise import DetectorModel

from conftest import CONFIG_DIR, coupler_matrix, stage_matrix, stage_terms


def make_stage(split_in=0.5, split_out=0.5, v_pi=74.7):
    return MziStage(Coupler(split_in), Coupler(split_out), v_pi)


def stage_transmission(stage, volts):
    """Monitored-port power of one stage: a one-stage channel without loss."""
    return channel_transmission_equal(ModulatorChannel(stage, 1), volts, include_loss=False)


class TestCoupler:
    def test_unitarity(self):
        c = Coupler(0.37)
        assert c.t**2 + c.r**2 == pytest.approx(1.0, abs=1e-15)
        m = coupler_matrix(c)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("split", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_split_rejected(self, split):
        with pytest.raises(PicmodError):
            Coupler(split)


class TestStageTransmission:
    def test_ideal_null_at_zero_volts(self):
        assert stage_transmission(make_stage(), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_ideal_half_power_at_half_v_pi(self):
        assert stage_transmission(make_stage(), 74.7 / 2) == pytest.approx(0.5, abs=1e-12)

    def test_imbalanced_null_matches_matrix_oracle(self):
        stage = make_stage(split_in=0.51, split_out=0.51)
        expected = abs(stage_matrix(stage, 0.0)[0, 0]) ** 2
        assert stage_transmission(stage, 0.0) == pytest.approx(expected, abs=1e-15)
        # Equal imbalance on both couplers: floor = (t^2 - r^2)^2 = (2*delta)^2.
        assert expected == pytest.approx((2 * 0.01) ** 2, abs=1e-12)

    @pytest.mark.parametrize("v_pi", [0.0, -1.0])
    def test_nonpositive_v_pi_rejected(self, v_pi):
        with pytest.raises(PicmodError, match="v_pi must be positive"):
            make_stage(v_pi=v_pi)

    def test_floor_and_peak_match_matrix_oracle(self):
        # The net phase is 0 at V = 0 and pi at V = v_pi: the BAR port's
        # floor and peak.
        rng = np.random.default_rng(3)
        for _ in range(200):
            v_pi = rng.uniform(10, 300)
            st = make_stage(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), v_pi)
            m = stage_matrix(st, np.array([0.0, v_pi]))
            ends = np.abs(m[:, 0, 0]) ** 2
            floor, depth = st.fringe
            assert np.max(np.abs(ends - [floor, floor + depth])) <= 1e-12

    def test_a_stage_is_two_couplers_and_v_pi(self):
        fields = [f.name for f in dataclasses.fields(MziStage)]
        assert fields == ["input_coupler", "output_coupler", "v_pi"]

    @pytest.mark.parametrize("v_pi", [10.0, 74.7, 300.0])
    def test_phase_is_pi_per_v_pi(self, v_pi):
        # No static offset: zero drive is the fringe floor, and each v_pi of
        # drive adds pi to the phase.
        st = make_stage(0.43, 0.58, v_pi=v_pi)
        floor, depth = st.fringe
        volts = np.array([-v_pi, 0.0, 0.5 * v_pi, v_pi, 2.5 * v_pi])
        want = np.array([-1.0, 0.0, 0.5, 1.0, 2.5]) * math.pi
        assert stage_transmission(st, 0.0) == floor
        got = stage_transmission(st, volts)
        assert np.max(np.abs(got - (floor + depth * np.sin(want / 2) ** 2))) <= 1e-14

    def test_stage_matrix_is_unitary(self):
        m = stage_matrix(make_stage(0.43, 0.58), 12.3)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


class TestFringe:
    def test_floor_and_depth_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            st = make_stage(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
            a, b = stage_terms(st)
            assert st.fringe == ((a - b) * (a - b), 4 * a * b)

    def test_floor_is_the_exactly_rounded_square(self):
        # (a - b) ** 2 on a Python float calls libm's pow, which misrounds
        # some squares by one ulp; the product is rounded once, exactly.
        rng = np.random.default_rng(13)
        for split_in, split_out in rng.uniform(0.01, 0.99, (20_000, 2)):
            st = make_stage(split_in, split_out)
            a, b = stage_terms(st)
            assert st.fringe[0] == float(Fraction(a - b) ** 2)

    def test_fringe_ends_are_the_stage_floor_and_peak(self):
        # sin(0) and sin(pi/2) are exactly 0 and 1, so a one-stage
        # channel's OFF and ON levels are floor and floor + depth.
        rng = np.random.default_rng(12)
        for _ in range(200):
            st = make_stage(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
            floor, depth = st.fringe
            ch = ModulatorChannel(st, 1)
            assert (ch.min_transmission(), ch.max_transmission()) == (floor, floor + depth)


def per_stage_product(channel, volts):
    """Oracle: the stage's closed form evaluated once per stage, multiplied
    in order from 1.0, as the per-stage cascade once computed it. sin^2 is
    s * s, as in `per_stage_transmission` (test_lock.py)."""
    a, b = stage_terms(channel.stage)
    out = 1.0
    for _ in range(channel.n_stages):
        s = np.sin(math.pi * np.asarray(volts, dtype=float) / channel.stage.v_pi * 0.5)
        out = out * ((a - b) * (a - b) + s * s * (4 * a * b))
    return out


class TestChannelTransmission:
    def test_two_ideal_stages_fully_on(self, ideal_channel):
        assert channel_transmission_equal(
            ideal_channel, 74.7, include_loss=False
        ) == pytest.approx(1.0, abs=1e-12)

    def test_cascade_floor_is_product_of_stage_floors(self):
        # Two stages each with a 35.7 dB standalone floor combine to 71.4 dB.
        split = 0.5 + 0.5 * 10 ** (-3.57 / 2)  # per-stage floor (2*delta)^2
        ch = make_calibrated_channel(v_pi=74.7, power_split=split, n_stages=2)
        floor = channel_transmission_equal(ch, 0.0, include_loss=False)
        assert 10 * math.log10(floor) == pytest.approx(-7.14 * 10, abs=1e-6)
        assert ch.extinction_ratio_db() == pytest.approx(71.4, abs=0.01)

    def test_insertion_loss_scales_output(self, ideal_channel):
        lossy = make_calibrated_channel(v_pi=74.7, n_stages=2, insertion_loss_db=3.0)
        lossless = channel_transmission_equal(ideal_channel, 40.0, include_loss=False)
        assert channel_transmission_equal(lossy, 40.0) == pytest.approx(
            lossless * 10 ** (-0.3), rel=1e-12
        )
        assert 10 ** (-0.3) == pytest.approx(0.501, abs=1e-3)

    @pytest.mark.parametrize("n_stages", [0, -1, True, 2.0, "2", None])
    def test_n_stages_must_be_a_positive_int(self, n_stages):
        with pytest.raises(PicmodError, match="n_stages must be an int >= 1"):
            ModulatorChannel(make_stage(0.51, 0.51), n_stages)

    def test_a_channel_is_a_stage_and_a_count(self):
        fields = [f.name for f in dataclasses.fields(ModulatorChannel)]
        assert fields == ["stage", "n_stages", "insertion_loss_db", "channel_index"]

    @pytest.mark.parametrize("n_stages", [1, 2, 8])
    def test_stages_view_repeats_the_stage(self, n_stages):
        # perfbench's `split_of` reads stages[0].input_coupler.power_split.
        ch = make_calibrated_channel(74.7, 0.5003, n_stages)
        assert ch.stages == (ch.stage,) * ch.n_stages
        assert len(ch.stages) == n_stages
        assert ch.stages[0].input_coupler.power_split == 0.5003

    def test_balanced_channel_er_raises(self, ideal_channel):
        # A null of exactly 0 has no finite ER.
        with pytest.raises(PicmodError, match="channel 0's null is 0"):
            ideal_channel.extinction_ratio_db()

    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    def test_cascade_equals_per_stage_product(self, n_stages):
        # Bit for bit: one fringe, multiplied in order, is the per-stage
        # product.
        rng = np.random.default_rng(n_stages)
        for _ in range(50):
            st = make_stage(
                rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(10, 300)
            )
            ch = ModulatorChannel(st, n_stages)
            volts = rng.uniform(-400, 400, 257)
            got = channel_transmission_equal(ch, volts, include_loss=False)
            assert np.array_equal(got, per_stage_product(ch, volts))
            assert channel_transmission_equal(ch, volts[0], include_loss=False) == (
                per_stage_product(ch, volts[0])
            )
            stage_floor, depth = st.fringe
            floor = ceiling = 1.0
            for _ in range(n_stages):
                floor, ceiling = floor * stage_floor, ceiling * (stage_floor + depth)
            assert (ch.min_transmission(), ch.max_transmission()) == (floor, ceiling)

    def test_matrix_chain_oracle(self):
        # Complex matrix-chain product over random channels and array
        # drives: the stage's matrix, cascaded n_stages times.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n_stages = int(rng.integers(1, 5))
            stage = make_stage(
                split_in=rng.uniform(0.3, 0.7),
                split_out=rng.uniform(0.3, 0.7),
                v_pi=rng.uniform(10, 300),
            )
            ch = ModulatorChannel(stage, n_stages)
            volts = rng.uniform(-200, 200, 4)
            got = channel_transmission_equal(ch, volts, include_loss=False)
            m = stage_matrix(ch.stage, volts)
            expected = np.abs(m[:, 0, 0]) ** 2
            expected = np.prod([expected] * ch.n_stages, axis=0)
            assert np.max(np.abs(got - expected)) <= 1e-12


class TestShippedChannelLevels:
    PHASES = (0.0, 1e-3, 0.0143, 0.3, math.pi)

    def test_power_at_phase_matches_mpmath(self, shipped_channels):
        # The reference is the cos form at 50 digits, from the same double
        # a, b and phi; near the null the cos form cancels in doubles.
        assert len(shipped_channels) == 24
        worst = 0.0
        for ch in shipped_channels:
            a, b = stage_terms(ch.stage)
            for phi in self.PHASES:
                with mpmath.workdps(50):
                    a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
                    stage = a_**2 + b_**2 - 2 * a_ * b_ * mpmath.cos(mpmath.mpf(phi))
                    want = stage**ch.n_stages
                    err = abs((mpmath.mpf(float(ch.power_at_phase(phi))) - want) / want)
                worst = max(worst, float(err))
        assert worst <= 1e-15

    def test_off_and_on_levels_are_power_at_0_and_pi(self, shipped_channels):
        for ch in shipped_channels:
            assert ch.min_transmission() == ch.power_at_phase(0.0)
            assert ch.max_transmission() == ch.power_at_phase(math.pi)


class TestSweepChannel:
    def test_calibrated_795_channel(self, channel_714):
        res = sweep_channel(channel_714, 0.0, 2 * 74.7, 241, DetectorModel())
        assert res.er_db == pytest.approx(71.4, abs=0.1)
        assert res.fitted_v_pi == pytest.approx(74.7, rel=1e-3)

    def test_fit_diagnostics_are_v_pi_and_residual(self, channel_714):
        # A noiseless sweep of the closed form leaves an RMS misfit far
        # below full scale, and the fit reports no bias phase: the model
        # has none.
        res = sweep_channel(channel_714, 0.0, 2 * 74.7, 241, DetectorModel())
        assert 0.0 <= res.fit_residual < 1e-6
        assert not hasattr(res, "fitted_bias_phase")

    def test_calibrated_1013_channel(self):
        split = power_split_for_er(61.5, n_stages=2)
        ch = make_calibrated_channel(v_pi=200.0, power_split=split, n_stages=2)
        res = sweep_channel(ch, 0.0, 400.0, 241, DetectorModel())
        assert res.er_db == pytest.approx(61.5, abs=0.1)
        assert res.fitted_v_pi == pytest.approx(200.0, rel=1e-3)

    def test_420_channel_through_detector_floor(self):
        split = power_split_for_er(70.0, n_stages=2)
        ch = make_calibrated_channel(v_pi=44.4, power_split=split, n_stages=2)
        det = DetectorModel(relative_floor=10 ** (-42.4 / 10))
        res = sweep_channel(ch, 0.0, 88.8, 241, detector=det)
        assert res.er_db == pytest.approx(42.4, abs=1e-9)
        assert res.detector_limited
        assert res.fitted_v_pi == pytest.approx(44.4, rel=0.01)

    def test_floor_not_reached_is_not_detector_limited(self, channel_714):
        det = DetectorModel(relative_floor=1e-8)
        res = sweep_channel(channel_714, 0.0, 2 * 74.7, 241, detector=det)
        assert res.er_db == pytest.approx(71.4, abs=0.1)
        assert not res.detector_limited

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_sweep_keeps_its_bytes(self, nm):
        # The ideal read is the fringe over its peak. A floored read equals
        # the earlier two-step one: floor the normalized fringe, scale it
        # back by the peak, and normalize again.
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        detectors = [DetectorModel(), cfg.sweep_detector(), cfg.onchip_detector()]
        for ch in cfg.channels():
            volts = np.linspace(0.0, 2 * ch.v_pi, 241)
            p = channel_transmission_equal(ch, volts, include_loss=False)
            for det in detectors:
                res = sweep_channel(ch, 0.0, 2 * ch.v_pi, 241, det)
                floored = np.maximum(p / p.max(), det.relative_floor)
                scaled = floored * p.max()
                assert res.transmissions.tobytes() == (scaled / scaled.max()).tobytes()
                assert res.detector_limited == (floored.min() <= det.relative_floor)
            ideal = sweep_channel(ch, 0.0, 2 * ch.v_pi, 241, DetectorModel())
            assert ideal.transmissions.tobytes() == (p / p.max()).tobytes()

    def test_perfect_null_without_floor_rejected(self, ideal_channel):
        # Balanced couplers null exactly at V = 0; a zero-floor detector
        # reads that null as 0, which the ER would divide by. A positive
        # floor reads it as the floor.
        message = "^channel 0's sweep null reads 0: it needs a positive relative_floor$"
        with pytest.raises(PicmodError, match=message):
            sweep_channel(ideal_channel, 0.0, 2 * 74.7, 241, DetectorModel())
        res = sweep_channel(ideal_channel, 0.0, 2 * 74.7, 241, DetectorModel(1e-8))
        assert res.detector_limited
        assert res.er_db == pytest.approx(80.0, abs=1e-9)

    def test_sweep_grid_validation(self, ideal_channel):
        with pytest.raises(PicmodError):
            sweep_channel(ideal_channel, 0.0, 1.0, 2, DetectorModel())
        with pytest.raises(PicmodError):
            sweep_channel(ideal_channel, 1.0, 0.0, 11, DetectorModel())

    def test_null_location_invariance(self, channel_714):
        # Scaling v_pi and all drives by the same factor changes nothing.
        k = 3.7
        split = power_split_for_er(71.4, n_stages=2)
        scaled = make_calibrated_channel(v_pi=74.7 * k, power_split=split, n_stages=2)
        volts = np.linspace(0, 2 * 74.7, 101)
        base = channel_transmission_equal(channel_714, volts, include_loss=False)
        got = channel_transmission_equal(scaled, volts * k, include_loss=False)
        assert np.allclose(base, got, atol=1e-15, rtol=0)


def with_chip(config, **chip):
    data = dict(config.data)
    data["chip"] = {**data["chip"], **chip}
    return ExperimentConfig(data)


class TestLinkBudget:
    def test_shipped_default_795(self, config_795):
        assert config_795.link_budget_db() == pytest.approx(10.5)

    def test_shipped_default_420(self, config_420):
        assert config_420.link_budget_db() == pytest.approx(14.6)

    def test_zero_loss_config(self, config_795):
        zero = with_chip(
            config_795, coupling_loss_db=0.0, propagation_loss_db_per_cm=0.0,
            path_length_cm=0.0, insertion_loss_db=0.0,
        )
        assert zero.link_budget_db() == 0.0

    def test_monotone_in_each_term(self, config_795):
        chip = config_795.data["chip"]
        for key in ("coupling_loss_db", "propagation_loss_db_per_cm", "path_length_cm",
                    "insertion_loss_db"):
            raised = with_chip(config_795, **{key: chip[key] + 1.0})
            assert raised.link_budget_db() > config_795.link_budget_db(), key


class TestPowerSplitForEr:
    def test_known_two_stage_value(self):
        # ER_db = -20*n*log10(2*delta) for equal imbalance on all couplers.
        split = power_split_for_er(71.4, n_stages=2)
        delta = split - 0.5
        assert -40 * math.log10(2 * delta) == pytest.approx(71.4, abs=1e-6)

    @pytest.mark.parametrize("n_stages", range(1, 9))
    def test_built_channel_meets_target(self, n_stages):
        # The bracket delta in [1e-4, 0.25] spans 6.02*n to 73.98*n dB.
        for target in np.linspace(6.1 * n_stages, 73.9 * n_stages, 25):
            split = power_split_for_er(float(target), n_stages)
            er = make_calibrated_channel(1.0, split, n_stages).extinction_ratio_db()
            assert abs(er - target) <= 1e-9

    def test_unachievable_target_rejected(self):
        with pytest.raises(PicmodError, match="target ER 200.0 dB above the 2-stage maximum"):
            power_split_for_er(200.0, n_stages=2)

    @pytest.mark.parametrize(
        "target, n_stages, match",
        [(74.0, 1, r"above the 1-stage maximum for the imbalance bracket \(74\.0 dB\)"),
         (592.0, 8, "above the 8-stage maximum"),
         (12.0, 2, r"below the bracket minimum \(12\.0 dB\)")],
        ids=["above-1-stage", "above-8-stage", "below-2-stage"],
    )
    def test_bracket_edges(self, target, n_stages, match):
        with pytest.raises(PicmodError, match=match):
            power_split_for_er(target, n_stages=n_stages)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(PicmodError, match="target ER must be positive"):
            power_split_for_er(-5.0)


def scalar_db(ratio):
    """Oracle: 10*log10 of one ratio, -inf at 0."""
    return -math.inf if ratio == 0.0 else 10 * math.log10(ratio)


class TestDb:
    def test_float_gives_a_float(self):
        for ratio in (1.0, 2.0, 1e-7, 0.0, np.float64(3.5)):
            got = db(ratio)
            assert type(got) is float and got == scalar_db(float(ratio))
        assert db(0.0) == -math.inf

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 0)])
    def test_array_keeps_its_shape(self, shape):
        ratios = np.random.default_rng(38).uniform(0.0, 2.0, shape)
        got = db(ratios)
        assert type(got) is np.ndarray and got.shape == shape and got.dtype == float
        want = [scalar_db(r) for r in ratios.ravel().tolist()]
        assert got.ravel().tolist() == want

    def test_zeros_are_minus_inf(self):
        got = db(np.array([[0.0, 1.0], [10.0, 0.0]]))
        assert got.tolist() == [[-math.inf, 0.0], [10.0, -math.inf]]

    def test_random_ratios_bit_equal_to_math_log10(self):
        # Log-uniform over 600 decades, where numpy's array log10 and the
        # scalar one can round the last bit apart.
        rng = np.random.default_rng(3801)
        ratios = 10.0 ** rng.uniform(-300.0, 300.0, 10_000)
        got = db(ratios)
        want = np.array([10 * math.log10(r) for r in ratios.tolist()])
        assert got.tobytes() == want.tobytes()
        assert [db(r) for r in ratios.tolist()] == want.tolist()
