"""Property-based invariants (hypothesis): the non-calibrated backbone.

None of these use values calibrated against measured hardware numbers;
they pin down structural physics and numerics only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picmod.core import (
    Coupler,
    ModulatorChannel,
    MziStage,
    channel_transmission_equal,
    make_calibrated_channel,
    sweep_channel,
)
from picmod.crosstalk import Scenario, crosstalk_matrix, nearest_neighbor_graph, nn_mean_db
from picmod.dynamics import KernelKind, convolve_causal, synthesize_kernel
from picmod.noise import DetectorModel, sample_ou_path
from picmod.rng import derive_rng

from conftest import stage_matrix

splits = st.floats(0.3, 0.7)
voltages = st.floats(-500.0, 500.0, allow_nan=False)


def build_stage(split_in, split_out, v_pi=50.0):
    return MziStage(Coupler(split_in), Coupler(split_out), v_pi)


def stage_transmission(stage, v):
    return channel_transmission_equal(ModulatorChannel((stage,)), v, include_loss=False)


class TestEnergyConservation:
    @given(split_in=splits, split_out=splits, v=voltages)
    @settings(max_examples=200)
    def test_port_powers_sum_to_one(self, split_in, split_out, v):
        stage = build_stage(split_in, split_out)
        m = stage_matrix(stage, v)
        bar = abs(m[0, 0]) ** 2
        cross = abs(m[1, 0]) ** 2
        assert abs(bar + cross - 1.0) < 1e-12
        # The CROSS power is the BAR power of the stage with its output
        # split mirrored, driven half a period (v_pi = 50) further on.
        closed = stage_transmission(stage, v) + stage_transmission(
            build_stage(split_in, 1.0 - split_out), v + 50.0
        )
        assert abs(closed - 1.0) < 1e-12

    @given(split_in=splits, split_out=splits, v=voltages)
    @settings(max_examples=100)
    def test_stage_matrix_unitary(self, split_in, split_out, v):
        m = stage_matrix(build_stage(split_in, split_out), v)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


class TestDbAdditivity:
    @given(
        split=st.floats(0.45, 0.55).filter(lambda x: abs(x - 0.5) > 1e-3),
        n_stages=st.integers(1, 4),
    )
    @settings(max_examples=100)
    def test_cascade_er_is_n_times_stage_er(self, split, n_stages):
        stage = build_stage(split, split)
        ch = ModulatorChannel(stages=(stage,) * n_stages)
        floor, depth = stage.fringe
        stage_er = 10 * math.log10((floor + depth) / floor)
        assert ch.extinction_ratio_db() == pytest.approx(n_stages * stage_er, abs=0.1)


class TestNullInvariance:
    @given(k=st.floats(0.1, 10.0), v=voltages, split=splits)
    @settings(max_examples=100)
    def test_common_scaling_leaves_transmission_unchanged(self, k, v, split):
        base = make_calibrated_channel(v_pi=50.0, power_split=split, n_stages=2)
        scaled = make_calibrated_channel(v_pi=50.0 * k, power_split=split, n_stages=2)
        t0 = channel_transmission_equal(base, v, include_loss=False)
        t1 = channel_transmission_equal(scaled, v * k, include_loss=False)
        assert t0 == pytest.approx(t1, abs=1e-12)


class TestConvolutionOracle:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 256))
    @settings(max_examples=50, deadline=None)
    def test_causal_convolution_matches_direct_sum(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        k = rng.standard_normal(min(n, 32))
        got = convolve_causal(x, k)
        expected = np.array(
            [sum(x[i - m] * k[m] for m in range(min(i + 1, k.size))) for i in range(n)]
        )
        assert np.max(np.abs(got - expected)) < 1e-10


class TestOuStationarity:
    @given(sigma=st.floats(0.01, 2.0), tau=st.floats(1.0, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_stationary_std(self, sigma, tau):
        stds = [
            np.std(sample_ou_path(sigma, tau, 400 * tau, tau / 10, rng=derive_rng(s, "ou-path")))
            for s in range(8)
        ]
        assert np.mean(stds) == pytest.approx(sigma, rel=0.10)


class TestDetectorProperties:
    @given(p=st.floats(0, 1), floor=st.floats(1e-12, 1e-2))
    @settings(max_examples=100)
    def test_floor_idempotence(self, p, floor):
        det = DetectorModel(relative_floor=floor)
        once = det.measure(p)
        assert det.measure(once) == once

    @given(
        p1=st.floats(0, 1), p2=st.floats(0, 1), floor=st.floats(1e-12, 1e-2)
    )
    @settings(max_examples=100)
    def test_monotonicity(self, p1, p2, floor):
        det = DetectorModel(relative_floor=floor)
        lo, hi = min(p1, p2), max(p1, p2)
        assert det.measure(lo) <= det.measure(hi)


class TestCrosstalkProperties:
    @given(
        before=st.floats(-60, -20),
        after=st.floats(-100, -40),
        margin=st.floats(10.0, 40.0),
    )
    @settings(max_examples=50)
    def test_reciprocity_and_ordering(self, before, after, margin):
        # Calibrated regime: the channel's extinction floor lies below the
        # upstream coupling (otherwise scenario C's own leak can outweigh
        # scenario B's coupled leak and the ordering inverts).
        er_db = -before + margin
        g = nearest_neighbor_graph(6, before, after)
        t_off = 10 ** (-er_db / 10)
        ms = {s: crosstalk_matrix(g, s, 1.0, t_off, DetectorModel()) for s in Scenario}
        for m in ms.values():
            assert np.allclose(m, m.T, atol=1e-12)
        # Linear-power ordering: B >= C >= A at the NN positions.
        assert nn_mean_db(ms[Scenario.B]) >= nn_mean_db(ms[Scenario.C]) - 1e-9
        assert nn_mean_db(ms[Scenario.C]) >= nn_mean_db(ms[Scenario.A]) - 1e-9


class TestGaussianTailDominance:
    @given(pitch=st.floats(3.0, 8.0), leak_db=st.floats(-60.0, -20.0))
    @settings(max_examples=50)
    def test_leak_dominates_tail_by_100_db(self, pitch, leak_db):
        tail_db = 10 * math.log10(math.exp(-2 * pitch**2 / 0.25))
        assert leak_db - tail_db >= 100.0


class TestKernelProperties:
    @given(rise=st.floats(10e-9, 200e-9))
    @settings(max_examples=20, deadline=None)
    def test_first_order_kernel_unit_gain_and_causal(self, rise):
        resp = synthesize_kernel(KernelKind.FIRST_ORDER, rise, 1e-9)
        assert abs(resp.impulse_kernel.sum() - 1.0) < 1e-9
        # causality: an impulse at index k produces nothing before k
        x = np.zeros(64)
        x[10] = 1.0
        out = convolve_causal(x, resp.impulse_kernel)
        assert np.allclose(out[:10], 0.0)


class TestSweepDeterminism:
    def test_repeated_sweeps_bit_identical(self, channel_714):
        a = sweep_channel(channel_714, 0.0, 150.0, 101)
        b = sweep_channel(channel_714, 0.0, 150.0, 101)
        assert np.array_equal(a.transmissions, b.transmissions)
        assert a.fitted_v_pi == b.fitted_v_pi
