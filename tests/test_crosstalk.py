"""On-chip crosstalk scenarios and composition consistency."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from picmod.crosstalk import (
    CrosstalkGraph,
    Scenario,
    crosstalk_matrix,
    nearest_neighbor_graph,
    nn_mean_db,
    predict_scenario_c_db,
)
from picmod.errors import PicmodError
from picmod.noise import DetectorModel

T_ON = 1.0
T_OFF = 10 ** (-7.14)  # 71.4 dB calibrated channel floor


# Per-pair reference: every channel's state spelled out, the victim's
# output summed path by path. crosstalk_matrix must equal it bit for bit.


@dataclass(frozen=True)
class ChannelState:
    optical_input: float  # linear power, 0 if inactive
    modulator_transmission: float  # linear

    def __post_init__(self):
        if self.optical_input < 0:
            raise PicmodError("optical_input must be >= 0")
        if not 0.0 <= self.modulator_transmission <= 1.0:
            raise PicmodError("modulator_transmission must lie in [0,1]")


def victim_output(graph, states, victim):
    """Linear power at the victim's output (incoherent sum of all paths)."""
    if len(states) != graph.n_channels:
        raise PicmodError("states length must equal n_channels")
    if not 0 <= victim < graph.n_channels:
        raise PicmodError(f"victim index {victim} out of range")
    vs = states[victim]
    out = vs.optical_input * vs.modulator_transmission
    for i, st in enumerate(states):
        if i == victim or st.optical_input == 0.0:
            continue
        leak = graph.coupling_before[i, victim] * vs.modulator_transmission
        leak += graph.coupling_after[i, victim]
        out += st.optical_input * leak
    return out


def scenario_states(scenario, aggressor, victim, n_channels, t_on, t_off):
    """State template per measurement scenario: aggressor lit and ON."""
    dark_off = ChannelState(0.0, t_off)
    states = [dark_off] * n_channels
    states[aggressor] = ChannelState(1.0, t_on)
    if scenario is Scenario.A:
        states[victim] = ChannelState(0.0, t_off)
    elif scenario is Scenario.B:
        states[victim] = ChannelState(0.0, t_on)
    else:
        states[victim] = ChannelState(1.0, t_off)
    return states


@pytest.fixture(scope="module")
def graph():
    return nearest_neighbor_graph(8, before_nn_db=-45.3, after_nn_db=-76.2)


def db(x):
    return 10 * math.log10(x)


class TestVictimOutput:
    def test_scenario_a_dark_off(self, graph):
        states = scenario_states(Scenario.A, 0, 1, 8, T_ON, T_OFF)
        out = victim_output(graph, states, 1)
        # Victim OFF blocks the upstream leak down to its own floor; the
        # downstream coupling dominates.
        assert db(out) == pytest.approx(-76.2, abs=0.1)

    def test_scenario_b_dark_on(self, graph):
        states = scenario_states(Scenario.B, 0, 1, 8, T_ON, T_OFF)
        assert db(victim_output(graph, states, 1)) == pytest.approx(-45.3, abs=0.01)

    def test_scenario_c_lit_off(self, graph):
        states = scenario_states(Scenario.C, 0, 1, 8, T_ON, T_OFF)
        expected = 10 ** (-7.14) + 10 ** (-7.62)
        assert victim_output(graph, states, 1) == pytest.approx(expected, rel=1e-3)
        assert db(victim_output(graph, states, 1)) == pytest.approx(-70.2, abs=0.1)

    def test_arity_and_range_checks(self, graph):
        states = scenario_states(Scenario.A, 0, 1, 8, T_ON, T_OFF)
        with pytest.raises(PicmodError):
            victim_output(graph, states[:4], 1)
        with pytest.raises(PicmodError):
            victim_output(graph, states, 9)


class TestCrosstalkMatrix:
    def test_scenario_a_nnn_clamped_at_floor(self, graph):
        det = DetectorModel(relative_floor=1e-8)
        m = crosstalk_matrix(graph, Scenario.A, T_ON, T_OFF, detector=det)
        nnn = [m[i, j] for i in range(8) for j in range(8) if abs(i - j) == 2]
        assert np.allclose(nnn, -80.0)

    def test_zero_coupling_graph(self):
        g = nearest_neighbor_graph(4, -300.0, -300.0, -300.0, -300.0)
        det = DetectorModel(relative_floor=1e-8)
        m = crosstalk_matrix(g, Scenario.A, T_ON, T_OFF, detector=det)
        off_diag = m[~np.eye(4, dtype=bool)]
        assert np.allclose(off_diag, -80.0)
        assert np.allclose(np.diag(m), 0.0)

    def test_reciprocity_before_clamping(self, graph):
        m = crosstalk_matrix(graph, Scenario.A, T_ON, T_OFF, DetectorModel())
        assert np.allclose(m, m.T, atol=1e-12)

    def test_scenario_ordering(self, graph):
        means = {
            s: nn_mean_db(crosstalk_matrix(graph, s, T_ON, T_OFF, DetectorModel()))
            for s in Scenario
        }
        assert means[Scenario.B] > means[Scenario.C] > means[Scenario.A]

    def test_nn_mean_matches_pairwise_value(self, graph):
        m = crosstalk_matrix(graph, Scenario.B, T_ON, T_OFF, DetectorModel())
        assert nn_mean_db(m) == pytest.approx(-45.3, abs=0.01)
        # Bit for bit the mean of the NN entries listed pair by pair, in
        # row-major order, on NN and random graphs and on matrices whose
        # entries span 16 decades, where another summation order rounds
        # differently.
        graphs = [nearest_neighbor_graph(n, -46.0, -60.0) for n in (2, 3, 8, 64)]
        graphs += [random_graph(n, seed=n) for n in (2, 5, 64)]
        mats = [
            crosstalk_matrix(g, s, T_ON, T_OFF, DetectorModel()) for g in graphs for s in Scenario
        ]
        rng = np.random.default_rng(3)
        for n in range(2, 65):
            mats.append(rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n)))
        for m in mats:
            n = m.shape[0]
            pairs = [m[i, j] for i in range(n) for j in range(n) if abs(i - j) == 1]
            assert np.float64(nn_mean_db(m)).tobytes() == np.mean(pairs).tobytes(), n


def per_pair_matrix(graph, scenario, t_on, t_off, detector):
    """Reference: one scenario_states list and victim_output call per pair."""
    n = graph.n_channels
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            states = scenario_states(scenario, i, j, n, t_on, t_off)
            rel = detector.measure(victim_output(graph, states, j) / (1.0 * t_on))
            out[i, j] = -math.inf if rel == 0.0 else 10.0 * math.log10(rel)
    return out


def random_graph(n, seed):
    """Asymmetric linear couplings (-110 to -20 dB) at every distance, some
    pairs uncoupled (exactly 0)."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        m = 10.0 ** rng.uniform(-11.0, -2.0, (n, n))
        m[rng.random((n, n)) < 0.2] = 0.0
        np.fill_diagonal(m, 0.0)
        mats.append(m)
    return CrosstalkGraph(n, *mats)


class TestClosedFormMatchesPerPairSum:
    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("floor", [0.0, 1e-8])
    @pytest.mark.parametrize("t_off", [T_OFF, 0.0])
    @pytest.mark.parametrize("which", ["nn8", "random16"])
    def test_bit_identical(self, graph, scenario, floor, t_off, which):
        g = graph if which == "nn8" else random_graph(16, seed=7)
        det = DetectorModel(relative_floor=floor)
        fast = crosstalk_matrix(g, scenario, T_ON, t_off, detector=det)
        assert np.array_equal(fast, per_pair_matrix(g, scenario, T_ON, t_off, det))

    @pytest.mark.parametrize(
        "t_on, t_off",
        [(T_ON, 1.5), (1.5, T_OFF), (T_ON, -0.1), (-0.1, T_OFF), (math.nan, T_OFF), (0.0, 0.0)],
    )
    def test_out_of_range_transmission_rejected(self, graph, t_on, t_off):
        for scenario in Scenario:
            with pytest.raises(PicmodError, match=r"must lie in \[0,1\]"):
                crosstalk_matrix(graph, scenario, t_on, t_off, DetectorModel())


class TestGraphValidation:
    def test_nonzero_diagonal_rejected(self):
        m = np.zeros((3, 3))
        bad = m.copy()
        bad[1, 1] = 1e-9
        for before, after in ((bad, m), (m, bad)):
            with pytest.raises(PicmodError, match="diagonal must be 0"):
                CrosstalkGraph(3, before, after)

    @pytest.mark.parametrize("value", [-1e-12, 1.0 + 1e-12, 10.0, math.nan, math.inf])
    def test_coupling_outside_unit_interval_rejected(self, value):
        m = np.zeros((3, 3))
        bad = m.copy()
        bad[0, 1] = value
        for before, after in ((bad, m), (m, bad)):
            with pytest.raises(PicmodError, match=r"must lie in \[0, 1\]"):
                CrosstalkGraph(3, before, after)

    def test_unit_interval_ends_accepted(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        g = CrosstalkGraph(2, m, m.T)
        assert g.coupling_before[0, 1] == 1.0 and g.coupling_after[1, 0] == 1.0

    def test_nearest_neighbor_graph_is_linear(self):
        # Each dB input converted by the scalar power 10**(dB/10), nothing
        # beyond distance 2, and an input of -inf dB is no coupling.
        g = nearest_neighbor_graph(6, -45.3, -76.2, -60.0, -math.inf)
        want_before = {1: 10.0 ** (-45.3 / 10.0), 2: 10.0 ** (-60.0 / 10.0)}
        want_after = {1: 10.0 ** (-76.2 / 10.0), 2: 0.0}
        for i in range(6):
            for j in range(6):
                assert g.coupling_before[i, j] == want_before.get(abs(i - j), 0.0)
                assert g.coupling_after[i, j] == want_after.get(abs(i - j), 0.0)

    def test_channel_state_validation(self):
        with pytest.raises(PicmodError):
            ChannelState(-1.0, 1.0)
        with pytest.raises(PicmodError):
            ChannelState(1.0, 1.5)


class TestCompositionConsistency:
    def test_prediction_from_er_and_after_coupling(self):
        predicted = predict_scenario_c_db(71.4, -76.2)
        assert predicted == pytest.approx(-70.2, abs=0.1)
