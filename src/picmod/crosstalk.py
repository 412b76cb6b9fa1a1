"""On-chip inter-channel leakage model.

Each channel pair carries two coupling coefficients: power injected
upstream of the victim's modulator (attenuated by the victim's modulator
state) and power injected downstream of it (always passed). On-chip
contributions add incoherently; the three standard measurement scenarios
differ only in the victim's optical input and modulator state.

`crosstalk_matrix` evaluates every aggressor/victim pair at once from the
closed form (in_v*T_v + lin(before)*T_v + lin(after)) / t_on. The tests
spell the same sum out channel by channel, one pair at a time, as its
reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError

NEG_INF = float("-inf")


class Scenario(enum.Enum):
    """Victim configuration: A = dark/OFF, B = dark/ON, C = lit/OFF."""

    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class CrosstalkGraph:
    """Pairwise dB power couplings, split by injection point."""

    n_channels: int
    coupling_before_db: np.ndarray  # [i][j]: i leaks into j upstream of j's modulator
    coupling_after_db: np.ndarray  # [i][j]: downstream of j's modulator

    def __post_init__(self):
        for name in ("coupling_before_db", "coupling_after_db"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape != (self.n_channels, self.n_channels):
                raise PicmodError(f"{name} must be {self.n_channels}x{self.n_channels}")
            if not np.all(np.isneginf(np.diag(m))):
                raise PicmodError(f"{name} diagonal must be -inf (no self-coupling)")
            if np.any(m > 0):
                raise PicmodError(f"{name} entries must be <= 0 dB")


def nearest_neighbor_graph(
    n_channels: int,
    before_nn_db: float,
    after_nn_db: float,
    before_nnn_db: float = -90.0,
    after_nnn_db: float = -90.0,
) -> CrosstalkGraph:
    """Symmetric graph with NN and NNN couplings, nothing beyond."""
    before = np.full((n_channels, n_channels), NEG_INF)
    after = np.full((n_channels, n_channels), NEG_INF)
    for i in range(n_channels):
        for j in range(n_channels):
            if abs(i - j) == 1:
                before[i, j] = before_nn_db
                after[i, j] = after_nn_db
            elif abs(i - j) == 2:
                before[i, j] = before_nnn_db
                after[i, j] = after_nnn_db
    return CrosstalkGraph(n_channels, before, after)


def _lin(db: float) -> float:
    return 0.0 if db == NEG_INF else 10.0 ** (db / 10.0)


def _lin_matrix(db: np.ndarray) -> np.ndarray:
    # Entry by entry: numpy's array power can differ from the scalar one in
    # the last bit, and the matrix must equal the per-pair sum.
    return np.array([_lin(v) for v in db.ravel().tolist()]).reshape(db.shape)


def crosstalk_matrix(
    graph: CrosstalkGraph,
    scenario: Scenario,
    t_on: float = 1.0,
    t_off: float = 0.0,
    detector=None,
) -> np.ndarray:
    """Pairwise victim outputs in dB relative to the aggressor ON output.

    Diagonal entries are 0 dB (the aggressor itself). With a detector the
    values are read through it, floored at its relative_floor.
    """
    if not (0.0 < t_on <= 1.0 and 0.0 <= t_off <= 1.0):
        raise PicmodError("t_off must lie in [0,1] and t_on in (0,1]")
    # Every pair sees the aggressor lit (unit input) and ON, the victim in
    # the scenario's (optical input, transmission), and the others dark.
    in_v, t_v = {
        Scenario.A: (0.0, t_off),
        Scenario.B: (0.0, t_on),
        Scenario.C: (1.0, t_off),
    }[scenario]
    lin_before = _lin_matrix(graph.coupling_before_db)
    lin_after = _lin_matrix(graph.coupling_after_db)
    leak = lin_before * t_v + lin_after
    out_v = in_v * t_v + leak
    rel = out_v / t_on
    if detector is not None:
        rel = detector.measure(rel)
    out = np.array(
        [NEG_INF if r == 0.0 else 10.0 * math.log10(r) for r in rel.ravel().tolist()]
    ).reshape(rel.shape)
    np.fill_diagonal(out, 0.0)
    return out


def nn_mean_db(matrix: np.ndarray) -> float:
    """Mean of the nearest-neighbor entries of a dB crosstalk matrix."""
    n = matrix.shape[0]
    vals = [matrix[i, j] for i in range(n) for j in range(n) if abs(i - j) == 1]
    return float(np.mean(vals))


def predict_scenario_c_db(er_db: float, after_nn_db: float) -> float:
    """Scenario-C NN level composed from the victim's own ER and the
    downstream coupling alone (incoherent sum)."""
    return 10.0 * math.log10(10.0 ** (-er_db / 10.0) + 10.0 ** (after_nn_db / 10.0))
