"""On-chip inter-channel leakage model.

Each channel pair carries two coupling coefficients, linear fractions of
the aggressor's power: power injected upstream of the victim's modulator
(attenuated by the victim's modulator state) and power injected
downstream of it (always passed). Couplings are given in dB and converted
once, when the graph is built. On-chip contributions add incoherently;
the three standard measurement scenarios differ only in the victim's
optical input and modulator state.

`crosstalk_matrix` evaluates every aggressor/victim pair at once from the
closed form (in_v*T_v + before*T_v + after) / t_on and reports it in dB.
The tests spell the same sum out channel by channel, one pair at a time,
as its reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError

class Scenario(enum.Enum):
    """Victim configuration: A = dark/OFF, B = dark/ON, C = lit/OFF."""

    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class CrosstalkGraph:
    """Pairwise linear power couplings in [0, 1], split by injection point."""

    n_channels: int
    coupling_before: np.ndarray  # [i][j]: i leaks into j upstream of j's modulator
    coupling_after: np.ndarray  # [i][j]: downstream of j's modulator

    def __post_init__(self):
        for name in ("coupling_before", "coupling_after"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape != (self.n_channels, self.n_channels):
                raise PicmodError(f"{name} must be {self.n_channels}x{self.n_channels}")
            if np.any(np.diag(m) != 0.0):
                raise PicmodError(f"{name} diagonal must be 0 (no self-coupling)")
            if not np.all((m >= 0.0) & (m <= 1.0)):
                raise PicmodError(f"{name} entries must lie in [0, 1]")


def nearest_neighbor_graph(
    n_channels: int,
    before_nn_db: float,
    after_nn_db: float,
    before_nnn_db: float = -90.0,
    after_nnn_db: float = -90.0,
) -> CrosstalkGraph:
    """Symmetric graph with NN and NNN couplings given in dB, nothing beyond."""
    dist = np.abs(np.subtract.outer(np.arange(n_channels), np.arange(n_channels)))

    def couplings(nn_db, nnn_db):
        return np.select([dist == 1, dist == 2], [10.0 ** (nn_db / 10.0), 10.0 ** (nnn_db / 10.0)])

    return CrosstalkGraph(
        n_channels, couplings(before_nn_db, before_nnn_db), couplings(after_nn_db, after_nnn_db)
    )


def crosstalk_matrix(
    graph: CrosstalkGraph,
    scenario: Scenario,
    t_on: float,
    t_off: float,
    detector,
) -> np.ndarray:
    """Pairwise victim outputs in dB relative to the aggressor ON output.

    Diagonal entries are 0 dB (the aggressor itself). Every value is read
    through the detector, floored at its relative_floor; `DetectorModel()`
    is the ideal detector.
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
    leak = graph.coupling_before * t_v + graph.coupling_after
    out_v = in_v * t_v + leak
    rel = detector.measure(out_v / t_on)
    out = np.array(
        [-math.inf if r == 0.0 else 10.0 * math.log10(r) for r in rel.ravel().tolist()]
    ).reshape(rel.shape)
    np.fill_diagonal(out, 0.0)
    return out


def nn_mean_db(matrix: np.ndarray) -> float:
    """Mean of the nearest-neighbor entries of a dB crosstalk matrix."""
    n = matrix.shape[0]
    if n < 2:
        raise PicmodError(f"a {n}-channel crosstalk matrix has no nearest-neighbor pair")
    # m[k, k+1] then m[k+1, k] for each k is the NN entries' row-major order,
    # so the mean rounds as one over the entries listed row by row does.
    pairs = np.column_stack([np.diagonal(matrix, 1), np.diagonal(matrix, -1)])
    return float(np.mean(pairs.ravel()))


def predict_scenario_c_db(er_db: float, after_nn_db: float) -> float:
    """Scenario-C NN level composed from the victim's own ER and the
    downstream coupling alone (incoherent sum)."""
    return 10.0 * math.log10(10.0 ** (-er_db / 10.0) + 10.0 ** (after_nn_db / 10.0))
