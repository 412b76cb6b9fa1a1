"""Closed-form model of cascaded-MZI modulator channels.

A stage is a Mach-Zehnder interferometer: an input coupler, two arms and
an output coupler. The drive reaches one arm, so the arms differ by one
net phase, phi(V) = pi*V/v_pi (`channel_transmission_equal`). With light
in on port 0, a stage's power on the monitored BAR port is

    a^2 + b^2 - 2ab * cos(phi) = (a - b)^2 + 4ab * sin^2(phi/2)

where a = t_in*t_out and b = r_in*r_out (coupler amplitudes). The second
form (`MziStage.fringe`: floor (a - b)^2, depth 4ab) does not cancel near
the null, so it is the one evaluated. Finite extinction comes from coupler
power-split imbalance, and the floor inverts exactly: `power_split_for_er`
solves it for the split that gives a target ER.

A channel is one stage repeated n times, every stage at the same phase,
plus one lumped insertion loss. Its power is the stage power multiplied
n times in order, f*f*...*f (`ModulatorChannel.power_at_phase`), and its
OFF and ON levels are that power at phi = 0 and pi. The complex 2x2
matrix chain this form is derived from is kept in the tests as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PicmodError
from .fitting import fit_v_pi

# Smallest coupler imbalance power_split_for_er returns.
MIN_IMBALANCE = 1e-4


def db(ratio):
    """10*log10 of a power ratio, or of each ratio in an array (same shape),
    by scalar math.log10: numpy's array log10 can round the last bit apart
    from it, and differently on different CPUs. A ratio of 0 gives -inf."""
    flat = np.ravel(ratio).tolist()
    levels = np.fromiter(
        (-math.inf if r == 0.0 else 10.0 * math.log10(r) for r in flat), float, len(flat)
    ).reshape(np.shape(ratio))
    return levels if isinstance(ratio, np.ndarray) else float(levels)


@dataclass(frozen=True)
class Coupler:
    """2x2 directional coupler with power split ratio in (0, 1)."""

    power_split: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.power_split < 1.0:
            raise PicmodError(f"power_split must lie in (0,1), got {self.power_split}")

    @property
    def t(self) -> float:
        return math.sqrt(1.0 - self.power_split)

    @property
    def r(self) -> float:
        return math.sqrt(self.power_split)


@dataclass(frozen=True)
class MziStage:
    """One Mach-Zehnder stage: two couplers and the arms' net phase
    pi*V/v_pi, monitored on the BAR port."""

    input_coupler: Coupler
    output_coupler: Coupler
    v_pi: float

    def __post_init__(self):
        if self.v_pi <= 0:
            raise PicmodError(f"v_pi must be positive, got {self.v_pi}")

    @property
    def fringe(self) -> tuple[float, float]:
        """(floor, depth): BAR-port power floor + depth*sin^2(phi/2)."""
        cin, cout = self.input_coupler, self.output_coupler
        a, b = cin.t * cout.t, cin.r * cout.r
        return (a - b) * (a - b), 4.0 * a * b


@dataclass(frozen=True)
class ModulatorChannel:
    """One MZI stage repeated n_stages times, plus lumped insertion loss."""

    stage: MziStage
    n_stages: int
    insertion_loss_db: float = 0.0
    channel_index: int = 0

    def __post_init__(self):
        if type(self.n_stages) is not int or self.n_stages < 1:  # rejects a bool too
            raise PicmodError(f"n_stages must be an int >= 1, got {self.n_stages!r}")
        if self.insertion_loss_db < 0:
            raise PicmodError("insertion_loss_db must be >= 0")

    @property
    def stages(self) -> tuple[MziStage, ...]:
        # The stage repeated n_stages times; its one reader is perfbench/warm.py:62.
        return (self.stage,) * self.n_stages

    @property
    def v_pi(self) -> float:
        return self.stage.v_pi

    def power_at_phase(self, phi):
        """Lossless power with every stage at net phase phi (radians).

        The stage fringe floor + depth*sin^2(phi/2) is evaluated once, in
        place in one array (a scalar phi gives a 0-d array), and multiplied
        n_stages times left to right, f*f*...*f, as the stages are
        traversed; f**n rounds differently. The product is one more array
        whatever the stage count.
        """
        floor, depth = self.stage.fringe
        f = np.multiply(phi, 0.5, out=np.empty(np.shape(phi)))
        np.sin(f, out=f)
        f *= f
        f *= depth
        f += floor
        if self.n_stages == 1:
            return f
        out = f * f
        for _ in range(self.n_stages - 2):
            out *= f
        return out

    def min_transmission(self) -> float:
        """OFF level: the lossless power at the null, phi = 0."""
        return float(self.power_at_phase(0.0))

    def max_transmission(self) -> float:
        """ON level: the lossless power at the peak, phi = pi."""
        return float(self.power_at_phase(math.pi))

    def extinction_ratio_db(self) -> float:
        null = self.min_transmission()
        if null == 0.0:
            raise PicmodError(f"channel {self.channel_index}'s null is 0: its ER is unbounded")
        return db(self.max_transmission() / null)


def channel_transmission_equal(channel: ModulatorChannel, voltage, include_loss=True):
    """Channel power transmission for one drive voltage on every stage.

    ``voltage`` may be a scalar or an array; every stage sees the net phase
    pi*V/v_pi, and the lumped insertion loss is applied last.
    """
    out = channel.power_at_phase(math.pi * np.asarray(voltage, dtype=float) / channel.v_pi)
    if include_loss:
        out = out * 10.0 ** (-channel.insertion_loss_db / 10.0)
    return out


@dataclass(frozen=True)
class SweepResult:
    """Voltage sweep of a channel, normalized to the sweep maximum."""

    voltages: np.ndarray
    transmissions: np.ndarray
    er_db: float
    fitted_v_pi: float
    fit_residual: float = float("nan")
    detector_limited: bool = False
    channel_index: int = 0


def sweep_channel(
    channel: ModulatorChannel,
    v_start: float,
    v_stop: float,
    n_points: int,
    detector,
) -> SweepResult:
    """Sweep the channel over a uniform voltage grid (equal drive per stage).

    Every point is normalized to the sweep maximum and read through the
    detector, floored at its relative_floor; `DetectorModel()` is the
    ideal detector. The reported ER is the measured one, and the sweep is
    `detector_limited` when its lowest reading is at or below the floor.
    A lowest reading of 0, which the ER would divide by, raises
    PicmodError.
    """
    if n_points < 3:
        raise PicmodError("n_points must be >= 3")
    if not v_start < v_stop:
        raise PicmodError("v_start must be < v_stop")
    volts = np.linspace(v_start, v_stop, n_points)
    p = channel_transmission_equal(channel, volts, include_loss=False)
    trans = detector.measure(p / np.max(p))
    low = np.min(trans)
    if low == 0.0:
        raise PicmodError(
            f"channel {channel.channel_index}'s sweep null reads 0: "
            "it needs a positive relative_floor"
        )
    er_db = db(np.max(trans) / low)
    # The cascade fringe is the per-stage sin^2 raised to the stage
    # count; fit the per-stage fringe on the n-th root.
    fitted = fit_v_pi(volts, trans ** (1.0 / channel.n_stages))
    return SweepResult(
        voltages=volts,
        transmissions=trans,
        er_db=er_db,
        fitted_v_pi=fitted.v_pi,
        fit_residual=fitted.residual,
        detector_limited=bool(low <= detector.relative_floor),
        channel_index=channel.channel_index,
    )


def make_calibrated_channel(
    v_pi: float,
    power_split: float = 0.5,
    n_stages: int = 2,
    insertion_loss_db: float = 0.0,
    channel_index: int = 0,
) -> ModulatorChannel:
    """Build a channel of n_stages stages with a given coupler imbalance.

    The monitored BAR port sits at its null at V = 0.
    """
    coupler = Coupler(power_split)
    stage = MziStage(coupler, coupler, v_pi)
    return ModulatorChannel(stage, n_stages, insertion_loss_db, channel_index)


def power_split_for_er(target_er_db: float, n_stages: int = 2) -> float:
    """Coupler power split whose imbalance yields the target channel ER.

    With imbalance delta = power_split - 0.5 on every coupler a stage's
    floor is (2*delta)^2 of its unit peak, so the channel ER is
    -20*n_stages*log10(2*delta) and delta = 0.5*10^(-ER/(20*n_stages)).
    Targets whose delta falls outside [MIN_IMBALANCE, 0.25] raise
    PicmodError.
    """
    if target_er_db <= 0:
        raise PicmodError("target ER must be positive")

    def er_of(delta: float) -> float:
        return -20.0 * n_stages * math.log10(2.0 * delta)

    lo, hi = MIN_IMBALANCE, 0.25 - 1e-12
    if er_of(lo) < target_er_db:
        raise PicmodError(
            f"target ER {target_er_db} dB above the {n_stages}-stage maximum "
            f"for the imbalance bracket ({er_of(lo):.1f} dB)"
        )
    if er_of(hi) > target_er_db:
        raise PicmodError(
            f"target ER {target_er_db} dB below the bracket minimum ({er_of(hi):.1f} dB)"
        )
    return 0.5 + 0.5 * 10.0 ** (-target_er_db / (20.0 * n_stages))
