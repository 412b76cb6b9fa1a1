"""Calibration routines: coupler splits from ER targets and verification.

Calibration is deterministic given the configuration: each channel's
coupler power split is solved in closed form from its extinction target,
then each channel's ER and v_pi fit are re-measured through the forward
model and checked in the run report. A missed ER target fails its check;
it does not stop the calibration.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .core import ModulatorChannel, SweepResult, power_split_for_er, sweep_channel
from .noise import DetectorModel
from .reports import RunReport


def sweep_v_pi(report: RunReport, channel: ModulatorChannel, detector) -> SweepResult:
    """Sweep the channel from 0 to 2*v_pi at 241 points through the detector,
    report its fitted v_pi, checked within 1% of v_pi, and return the sweep."""
    v_pi = channel.v_pi
    sweep = sweep_channel(channel, 0.0, 2.0 * v_pi, 241, detector)
    report.add(
        f"channel_{channel.channel_index}_v_pi",
        sweep.fitted_v_pi,
        "V",
        threshold="within 1% of configured v_pi",
        passed=abs(sweep.fitted_v_pi - v_pi) / v_pi <= 0.01,
    )
    return sweep


def calibrate(config: ExperimentConfig) -> tuple[ExperimentConfig, RunReport]:
    """Solve coupler splits for the configured ER targets and verify them.

    Returns a new configuration with coupler_power_splits frozen in, plus
    a report of achieved ER and fitted v_pi per channel and the link
    budget, which is the same for every channel.
    The sweep is read through the ideal detector, `DetectorModel()`, so the
    check is against the chip itself, not the measurement floor.
    """
    chip_cfg = config.data["chip"]
    report = RunReport("calibrate", config.hash, config.seed)

    splits = [
        power_split_for_er(er, chip_cfg["n_stages"])
        for er in chip_cfg["target_er_db"]
    ]
    data = dict(config.data)
    data["chip"] = dict(chip_cfg)
    data["chip"]["coupler_power_splits"] = [float(s) for s in splits]
    calibrated = ExperimentConfig(data)

    for ch, target in zip(calibrated.channels(), chip_cfg["target_er_db"]):
        achieved = ch.extinction_ratio_db()
        report.add(
            f"channel_{ch.channel_index}_er",
            achieved,
            "dB",
            threshold=f"|ER - {target}| <= 0.1 dB",
            passed=abs(achieved - target) <= 0.1,
        )
        sweep_v_pi(report, ch, DetectorModel())

    report.add("link_budget_mean", calibrated.link_budget_db(), "dB")
    report.add("er_mean", float(np.mean(chip_cfg["target_er_db"])), "dB")
    return calibrated, report
