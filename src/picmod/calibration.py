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
from .core import power_split_for_er, sweep_channel
from .noise import DetectorModel
from .reports import RunReport


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

    v_pi = chip_cfg["v_pi_volts"]
    for ch, target in zip(calibrated.channels(), chip_cfg["target_er_db"]):
        achieved = ch.extinction_ratio_db()
        sweep = sweep_channel(ch, 0.0, 2.0 * v_pi, 241, DetectorModel())
        report.add(
            f"channel_{ch.channel_index}_er",
            achieved,
            "dB",
            threshold=f"|ER - {target}| <= 0.1 dB",
            passed=abs(achieved - target) <= 0.1,
        )
        vpi_err = abs(sweep.fitted_v_pi - v_pi) / v_pi
        report.add(
            f"channel_{ch.channel_index}_v_pi",
            sweep.fitted_v_pi,
            "V",
            threshold="fit within 1% of configured v_pi",
            passed=vpi_err <= 0.01,
        )

    report.add("link_budget_mean", calibrated.link_budget_db(), "dB")
    report.add("er_mean", float(np.mean(chip_cfg["target_er_db"])), "dB")
    return calibrated, report
