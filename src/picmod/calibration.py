"""The `(calibrated, report)` form of the calibrate experiment, which the
benchmark calls; the experiment itself is `experiments.run_calibrate`."""

from __future__ import annotations

from .config import ExperimentConfig
from .experiments import run_calibrate
from .reports import RunReport


def calibrate(config: ExperimentConfig) -> tuple[ExperimentConfig, RunReport]:
    """The calibrated config and the report of `run_calibrate`."""
    report, tables = run_calibrate(config)
    return tables["calibrated_config.yaml"], report
