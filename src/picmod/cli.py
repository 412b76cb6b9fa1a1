"""Command-line entry point.

Each experiment subcommand loads a YAML configuration (--config, with
--seed overriding its seed), runs one experiment from `picmod.experiments`
or `picmod.calibration`, writes the experiment's tables and a JSON run
report into --out, and prints the report's summary. `report` tabulates the
run reports in a directory. Exit codes: 0 all checks passed, 1 a check
failed, 2 a usage error, a configuration error or any other picmod error.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import __version__
from .calibration import calibrate as run_calibrate
from .config import ExperimentConfig
from .errors import PicmodError
from .experiments import run_beams, run_crosstalk, run_pulse, run_stability, run_sweep
from .reports import load_report
from .serialize import write_csv

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _parse_indices(option: str, spec: str, n: int) -> list[int]:
    """Index grammar: all | comma-separated indices. Raises PicmodError on
    any other spec, so the experiment runner reports it as it reports the
    experiment's own checks that the indices are in range and not empty."""
    if spec == "all":
        return list(range(n))
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise PicmodError(f"{option}: cannot parse {spec!r}")


def _parse_active(spec: str, n: int) -> list[int]:
    """Active-site grammar: all | evens | odds | comma-separated indices."""
    if spec == "evens":
        return list(range(0, n, 2))
    if spec == "odds":
        return list(range(1, n, 2))
    return _parse_indices("--active", spec, n)


config_opt = click.option("--config", required=True, type=click.Path(exists=True, dir_okay=False))
out_opt = click.option("--out", default="out", show_default=True, help="Output directory.")
seed_opt = click.option("--seed", type=int, default=None, help="Override the config seed.")


@click.group()
@click.version_option(__version__)
def main():
    """Digital twin and control stack for cascaded-MZI modulator arrays."""


def experiment(*options):
    """Register `run(cfg, **options) -> (report, tables)` as a subcommand
    with --config, --out, --seed and `options`. Once run returns, it
    creates --out, writes each table there (a config as YAML, others as
    CSV) and then the report, prints the summary, and exits 1 when a check
    failed. Any PicmodError is printed and exits 2; one raised before run
    returns (a bad config, an unparsable or out-of-range index, an
    unreachable target) leaves --out uncreated.
    """

    def register(run):
        @functools.wraps(run)
        def command(config, out, seed, **opts):
            try:
                cfg = ExperimentConfig.load(config)
                if seed is not None:
                    cfg = cfg.with_seed(seed)
                report, tables = run(cfg, **opts)
                out_dir = Path(out)
                out_dir.mkdir(parents=True, exist_ok=True)
                for name, table in tables.items():
                    if isinstance(table, ExperimentConfig):
                        table.save(out_dir / name)
                    else:
                        write_csv(out_dir / name, *table)
                report.finish()
                report.save(out_dir / f"{report.experiment_kind}_report.json")
            except PicmodError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_USAGE)
            click.echo("\n".join(report.summary_lines()))
            if not report.passed:
                sys.exit(EXIT_CHECK_FAILED)

        # Click lists options in the reverse of the order they are applied.
        for option in reversed((config_opt, out_opt, seed_opt, *options)):
            command = option(command)
        return main.command()(command)

    return register


@experiment()
def calibrate(cfg):
    """Solve coupler splits from ER targets and write a calibrated config."""
    calibrated, report = run_calibrate(cfg)
    return report, {"calibrated_config.yaml": calibrated}


@experiment(click.option("--channels", default="all", show_default=True))
def sweep(cfg, channels):
    """DC voltage sweeps: per-channel fringe CSV, fitted v_pi, and ER."""
    return run_sweep(cfg, _parse_indices("--channels", channels, cfg.data["chip"]["n_channels"]))


@experiment(
    click.option(
        "--mode",
        type=click.Choice(["naive", "optimized"]),
        default="naive",
        show_default=True,
        help="Square drive vs pre-distorted drive for the switch-off event.",
    )
)
def pulse(cfg, mode):
    """Time-resolved switch-off: optical trace and dynamic extinction."""
    return run_pulse(cfg, mode)


@experiment()
def stability(cfg):
    """Long-run bias-lock ER statistics and pulse-area noise."""
    return run_stability(cfg)


@experiment(
    click.option(
        "--scenario",
        type=click.Choice(["A", "B", "C"]),
        default="A",
        show_default=True,
        help="Victim configuration: A dark/OFF, B dark/ON, C lit/OFF.",
    )
)
def crosstalk(cfg, scenario):
    """Pairwise inter-channel leakage matrix for one measurement scenario."""
    return run_crosstalk(cfg, scenario)


@experiment(
    click.option(
        "--active",
        default="all",
        show_default=True,
        help="Active sites: all | evens | odds | comma-separated indices.",
    )
)
def beams(cfg, active):
    """Target-plane intensity profile and per-site leakage for a pattern."""
    return run_beams(cfg, _parse_active(active, cfg.data["beams"]["n_beams"]))


@main.command()
@click.argument("path", type=click.Path(exists=True))
def report(path):
    """Consolidated pass/fail table over all run reports in a directory
    (or one report file)."""
    target = Path(path)
    files = sorted(target.glob("*_report.json")) if target.is_dir() else [target]
    if not files:
        click.echo(f"error: no run reports found in {target}", err=True)
        sys.exit(EXIT_USAGE)
    runs, bad = [], []
    for f in files:
        try:
            runs.append(load_report(f))
        except PicmodError as exc:
            bad.append(exc)
    for run in runs:
        n_checked = sum(1 for m in run.metrics if m.passed is not None)
        click.echo(
            f"{'PASS' if run.passed else 'FAIL'}  {run.experiment_kind:<20} "
            f"config {run.config_hash}  {len(run.metrics)} metrics ({n_checked} checked)"
        )
        for m in run.metrics:
            if m.passed is False:
                click.echo(f"  FAIL  {m.name}: {m.value:.6g} {m.units} (require {m.threshold})")
    for exc in bad:
        click.echo(f"error: {exc}", err=True)
    if bad:
        sys.exit(EXIT_USAGE)
    if not all(run.passed for run in runs):
        sys.exit(EXIT_CHECK_FAILED)


def _run():
    try:
        main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    _run()
