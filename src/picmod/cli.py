"""Command-line entry point.

Each experiment subcommand loads a YAML configuration (--config, with
--seed overriding its seed), runs one experiment from `picmod.experiments`,
writes the experiment's tables and a JSON run report into --out, and
prints the report's summary. `report` tabulates the run reports in a
directory. Only an experiment subcommand imports the model (numpy, PyYAML
and `picmod.experiments`); --version, --help and `report` do not. Exit
codes: 0 all checks passed, 1 a check failed, 2 a usage error, a
configuration error, any other picmod error or an OSError writing --out,
3 any other exception (an internal error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import PicmodError

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


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


# Experiment subcommand -> (help, run(experiments, cfg, args) -> (report,
# tables), its options besides --config, --out and --seed as {flag: (default,
# help)}). `_experiment` imports `picmod.experiments` only when a subcommand
# runs, and each run looks its function up on that module when called.
EXPERIMENTS = {
    "calibrate": (
        "Solve coupler splits from ER targets and write a calibrated config.",
        lambda ex, cfg, args: ex.run_calibrate(cfg),
        {},
    ),
    "sweep": (
        "DC voltage sweeps: per-channel fringe CSV, fitted v_pi, and ER.",
        lambda ex, cfg, args: ex.run_sweep(
            cfg, _parse_indices("--channels", args.channels, cfg.data["chip"]["n_channels"])
        ),
        {"--channels": ("all", "Channels to sweep: all | comma-separated indices.")},
    ),
    "pulse": (
        "Time-resolved switch-off: optical trace and dynamic extinction.",
        lambda ex, cfg, args: ex.run_pulse(cfg, args.mode),
        {"--mode": ("naive", "Switch-off drive: naive (square) or optimized (pre-distorted).")},
    ),
    "stability": (
        "Long-run bias-lock ER statistics and pulse-area noise.",
        lambda ex, cfg, args: ex.run_stability(cfg),
        {},
    ),
    "crosstalk": (
        "Pairwise inter-channel leakage matrix for one measurement scenario.",
        lambda ex, cfg, args: ex.run_crosstalk(cfg, args.scenario),
        {"--scenario": ("A", "Victim configuration: A dark/OFF, B dark/ON, C lit/OFF.")},
    ),
    "beams": (
        "Target-plane intensity profile and per-site leakage for a pattern.",
        lambda ex, cfg, args: ex.run_beams(
            cfg, _parse_active(args.active, cfg.data["beams"]["n_beams"])
        ),
        {"--active": ("all", "Active sites: all | evens | odds | comma-separated indices.")},
    ),
}
REPORT_HELP = "Consolidated pass/fail table over the run reports in a directory (or one file)."


def _parser() -> argparse.ArgumentParser:
    style = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False)
    parser = argparse.ArgumentParser(
        prog="picmod",
        description="Digital twin and control stack for cascaded-MZI modulator arrays.",
        **style,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (summary, _, options) in EXPERIMENTS.items():
        sub = commands.add_parser(name, help=summary, description=summary, **style)
        sub.add_argument("--config", required=True, metavar="YAML")
        sub.add_argument("--out", default="out", help="Output directory.")
        sub.add_argument("--seed", type=int, help="Override the config seed.")
        for flag, (default, text) in options.items():
            sub.add_argument(flag, default=default, help=text)
    sub = commands.add_parser("report", help=REPORT_HELP, description=REPORT_HELP, **style)
    sub.add_argument("path")
    return parser


def _experiment(args) -> int:
    """Run args.command's experiment on --config. Once it returns, create
    --out, write each table there (a config as YAML, others as CSV) and then
    the report, print the summary, and return 1 when a check failed. A
    PicmodError raised before the experiment returns (a bad config, an
    unparsable or out-of-range index, an unreachable target) leaves --out
    uncreated."""
    from . import experiments
    from .config import ExperimentConfig
    from .serialize import write_csv
    cfg = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    report, tables = EXPERIMENTS[args.command][1](experiments, cfg, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        if isinstance(table, ExperimentConfig):
            table.save(out_dir / name)
        else:
            write_csv(out_dir / name, *table)
    report.finish()
    report.save(out_dir / f"{report.experiment_kind}_report.json")
    print("\n".join(report.summary_lines()))
    return 0 if report.passed else EXIT_CHECK_FAILED


def _report(target: Path) -> int:
    """Tabulate the reports at target; one `error:` line per unreadable one."""
    from .reports import load_report
    files = sorted(target.glob("*_report.json")) if target.is_dir() else [target]
    if not files:
        raise PicmodError(f"no run reports found in {target}")
    runs, bad = [], []
    for f in files:
        try:
            runs.append(load_report(f))
        except PicmodError as exc:
            bad.append(exc)
    for run in runs:
        n_checked = sum(1 for m in run.metrics if m.passed is not None)
        print(
            f"{'PASS' if run.passed else 'FAIL'}  {run.experiment_kind:<20} "
            f"config {run.config_hash}  {len(run.metrics)} metrics ({n_checked} checked)"
        )
        for m in run.metrics:
            if m.passed is False:
                print(f"  FAIL  {m.name}: {m.value:.6g} {m.units} (require {m.threshold})")
    for exc in bad:
        print(f"error: {exc}", file=sys.stderr)
    if bad:
        return EXIT_USAGE
    return 0 if all(run.passed for run in runs) else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit
    code. A malformed command line is argparse's: a usage block and
    SystemExit(2); --help and --version raise SystemExit(0). Every
    PicmodError, and every OSError creating or writing --out, prints one
    `error:` line on stderr and returns 2. Any other exception prints
    `error: <type>: <message>` and returns 3, so that 1 always means a
    failed check."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            return _report(Path(args.path))
        return _experiment(args)
    except (PicmodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _run():
    sys.exit(main())


if __name__ == "__main__":
    _run()
