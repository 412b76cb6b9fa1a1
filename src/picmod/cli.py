"""Command-line entry point.

Every subcommand loads a YAML configuration, runs one experiment, prints a
human-readable summary, and writes a JSON run report (plus CSV traces where
relevant) into --out. Exit codes: 0 all checks passed, 1 an experiment
check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .calibration import calibrate as run_calibrate
from .config import ExperimentConfig
from .core import sweep_channel
from .crosstalk import Scenario, crosstalk_matrix, nn_mean_db, predict_scenario_c_db
from .beams import make_beam_array, site_leakage_report, target_plane_profile
from .dynamics import Waveform, measure_rise_time, step_response_trace, trace_optical
from .errors import ConfigError, PicmodError
from .lock import noisy_pulse_experiment, run_lock
from .reports import RunReport, load_report
from .rng import derive_rng
from .serialize import write_csv, write_trace_csv
from .waveforms import (
    PredistortionProblem,
    dynamic_extinction,
    predistort,
    switch_off_target_phase,
)

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _load_config(path, seed):
    if path is None:
        raise click.UsageError("--config is required")
    try:
        cfg = ExperimentConfig.load(path)
        if seed is not None:
            cfg = cfg.with_seed(seed)
    except ConfigError as exc:
        # Configuration problems exit with the usage code (2).
        raise click.UsageError(str(exc))
    return cfg


def _parse_channels(spec: str, n: int) -> list[int]:
    if spec == "all":
        return list(range(n))
    try:
        idx = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise click.UsageError(f"--channels: cannot parse {spec!r}")
    if not idx or any(not 0 <= i < n for i in idx):
        raise click.UsageError(f"--channels: indices must lie in [0, {n - 1}]")
    return idx


def _parse_active(spec: str, n: int) -> list[int]:
    """Active-site grammar: all | evens | odds | single:<i> | i,j,k."""
    if spec == "all":
        return list(range(n))
    if spec == "evens":
        return list(range(0, n, 2))
    if spec == "odds":
        return list(range(1, n, 2))
    if spec.startswith("single:"):
        try:
            i = int(spec.split(":", 1)[1])
        except ValueError:
            raise click.UsageError(f"--active: cannot parse {spec!r}")
        if not 0 <= i < n:
            raise click.UsageError(f"--active: site {i} out of range")
        return [i]
    return _parse_channels(spec, n)


def _emit(report: RunReport, out_dir: Path, name: str) -> None:
    report.finish()
    report.save(out_dir / f"{name}_report.json")
    click.echo("\n".join(report.summary_lines()))
    if not report.passed:
        sys.exit(EXIT_CHECK_FAILED)


def _out_dir(out) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


config_opt = click.option("--config", type=click.Path(exists=True, dir_okay=False))
out_opt = click.option("--out", default="out", show_default=True, help="Output directory.")
seed_opt = click.option("--seed", type=int, default=None, help="Override the config seed.")
channels_opt = click.option("--channels", default="all", show_default=True)


@click.group()
@click.version_option(__version__)
def main():
    """Digital twin and control stack for cascaded-MZI modulator arrays."""


@main.command()
@config_opt
@out_opt
@seed_opt
def calibrate(config, out, seed):
    """Solve coupler splits from ER targets and write a calibrated config."""
    cfg = _load_config(config, seed)
    out_dir = _out_dir(out)
    calibrated, report = run_calibrate(cfg)
    calibrated.save(out_dir / "calibrated_config.yaml")
    _emit(report, out_dir, "calibrate")


@main.command()
@config_opt
@out_opt
@seed_opt
@channels_opt
def sweep(config, out, seed, channels):
    """DC voltage sweeps: per-channel fringe CSV, fitted v_pi, and ER."""
    cfg = _load_config(config, seed)
    out_dir = _out_dir(out)
    chans = _parse_channels(channels, cfg.data["chip"]["n_channels"])
    detector = cfg.sweep_detector()
    v_pi = cfg.data["chip"]["v_pi_volts"]
    report = RunReport("sweep", cfg.hash, cfg.seed)
    for ch in cfg.channels():
        if ch.channel_index not in chans:
            continue
        rng = derive_rng(cfg.seed, "sweep", "detector", str(ch.channel_index))
        result = sweep_channel(ch, 0.0, 2.0 * v_pi, 241, detector=detector, rng=rng)
        write_csv(
            out_dir / f"sweep_channel_{ch.channel_index}.csv",
            ["voltage_v", "transmission"],
            [result.voltages, result.transmissions],
        )
        vpi_err = abs(result.fitted_v_pi - v_pi) / v_pi
        report.add(
            f"channel_{ch.channel_index}_v_pi",
            result.fitted_v_pi,
            "V",
            threshold="within 1% of configured v_pi",
            passed=vpi_err <= 0.01,
        )
        suffix = " (detector floor)" if result.detector_limited else ""
        report.add(f"channel_{ch.channel_index}_er{suffix}", result.er_db, "dB")
    ers = [m.value for m in report.metrics if "_er" in m.name]
    report.add("er_mean", float(np.mean(ers)), "dB")
    report.add("er_std", float(np.std(ers)), "dB")
    _emit(report, out_dir, "sweep")


@main.command()
@config_opt
@out_opt
@seed_opt
@click.option(
    "--mode",
    type=click.Choice(["naive", "optimized"]),
    default="naive",
    show_default=True,
    help="Square drive vs pre-distorted drive for the switch-off event.",
)
def pulse(config, out, seed, mode):
    """Time-resolved switch-off: optical trace and dynamic extinction."""
    cfg = _load_config(config, seed)
    out_dir = _out_dir(out)
    channel = cfg.channels()[0]
    response = cfg.actuator()
    pd = cfg.data["predistortion"]
    settle = pd["settle_window_us"] * 1e-6
    target = pd["extinction_target"]
    dt = response.sample_period
    report = RunReport(f"pulse_{mode}", cfg.hash, cfg.seed)

    if mode == "naive":
        n_pre = max(response.impulse_kernel.size + 2, int(round(5 * response.rise_time_10_90 / dt)))
        n_post = int(round(settle / dt))
        samples = np.concatenate([np.full(n_pre, channel.v_pi), np.zeros(n_post)])
        drive = Waveform(dt, samples)
        trace = trace_optical(channel, response, drive)
        ext = dynamic_extinction(trace, n_pre * dt)
        t_floor, reached = ext.time_to(target)
        floor = float(ext.envelope[-1])
    else:
        phase, switch_time = switch_off_target_phase(response, pd["ramp_time_ns"] * 1e-9, settle)
        problem = PredistortionProblem(
            target_phase=phase,
            response=response,
            channel=channel,
            switch_time=switch_time,
            v_max=pd["v_max_over_v_pi"] * channel.v_pi,
            regularization=pd["regularization"],
            settle_window=settle,
            extinction_target=target,
        )
        solution = predistort(problem)
        drive, trace = solution.drive, solution.trace
        t_floor, reached = solution.time_to_floor, solution.converged
        floor = solution.achieved_floor
        report.add("iterations", solution.iterations, "")

    write_trace_csv(out_dir / f"pulse_{mode}_trace.csv", trace)
    write_csv(
        out_dir / f"pulse_{mode}_drive.csv",
        ["time_s", "voltage_v"],
        [drive.times(), drive.samples],
    )
    rise = measure_rise_time(
        step_response_trace(channel, response, 0.5 * channel.v_pi, 0.51 * channel.v_pi)
    )
    report.add("small_signal_rise", rise * 1e9, "ns")
    report.add(
        "extinction_floor",
        floor,
        "relative power",
        threshold=f"<= {target:g} within the settle window" if mode == "optimized" else None,
        passed=(reached and t_floor <= settle) if mode == "optimized" else None,
    )
    report.add("time_to_target", t_floor * 1e9, "ns")
    _emit(report, out_dir, f"pulse_{mode}")


@main.command()
@config_opt
@out_opt
@seed_opt
def stability(config, out, seed):
    """Long-run bias-lock ER statistics and pulse-area noise."""
    cfg = _load_config(config, seed)
    out_dir = _out_dir(out)
    channel = cfg.channels()[0]
    noise = cfg.noise_model()
    controller = cfg.lock_controller()
    detector = cfg.onchip_detector()
    duration = cfg.data["lock"]["duration_hours"] * 3600.0
    report = RunReport("stability", cfg.hash, cfg.seed)

    locked = run_lock(channel, noise, controller, duration, detector, engaged=True)
    unlocked = run_lock(channel, noise, controller, duration, detector, engaged=False)
    write_csv(
        out_dir / "lock_er_timeseries.csv",
        ["time_s", "er_locked_db", "er_unlocked_db"],
        [locked.times, locked.er_db, unlocked.er_db],
    )
    report.add("er_locked_mean", locked.er_mean_db, "dB")
    report.add("er_locked_std", locked.er_std_db, "dB")
    report.add("er_unlocked_mean", unlocked.er_mean_db, "dB")
    report.add(
        "lock_degradation",
        locked.er_mean_db - unlocked.er_mean_db,
        "dB",
        threshold=">= 20 dB locked-vs-unlocked improvement",
        passed=locked.er_mean_db - unlocked.er_mean_db >= 20.0,
    )
    report.add("locked_fraction", locked.locked_fraction, "")

    pl = cfg.data["pulse"]
    targets = cfg.data["targets"]
    short = noisy_pulse_experiment(
        channel, cfg.pulse_spec(), noise, pl["n_pulses"], n_blocks=1
    )
    long = noisy_pulse_experiment(
        channel,
        cfg.pulse_spec(block=True),
        noise,
        pl["block_n_pulses"],
        n_blocks=pl["n_blocks"],
    )
    write_csv(
        out_dir / "pulse_area_histogram.csv",
        ["bin_left", "count"],
        [short.histogram_edges[:-1], short.histogram_counts],
    )
    report.add(
        "pulse_area_std",
        short.area_std,
        "fractional",
        threshold=f"<= {2 * targets['pulse_area_std']:g}",
        passed=short.area_std <= 2 * targets["pulse_area_std"],
    )
    report.add(
        "block_area_std",
        long.mean_block_std,
        "fractional",
        threshold=f"within 50% of {targets['block_std']:g}",
        passed=abs(long.mean_block_std - targets["block_std"]) <= 0.5 * targets["block_std"],
    )
    _emit(report, out_dir, "stability")


@main.command()
@config_opt
@out_opt
@seed_opt
@click.option(
    "--scenario",
    type=click.Choice(["A", "B", "C"]),
    default="A",
    show_default=True,
    help="Victim configuration: A dark/OFF, B dark/ON, C lit/OFF.",
)
def crosstalk(config, out, seed, scenario):
    """Pairwise inter-channel leakage matrix for one measurement scenario."""
    cfg = _load_config(config, seed)
    out_dir = _out_dir(out)
    graph = cfg.crosstalk_graph()
    er_mean = float(np.mean(cfg.data["chip"]["target_er_db"]))
    t_off = 10.0 ** (-er_mean / 10.0)
    scen = Scenario(scenario)
    detector, rng = cfg.onchip_detector(), derive_rng(cfg.seed, "crosstalk", "detector")
    matrix = crosstalk_matrix(graph, scen, t_on=1.0, t_off=t_off, detector=detector, rng=rng)
    write_csv(
        out_dir / f"crosstalk_{scenario}.csv",
        [f"ch{j}" for j in range(graph.n_channels)],
        [matrix[:, j] for j in range(graph.n_channels)],
    )
    report = RunReport(f"crosstalk_{scenario}", cfg.hash, cfg.seed)
    report.add("nn_mean", nn_mean_db(matrix), "dB")
    if scen is Scenario.C:
        target_c = cfg.data["crosstalk"]["scenario_c_target_db"]
        predicted = predict_scenario_c_db(er_mean, cfg.data["crosstalk"]["nn_after_db"])
        report.add(
            "scenario_c_composed",
            predicted,
            "dB",
            threshold=f"within 3 dB of {target_c} dB",
            passed=abs(predicted - target_c) <= 3.0,
        )
    _emit(report, out_dir, f"crosstalk_{scenario}")


@main.command()
@config_opt
@out_opt
@seed_opt
@click.option(
    "--active",
    default="all",
    show_default=True,
    help="Active sites: all | evens | odds | single:<i> | comma-separated indices.",
)
def beams(config, out, seed, active):
    """Target-plane intensity profile and per-site leakage for a pattern."""
    cfg = _load_config(config, seed)
    out_dir = _out_dir(out)
    bm = cfg.data["beams"]
    sites = _parse_active(active, bm["n_beams"])
    array = make_beam_array(
        bm["n_beams"],
        sites,
        pitch=bm["pitch_d0"],
        nn_leak_db=bm["nn_leak_db"],
        measurement_floor_db=bm["floor_db"],
    )
    span = (bm["n_beams"] - 1) * bm["pitch_d0"]
    x = np.linspace(-2.0, span + 2.0, 2048)
    profile = target_plane_profile(array, x)
    write_csv(
        out_dir / "beam_profile.csv",
        ["x_over_d0", "intensity", "intensity_db"],
        [profile.x_over_d0, profile.intensity, profile.intensity_db],
    )
    report = RunReport("beams", cfg.hash, cfg.seed)
    leaks = site_leakage_report(array)
    for leak in leaks:
        name = f"site_{leak.site}_leakage" + (" (floor)" if leak.floor_limited else "")
        report.add(name, leak.reported_db, "dB")
    if leaks:
        # Worst physical case for an idle site is two coherent NN leaks:
        # doubled field amplitude, +20*log10(2) ~ 6.02 dB over one leak.
        bound = bm["nn_leak_db"] + 6.1
        worst = max(leak.reported_db for leak in leaks)
        report.add(
            "worst_idle_site",
            worst,
            "dB",
            threshold=f"<= {bound:g} dB (two coherent NN leaks)",
            passed=worst <= bound,
        )
    _emit(report, out_dir, "beams")


@main.command()
@click.argument("path", type=click.Path(exists=True))
def report(path):
    """Consolidated pass/fail table over all run reports in a directory
    (or one report file)."""
    target = Path(path)
    files = sorted(target.glob("*_report.json")) if target.is_dir() else [target]
    if not files:
        raise click.UsageError(f"no run reports found in {target}")
    any_failed = False
    bad = []
    for f in files:
        try:
            data = load_report(f)
        except (PicmodError, ValueError) as exc:
            bad.append(f"{f}: {exc}")
            continue
        status = "PASS" if data["passed"] else "FAIL"
        any_failed = any_failed or not data["passed"]
        n_checked = sum(1 for m in data["metrics"] if m["passed"] is not None)
        click.echo(
            f"{status}  {data['experiment_kind']:<20} config {data['config_hash']}  "
            f"{len(data['metrics'])} metrics ({n_checked} checked)"
        )
        for m in data["metrics"]:
            if m["passed"] is False:
                click.echo(f"  FAIL  {m['name']}: {m['value']:.6g} {m['units']}"
                           f" (require {m['threshold']})")
    for line in bad:
        click.echo(f"ERROR  {line}", err=True)
    if bad:
        sys.exit(EXIT_USAGE)
    if any_failed:
        sys.exit(EXIT_CHECK_FAILED)


def _run():
    try:
        main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except (ConfigError, PicmodError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except SystemExit:
        raise


if __name__ == "__main__":
    _run()
