"""The experiments behind the CLI subcommands. Each `run_<name>(cfg, ...)`
returns the RunReport and the tables of one experiment and writes no file.
The CLI imports this module, and with it numpy and the model, only when an
experiment subcommand runs; --version, --help and `report` never do."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .crosstalk import Scenario, crosstalk_matrix, nn_mean_db, predict_scenario_c_db
from .beams import make_beam_array, site_leakage_report, target_plane_profile
from .calibration import calibrate, sweep_v_pi
from .dynamics import Waveform, measure_rise_time, on_hold_samples, step_response_trace
from .errors import PicmodError
from .lock import noisy_pulse_experiment, run_lock
from .reports import RunReport
from .waveforms import (
    PredistortionProblem,
    predistort,
    simulate_switch_off,
    switch_off_target_phase,
)

Tables = dict[str, tuple[list[str], list]]  # CSV file name -> (header, columns)


def run_calibrate(cfg: ExperimentConfig) -> tuple[RunReport, dict[str, ExperimentConfig]]:
    """Coupler splits solved from the ER targets (`calibration.calibrate`);
    the one table is the calibrated config, which the CLI saves as YAML."""
    calibrated, report = calibrate(cfg)
    return report, {"calibrated_config.yaml": calibrated}


def run_sweep(cfg: ExperimentConfig, channels: list[int]) -> tuple[RunReport, Tables]:
    """DC voltage sweeps of the given channels: fringe, fitted v_pi and ER."""
    n = cfg.data["chip"]["n_channels"]
    if not channels or any(not 0 <= i < n for i in channels):
        raise PicmodError(f"channels must be a non-empty list of indices in [0, {n - 1}]")
    detector = cfg.sweep_detector()
    report = RunReport("sweep", cfg.hash, cfg.seed)
    tables, ers = {}, []
    for ch in (c for c in cfg.channels() if c.channel_index in channels):
        i = ch.channel_index
        result = sweep_v_pi(report, ch, detector)
        tables[f"sweep_channel_{i}.csv"] = (
            ["voltage_v", "transmission"],
            [result.voltages, result.transmissions],
        )
        suffix = " (detector floor)" if result.detector_limited else ""
        report.add(f"channel_{i}_er{suffix}", result.er_db, "dB")
        ers.append(result.er_db)
    report.add("er_mean", float(np.mean(ers)), "dB")
    report.add("er_std", float(np.std(ers)), "dB")
    return report, tables


def run_pulse(cfg: ExperimentConfig, mode: str) -> tuple[RunReport, Tables]:
    """Switch-off of channel 0 under a "naive" (square) or "optimized" drive."""
    if mode not in ("naive", "optimized"):
        raise PicmodError(f"unknown pulse mode {mode!r}; use naive or optimized")
    channel = cfg.channels()[0]
    response = cfg.actuator()
    pd = cfg.data["predistortion"]
    settle = pd["settle_window_us"] * 1e-6
    target = pd["extinction_target"]
    dt = response.sample_period
    report = RunReport(f"pulse_{mode}", cfg.hash, cfg.seed)

    if mode == "naive":
        # A square step, v_pi to 0: its trace ends with the settle window.
        n_pre = on_hold_samples(response)
        n_post = int(round(settle / dt))
        drive = Waveform(dt, np.concatenate([np.full(n_pre, channel.v_pi), np.zeros(n_post)]))
        result = simulate_switch_off(channel, response, drive, n_pre * dt, settle, target)
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
        result = predistort(problem)

    rise = measure_rise_time(
        step_response_trace(channel, response, 0.5 * channel.v_pi, 0.51 * channel.v_pi)
    )
    report.add("small_signal_rise", rise * 1e9, "ns")
    report.add(
        "extinction_floor",
        result.achieved_floor,
        "relative power",
        threshold=f"<= {target:g} within the settle window" if mode == "optimized" else None,
        passed=result.converged if mode == "optimized" else None,
    )
    report.add("time_to_target", result.time_to_floor * 1e9, "ns")
    trace, drive = result.trace, result.drive
    tables = {
        f"pulse_{mode}_trace.csv": (["time_s", "value"], [trace.times(), trace.samples]),
        f"pulse_{mode}_drive.csv": (["time_s", "voltage_v"], [drive.times(), drive.samples]),
    }
    return report, tables


def run_stability(cfg: ExperimentConfig) -> tuple[RunReport, Tables]:
    """Long-run bias-lock ER statistics and pulse-area noise on channel 0."""
    channel = cfg.channels()[0]
    noise = cfg.noise_model()
    controller = cfg.lock_controller()
    detector = cfg.onchip_detector()
    duration = cfg.data["lock"]["duration_hours"] * 3600.0
    report = RunReport("stability", cfg.hash, cfg.seed)

    locked = run_lock(channel, noise, controller, duration, detector, engaged=True)
    unlocked = run_lock(channel, noise, controller, duration, detector, engaged=False)
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
    tables = {
        "lock_er_timeseries.csv": (
            ["time_s", "er_locked_db", "er_unlocked_db"],
            [locked.times, locked.er_db, unlocked.er_db],
        ),
        "pulse_area_histogram.csv": (
            ["bin_left", "count"],
            [short.histogram_edges[:-1], short.histogram_counts],
        ),
    }
    return report, tables


def run_crosstalk(cfg: ExperimentConfig, scenario: str) -> tuple[RunReport, Tables]:
    """Pairwise inter-channel leakage matrix for scenario "A", "B" or "C"."""
    try:
        scen = Scenario(scenario)
    except ValueError:
        raise PicmodError(f"unknown crosstalk scenario {scenario!r}; use A, B or C") from None
    graph = cfg.crosstalk_graph()
    er_mean = float(np.mean(cfg.data["chip"]["target_er_db"]))
    t_off = 10.0 ** (-er_mean / 10.0)
    matrix = crosstalk_matrix(graph, scen, t_on=1.0, t_off=t_off, detector=cfg.onchip_detector())
    report = RunReport(f"crosstalk_{scen.value}", cfg.hash, cfg.seed)
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
    header = [f"ch{j}" for j in range(graph.n_channels)]
    return report, {f"crosstalk_{scen.value}.csv": (header, list(matrix.T))}


def run_beams(cfg: ExperimentConfig, sites: list[int]) -> tuple[RunReport, Tables]:
    """Target-plane intensity profile and leakage with the given sites active."""
    bm = cfg.data["beams"]
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
    tables = {
        "beam_profile.csv": (
            ["x_over_d0", "intensity", "intensity_db"],
            [profile.x_over_d0, profile.intensity, profile.intensity_db],
        )
    }
    return report, tables
