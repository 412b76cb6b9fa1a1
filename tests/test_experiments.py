"""Experiments as library functions: a report and tables, and no files."""

import collections
import copy
import itertools
import math

import numpy as np
import pytest

from picmod.config import ExperimentConfig
from picmod.errors import PicmodError
from picmod.experiments import run_calibrate, run_crosstalk, run_pulse, run_stability, run_sweep
from picmod.dynamics import Waveform, on_hold_samples, trace_optical
from picmod.waveforms import dynamic_extinction, simulate_switch_off, switch_off_target_phase


def test_experiments_return_tables_and_write_no_files(config_1013, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # At 1013 nm scenario C composes to -61.4 dB against a -68 dB target.
    report, tables = run_crosstalk(config_1013, "C")
    assert not report.passed
    assert list(tables) == ["crosstalk_C.csv"]
    report, tables = run_sweep(config_1013, [0, 1])
    assert report.passed
    assert list(tables) == ["sweep_channel_0.csv", "sweep_channel_1.csv"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("nm", [420, 795, 1013])
def test_calibrate_and_sweep_check_v_pi_alike(nm, request):
    # The same check, whichever detector reads the sweep.
    cfg = request.getfixturevalue(f"config_{nm}")
    n = cfg.data["chip"]["n_channels"]
    rows = [
        [(m.name, m.units, m.threshold) for m in report.metrics if m.name.endswith("_v_pi")]
        for report in (run_calibrate(cfg)[0], run_sweep(cfg, list(range(n)))[0])
    ]
    assert rows[0] == rows[1]
    assert [name for name, _, _ in rows[0]] == [f"channel_{i}_v_pi" for i in range(n)]


@pytest.mark.parametrize("channels", [[], [99], [0, 8], [-1]])
def test_sweep_rejects_channels_outside_the_chip(config_795, channels):
    with pytest.raises(PicmodError, match="indices in"):
        run_sweep(config_795, channels)


def test_crosstalk_rejects_unknown_scenario(config_795):
    with pytest.raises(PicmodError, match="scenario"):
        run_crosstalk(config_795, "c")


@pytest.mark.parametrize("mode", ["Naive", "optimised", ""])
def test_pulse_rejects_unknown_mode(config_795, mode):
    with pytest.raises(PicmodError, match="pulse mode"):
        run_pulse(config_795, mode)


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_pulse_report_rows_and_tables(config_795, mode):
    report, tables = run_pulse(config_795, mode)
    assert report.experiment_kind == f"pulse_{mode}"
    names = [m.name for m in report.metrics]
    assert names == ["small_signal_rise", "extinction_floor", "time_to_target"]
    # Only the optimized drive is held to the extinction target.
    checked = [m.name for m in report.metrics if m.passed is not None]
    assert checked == (["extinction_floor"] if mode == "optimized" else [])
    assert list(tables) == [f"pulse_{mode}_trace.csv", f"pulse_{mode}_drive.csv"]


def test_naive_and_optimized_pulses_hold_on_equally_long(config_795):
    response = config_795.actuator()
    n_on = on_hold_samples(response)
    _, tables = run_pulse(config_795, "naive")
    volts = tables["pulse_naive_drive.csv"][1][1]
    v_pi = config_795.channels()[0].v_pi
    assert np.all(volts[:n_on] == v_pi) and volts[n_on] == 0.0
    phase, switch_time = switch_off_target_phase(response, 52e-9, 1e-6)
    assert switch_time == n_on * response.sample_period
    assert np.all(phase[:n_on] == np.pi) and phase[n_on] < np.pi


@pytest.mark.parametrize("nm", [420, 795, 1013])
def test_naive_pulse_is_the_switch_off_check_of_a_square_step(nm, request):
    cfg = request.getfixturevalue(f"config_{nm}")
    channel, response = cfg.channels()[0], cfg.actuator()
    pd = cfg.data["predistortion"]
    settle, target = pd["settle_window_us"] * 1e-6, pd["extinction_target"]
    dt = response.sample_period
    n_pre = on_hold_samples(response)
    samples = np.concatenate([np.full(n_pre, channel.v_pi), np.zeros(round(settle / dt))])
    drive = Waveform(dt, samples)
    result = simulate_switch_off(channel, response, drive, n_pre * dt, settle, target)

    # The check spelled out: the trace ends with the settle window, so the
    # floor is the envelope's last sample, and converged is reached.
    ext = dynamic_extinction(trace_optical(channel, response, drive), n_pre * dt)
    t_floor, reached = ext.time_to(target)
    assert result.achieved_floor == ext.envelope[-1]
    assert (result.time_to_floor, result.converged) == (t_floor, reached)

    report, tables = run_pulse(cfg, "naive")
    rows = {m.name: m.value for m in report.metrics}
    assert rows["extinction_floor"] == result.achieved_floor
    assert rows["time_to_target"] == result.time_to_floor * 1e9
    assert np.array_equal(tables["pulse_naive_drive.csv"][1][1], samples)
    assert np.array_equal(tables["pulse_naive_trace.csv"][1][1], result.trace.samples)


def test_optimized_verdict_is_the_solutions_convergence(config_795):
    # With a 47 ns settle window the drive meets the target at
    # 47.00000000000001 ns: within predistort's grid tolerance, so the
    # solution converged and the report passes.
    data = copy.deepcopy(config_795.data)
    data["predistortion"]["settle_window_us"] = 0.047
    report, _ = run_pulse(ExperimentConfig(data), "optimized")
    t_floor = next(m.value for m in report.metrics if m.name == "time_to_target")
    assert t_floor > 47.0 and t_floor == pytest.approx(47.0)
    assert report.passed


class TestChipConfigEdges:
    EXPERIMENTS = {
        "calibrate": lambda cfg: run_calibrate(cfg)[0],
        "sweep": lambda cfg: run_sweep(cfg, [0])[0],
        "pulse naive": lambda cfg: run_pulse(cfg, "naive")[0],
        "pulse optimized": lambda cfg: run_pulse(cfg, "optimized")[0],
        "crosstalk A": lambda cfg: run_crosstalk(cfg, "A")[0],
        "crosstalk C": lambda cfg: run_crosstalk(cfg, "C")[0],
        "stability": lambda cfg: run_stability(cfg)[0],
    }

    def test_experiments_on_schema_edges(self, config_795):
        """Every schema-valid chip section at the edges of its ranges runs
        each experiment to a report of finite metrics or raises
        PicmodError. Warnings are errors. A short lock and two pulse
        blocks keep stability fast."""
        base = copy.deepcopy(config_795.data)
        base["lock"]["duration_hours"] = 0.01
        base["pulse"]["n_blocks"] = 2
        outcomes = collections.Counter()
        for n_stages, v_pi, er, split, n in itertools.product(
            [1, 8], [1e-3, 1e300], [1.0, 71.4, 300.0], [None, 0.5, 1 - 1e-16, 1.0], [1, 2]
        ):
            data = copy.deepcopy(base)
            data["chip"].update(
                n_stages=n_stages,
                v_pi_volts=v_pi,
                target_er_db=[er] * n,
                coupler_power_splits=None if split is None else [split] * n,
                n_channels=n,
            )
            cfg = ExperimentConfig(data)
            for name, run in self.EXPERIMENTS.items():
                try:
                    report = run(cfg)
                except PicmodError:
                    outcomes[name, "error"] += 1
                    continue
                values = [m.value for m in report.metrics]
                assert all(map(math.isfinite, values)), (name, n_stages, v_pi, er, split, n)
                outcomes[name, "report"] += 1
        # Of the 96 sections: a split of 1.0 is no coupler; ER targets of
        # 1 dB, and of 300 dB on one stage, have no split, which calibrate
        # always solves for and the others when none is configured; a split
        # of 1 - 1e-16 leaves no fringe to sweep or switch; and one channel
        # has no neighbor to leak into.
        assert outcomes == {
            ("calibrate", "report"): 48, ("calibrate", "error"): 48,
            ("sweep", "report"): 36, ("sweep", "error"): 60,
            ("pulse naive", "report"): 36, ("pulse naive", "error"): 60,
            ("pulse optimized", "report"): 36, ("pulse optimized", "error"): 60,
            ("crosstalk A", "report"): 48, ("crosstalk A", "error"): 48,
            ("crosstalk C", "report"): 48, ("crosstalk C", "error"): 48,
            ("stability", "report"): 60, ("stability", "error"): 36,
        }
