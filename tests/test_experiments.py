"""Experiments as library functions: a report and tables, and no files."""

import copy

import numpy as np
import pytest

from picmod.config import ExperimentConfig
from picmod.errors import PicmodError
from picmod.experiments import run_crosstalk, run_pulse, run_sweep
from picmod.dynamics import on_hold_samples
from picmod.waveforms import switch_off_target_phase


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
