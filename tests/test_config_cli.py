"""Configuration schema, serialization, and the CLI surface."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from picmod import calibration, experiments
from picmod.cli import main
from picmod.config import ExperimentConfig
from picmod.core import power_split_for_er, sweep_channel
from picmod.errors import ConfigError, PicmodError
from picmod.serialize import config_hash, fmt, write_csv

from conftest import CONFIG_DIR

SRC = CONFIG_DIR.parents[1]


@pytest.fixture()
def base_data(config_795):
    return copy.deepcopy(config_795.data)


class TestConfigSchema:
    def test_unknown_key_rejected(self, base_data):
        base_data["frobnicate"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig(base_data)

    def test_unknown_nested_key_rejected(self, base_data):
        base_data["chip"]["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig(base_data)

    def test_missing_key_rejected(self, base_data):
        del base_data["lock"]
        with pytest.raises(ConfigError, match="missing keys"):
            ExperimentConfig(base_data)

    def test_bad_value_rejected(self, base_data):
        base_data["chip"]["v_pi_volts"] = -5.0
        with pytest.raises(ConfigError, match="v_pi_volts"):
            ExperimentConfig(base_data)

    def test_wrong_wavelength_rejected(self, base_data):
        base_data["wavelength_nm"] = 500
        with pytest.raises(ConfigError):
            ExperimentConfig(base_data)

    def test_per_channel_list_length_checked(self, base_data):
        base_data["chip"]["target_er_db"] = [70.0, 70.0]
        with pytest.raises(ConfigError, match="one target per channel"):
            ExperimentConfig(base_data)

    def test_second_order_requires_damping(self, base_data):
        base_data["actuator"]["kind"] = "second_order"
        base_data["actuator"]["damping_ratio"] = None
        with pytest.raises(ConfigError, match="damping_ratio"):
            ExperimentConfig(base_data)

    def test_roundtrip_identity(self, config_795, tmp_path):
        out = tmp_path / "cfg.yaml"
        config_795.save(out)
        again = ExperimentConfig.load(out)
        assert again.data == config_795.data
        assert again.hash == config_795.hash

    @pytest.mark.parametrize("key, value", [("clamp", True), ("additive_noise_sigma", 0.0)])
    def test_removed_detector_key_rejected(self, base_data, tmp_path, key, value):
        # Every detector reading is its true power floored; there is no
        # unclamped and no noisy detector.
        base_data["detector"][key] = value
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
            ExperimentConfig(base_data)
        path = tmp_path / "removed.yaml"
        path.write_text(yaml.safe_dump(base_data))
        res = CliRunner().invoke(main, ["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert f"unknown keys ['{key}']" in res.output

    def test_nan_rejected_at_load(self, base_data, tmp_path):
        # NaN passes every bound check, since each comparison with it is
        # False; it must fail at load, not as non-finite samples mid-run.
        base_data["detector"]["sweep_floor_db"] = float("nan")
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(base_data))
        assert "sweep_floor_db: .nan" in path.read_text()
        with pytest.raises(ConfigError, match="sweep_floor_db: expected a number, got NaN"):
            ExperimentConfig.load(path)
        res = CliRunner().invoke(main, ["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "sweep_floor_db: expected a number, got NaN" in res.output
        assert not list(tmp_path.glob("*.csv"))

    def test_ideal_detector_is_a_zero_floor(self, base_data, tmp_path):
        base_data["detector"]["sweep_floor_db"] = float("-inf")
        cfg = ExperimentConfig(base_data)
        cfg.save(tmp_path / "ideal.yaml")
        assert "sweep_floor_db: -.inf" in (tmp_path / "ideal.yaml").read_text()
        again = ExperimentConfig.load(tmp_path / "ideal.yaml")
        assert again.data == cfg.data and again.hash == cfg.hash
        detector = again.sweep_detector()
        assert detector.relative_floor == 0.0
        channel = again.channels()[0]
        ideal = sweep_channel(channel, 0.0, 2 * channel.v_pi, 241, detector=detector)
        bare = sweep_channel(channel, 0.0, 2 * channel.v_pi, 241)
        for f in dataclasses.fields(bare):
            assert np.array_equal(getattr(ideal, f.name), getattr(bare, f.name)), f.name

    def test_hash_changes_with_content(self, base_data, config_795):
        base_data["seed"] = 43
        assert ExperimentConfig(base_data).hash != config_795.hash

    def test_with_seed(self, config_795):
        reseeded = config_795.with_seed(7)
        assert reseeded.seed == 7
        assert config_795.seed == 42


class TestSerialize:
    def test_csv_columns_equal_length(self, tmp_path):
        with pytest.raises(PicmodError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.arange(4)])

    def test_csv_bytes_match_per_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [
            np.concatenate([rng.standard_normal(200) * 1e-9, [0.0, -0.0, 1e300, 5e-324]]),
            rng.standard_normal(204).astype(np.float32),
            rng.integers(-(2**62), 2**62, 204, dtype=np.int64),
            rng.random(204) < 0.5,
            rng.standard_normal(204).astype(np.float16),
            rng.standard_normal(204).astype(np.longdouble),
        ]
        header = ["f64", "f32", "i64", "bool", "f16", "longdouble"]
        write_csv(tmp_path / "x.csv", header, columns)
        # Oracle: one numpy scalar per cell.
        lines = [",".join(header)]
        for i in range(204):
            lines.append(",".join(fmt(c[i]) for c in columns))
        assert (tmp_path / "x.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_csv_failing_midway_leaves_no_partial_file(self, tmp_path, existing):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        target = tmp_path / "x.csv"
        if existing:
            write_csv(target, ["a"], [np.arange(3)])
        old = target.read_bytes() if existing else None
        # Enough rows that formatted lines reach the file before row 5000.
        cells = np.array([1] * 5000 + [Unprintable()], dtype=object)
        with pytest.raises(RuntimeError, match="cannot format"):
            write_csv(target, ["a", "b"], [np.arange(cells.size), cells])
        assert [p.name for p in tmp_path.iterdir()] == (["x.csv"] if existing else [])
        if existing:
            assert target.read_bytes() == old

    def test_config_hash_stable_across_key_order(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def strip_wall_time(path: Path) -> str:
    data = json.loads(path.read_text())
    data["wall_time_s"] = 0.0
    return json.dumps(data, sort_keys=True)


class TestCli:
    def test_calibrate_writes_config_and_report(self, config_path_795, tmp_path):
        res = run_cli("calibrate", "--config", config_path_795, "--out", str(tmp_path))
        assert res.exit_code == 0, res.output
        written = yaml.safe_load((tmp_path / "calibrated_config.yaml").read_text())
        assert len(written["chip"]["coupler_power_splits"]) == 8
        report = json.loads((tmp_path / "calibrate_report.json").read_text())
        assert report["passed"] is True

    def test_calibrate_er_miss_writes_failing_report(
        self, config_path_795, tmp_path, monkeypatch
    ):
        # Channel 0's split is solved for 0.5 dB above its target: its ER
        # check fails, the report is still written and the command exits 1.
        targets = []

        def split_missing_channel_0(er_db, n_stages):
            targets.append(er_db)
            return power_split_for_er(er_db + (0.5 if len(targets) == 1 else 0.0), n_stages)

        monkeypatch.setattr(calibration, "power_split_for_er", split_missing_channel_0)
        res = run_cli("calibrate", "--config", config_path_795, "--out", str(tmp_path))
        assert res.exit_code == 1, res.output
        assert (tmp_path / "calibrated_config.yaml").exists()
        report = json.loads((tmp_path / "calibrate_report.json").read_text())
        failed = [m["name"] for m in report["metrics"] if m["passed"] is False]
        assert failed == ["channel_0_er"]
        assert report["passed"] is False

    def test_error_mid_experiment_writes_no_tables(self, config_path_795, tmp_path, monkeypatch):
        # The lock runs finish before the pulse experiment fails; their
        # time series is not written, and --out is not even created, since
        # the output directory and its tables are written on return.
        def fail(*args, **kwargs):
            raise PicmodError("pulse experiment failed")

        monkeypatch.setattr(experiments, "noisy_pulse_experiment", fail)
        res = run_cli("stability", "--config", config_path_795, "--out", str(tmp_path / "out"))
        assert res.exit_code == 2
        assert "pulse experiment failed" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_sweep_outputs_and_summary(self, config_path_795, tmp_path):
        res = run_cli(
            "sweep", "--config", config_path_795, "--out", str(tmp_path),
            "--channels", "0,1",
        )
        assert res.exit_code == 0, res.output
        assert (tmp_path / "sweep_channel_0.csv").exists()
        assert not (tmp_path / "sweep_channel_2.csv").exists()
        assert "er_mean" in res.output

    def test_pulse_naive(self, config_path_795, tmp_path):
        res = run_cli(
            "pulse", "--config", config_path_795, "--out", str(tmp_path),
            "--mode", "naive",
        )
        assert res.exit_code == 0, res.output
        assert (tmp_path / "pulse_naive_trace.csv").exists()

    def test_crosstalk_scenarios(self, config_path_795, tmp_path):
        for scen in ("A", "B", "C"):
            res = run_cli(
                "crosstalk", "--config", config_path_795, "--out", str(tmp_path),
                "--scenario", scen,
            )
            assert res.exit_code == 0, res.output
        assert (tmp_path / "crosstalk_C.csv").exists()

    def test_beams_patterns(self, config_path_795, tmp_path):
        for pattern in ("all", "evens", "odds", "3", "0,4"):
            res = run_cli(
                "beams", "--config", config_path_795, "--out", str(tmp_path),
                "--active", pattern,
            )
            assert res.exit_code == 0, (pattern, res.output)

    def test_malformed_active_pattern_exits_2(self, config_path_795, tmp_path):
        res = CliRunner().invoke(
            main,
            ["beams", "--config", config_path_795, "--out", str(tmp_path),
             "--active", "foo"],
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --active: cannot parse 'foo'")
        assert "Usage:" not in res.stderr

    @pytest.mark.parametrize(
        "args", [["sweep", "--channels", "0;1"], ["beams", "--active", "1-3"]]
    )
    def test_usage_error_creates_no_output_dir(self, config_path_795, tmp_path, args):
        out = tmp_path / "out"
        res = CliRunner().invoke(main, [*args, "--config", config_path_795, "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("wavelength_nm: 795\n")
        res = CliRunner().invoke(main, ["sweep", "--config", str(bad)])
        assert res.exit_code == 2

    def test_seed_override(self, config_path_795, tmp_path):
        res = run_cli(
            "sweep", "--config", config_path_795, "--out", str(tmp_path),
            "--seed", "7", "--channels", "0",
        )
        assert res.exit_code == 0
        report = json.loads((tmp_path / "sweep_report.json").read_text())
        assert report["seed"] == 7

    def test_report_aggregation(self, config_path_795, tmp_path):
        run_cli("sweep", "--config", config_path_795, "--out", str(tmp_path),
                "--channels", "0")
        run_cli("crosstalk", "--config", config_path_795, "--out", str(tmp_path))
        res = run_cli("report", str(tmp_path))
        assert res.exit_code == 0
        assert res.output.count("PASS") >= 2

    def test_report_empty_dir_exits_2(self, tmp_path):
        res = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: no run reports found in {tmp_path}")
        assert "Usage:" not in res.stderr

    def test_report_unreadable_reports_exit_2(self, tmp_path):
        # An empty object, text that is not JSON, and JSON that is no object.
        paths = [tmp_path / f"{name}_report.json" for name in "abc"]
        for path, text in zip(paths, ("{}", "not json", "3")):
            path.write_text(text)
        res = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert res.exit_code == 2
        lines = res.stderr.splitlines()
        assert len(lines) == len(paths)
        for line, path in zip(lines, paths):
            assert line.startswith(f"error: {path} is not a run report")
            assert line.count(str(path)) == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot be read"),  # a directory named like a report
            ('[{"name": "a"}]', "is not a run report"),  # a metric without its fields
            ("5", "is not a run report"),  # metrics that are no list
        ],
        ids=["directory", "metric-fields", "metrics-not-list"],
    )
    def test_report_bad_entries_exit_2(self, tmp_path, content, message):
        path = tmp_path / "x_report.json"
        if content is None:
            path.mkdir()
        else:
            report = {"experiment_kind": "k", "config_hash": "h", "passed": True}
            path.write_text(json.dumps(report)[:-1] + f', "metrics": {content}}}')
        res = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith(f"error: {path} {message}")
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_determinism_byte_identical(self, config_path_795, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            res = run_cli(
                "sweep", "--config", config_path_795, "--out", str(out),
                "--channels", "0,1,2",
            )
            assert res.exit_code == 0
        for name in ("sweep_channel_0.csv", "sweep_channel_1.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert strip_wall_time(out1 / "sweep_report.json") == strip_wall_time(
            out2 / "sweep_report.json"
        )


def target_er_300_db(data):
    data["chip"]["target_er_db"] = [300.0] * data["chip"]["n_channels"]


def drop_lock_section(data):
    del data["lock"]


def run_on(experiment, *args):
    return lambda path: experiment(ExperimentConfig.load(path), *args)


# (CLI arguments, edit of the 795 nm config data, the library call on the
# edited config that raises the error the CLI must report).
LIBRARY_ERRORS = {
    "unreachable_er": (["calibrate"], target_er_300_db, run_on(calibration.calibrate)),
    "channel_out_of_range": (
        ["sweep", "--channels", "99"], None, run_on(experiments.run_sweep, [99])
    ),
    "site_out_of_range": (["beams", "--active", "9"], None, run_on(experiments.run_beams, [9])),
    "missing_key": (["sweep"], drop_lock_section, ExperimentConfig.load),
    "no_site": (["beams", "--active", ","], None, run_on(experiments.run_beams, [])),
}


@pytest.mark.parametrize("args, edit, library", LIBRARY_ERRORS.values(), ids=LIBRARY_ERRORS)
def test_entry_points_agree_on_library_errors(base_data, tmp_path, args, edit, library):
    """`main` in process and `python -m picmod.cli` in a fresh process both
    exit 2 on a library error, print its message on stderr and create no
    --out directory."""
    if edit is not None:
        edit(base_data)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(base_data))
    with pytest.raises(PicmodError) as raised:
        library(config)
    message = str(raised.value)

    cli_args = [*args, "--config", str(config), "--out"]
    in_process = CliRunner().invoke(main, [*cli_args, str(tmp_path / "main_out")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-m", "picmod.cli", *cli_args, str(tmp_path / "module_out")],
        capture_output=True, text=True, env=env,
    )
    for out, code, stderr in [
        ("main_out", in_process.exit_code, in_process.stderr),
        ("module_out", child.returncode, child.stderr),
    ]:
        assert code == 2, (out, stderr)
        assert message in stderr, (out, stderr)
        assert not (tmp_path / out).exists()


# (subcommand args, report name, artifacts besides the report). At 1013 nm
# the channel's own 61.5 dB ER composes scenario C to -61.36 dB, outside
# 3 dB of the -68 dB target.
STATIC_COMMANDS = [
    (("calibrate",), "calibrate", ("calibrated_config.yaml",)),
    (("sweep",), "sweep", ("sweep_channel_0.csv", "sweep_channel_7.csv")),
    (("pulse", "--mode", "naive"), "pulse_naive",
     ("pulse_naive_trace.csv", "pulse_naive_drive.csv")),
    (("pulse", "--mode", "optimized"), "pulse_optimized",
     ("pulse_optimized_trace.csv", "pulse_optimized_drive.csv")),
    (("crosstalk", "--scenario", "A"), "crosstalk_A", ("crosstalk_A.csv",)),
    (("crosstalk", "--scenario", "B"), "crosstalk_B", ("crosstalk_B.csv",)),
    (("crosstalk", "--scenario", "C"), "crosstalk_C", ("crosstalk_C.csv",)),
    (("beams",), "beams", ("beam_profile.csv",)),
]


@pytest.fixture(scope="module")
def static_run(tmp_path_factory):
    """Run a static command on a shipped config, once, into that config's
    own output directory; returns (directory, CLI result)."""
    dirs, results = {}, {}

    def run(nm, args):
        if nm not in dirs:
            dirs[nm] = tmp_path_factory.mktemp(f"static_{nm}")
        if (nm, args) not in results:
            config = str(CONFIG_DIR / f"pic_{nm}nm.yaml")
            results[nm, args] = run_cli(*args, "--config", config, "--out", str(dirs[nm]))
        return dirs[nm], results[nm, args]

    return run


class TestShippedConfigs:
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    @pytest.mark.parametrize(
        "args, name, artifacts", STATIC_COMMANDS, ids=[n for _, n, _ in STATIC_COMMANDS]
    )
    def test_static_commands(self, nm, args, name, artifacts, static_run):
        out, res = static_run(nm, args)
        expect_fail = nm == 1013 and name == "crosstalk_C"
        assert res.exit_code == (1 if expect_fail else 0), res.output
        report = json.loads((out / f"{name}_report.json").read_text())
        assert report["passed"] is not expect_fail
        for artifact in artifacts:
            assert (out / artifact).exists(), artifact
        if name == "crosstalk_C":
            composed = next(m for m in report["metrics"] if m["name"] == "scenario_c_composed")
            assert composed["passed"] is not expect_fail
            if expect_fail:
                assert composed["value"] == pytest.approx(-61.36, abs=0.01)

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_sweep_detector_floor_flag(self, nm, static_run):
        # Only 420 nm sweeps reach their detector floor (42.4 dB at -42.4 dB);
        # 795 and 1013 nm stay above their -80 dB floor.
        out, _ = static_run(nm, ("sweep",))
        report = json.loads((out / "sweep_report.json").read_text())
        names = [m["name"] for m in report["metrics"]]
        ers = [n for n in names if n.startswith("channel_") and "_er" in n]
        suffix = " (detector floor)" if nm == 420 else ""
        assert ers == [f"channel_{i}_er{suffix}" for i in range(8)]

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_report_over_static_outputs(self, nm, static_run):
        # Only 1013 nm fails: its scenario-C composition (see above).
        for args, _, _ in STATIC_COMMANDS:
            out, _ = static_run(nm, args)
        res = run_cli("report", str(out))
        assert res.exit_code == (1 if nm == 1013 else 0), res.output
        verdicts = [line for line in res.output.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(verdicts) == len(STATIC_COMMANDS) == len(list(out.glob("*_report.json")))
        failed = [line.split()[1] for line in verdicts if line.startswith("FAIL")]
        assert failed == (["crosstalk_C"] if nm == 1013 else [])

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_stability(self, nm, tmp_path):
        # The >= 20 dB lock_degradation margin at 1013 nm depends on the
        # seed, so only the exit code's agreement with the report is fixed.
        config = str(CONFIG_DIR / f"pic_{nm}nm.yaml")
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            res = run_cli("stability", "--config", config, "--out", str(out), "--seed", "42")
            for name in ("lock_er_timeseries.csv", "pulse_area_histogram.csv",
                         "stability_report.json"):
                assert (out / name).exists(), name
            report = json.loads((out / "stability_report.json").read_text())
            assert res.exit_code == (0 if report["passed"] else 1), res.output
        name = "lock_er_timeseries.csv"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
