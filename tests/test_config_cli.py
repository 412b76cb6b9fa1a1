"""Configuration schema, serialization, and the CLI surface."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from picmod import cli, experiments
from picmod import config as config_module
from picmod.cli import EXPERIMENTS, main
from picmod.config import ExperimentConfig
from picmod.core import power_split_for_er, sweep_channel
from picmod.errors import PicmodError
from picmod.noise import DetectorModel
from picmod.reports import RunReport, _type_hints, load_report
from picmod.serialize import _CSV_CHUNK_ROWS, config_hash, write_csv

from conftest import CONFIG_DIR

SRC = CONFIG_DIR.parents[1]


@pytest.fixture()
def base_data(config_795):
    return copy.deepcopy(config_795.data)


class TestConfigSchema:
    def test_unknown_key_rejected(self, base_data):
        base_data["frobnicate"] = 1
        with pytest.raises(PicmodError, match=r"^config: unknown keys \['frobnicate'\]$"):
            ExperimentConfig(base_data)

    def test_unknown_nested_key_rejected(self, base_data):
        base_data["chip"]["extra"] = 1
        with pytest.raises(PicmodError, match=r"^chip: unknown keys \['extra'\]$"):
            ExperimentConfig(base_data)

    def test_missing_key_rejected(self, base_data):
        del base_data["lock"]
        with pytest.raises(PicmodError, match=r"^config: missing keys \['lock'\]$"):
            ExperimentConfig(base_data)

    def test_bad_value_rejected(self, base_data):
        base_data["chip"]["v_pi_volts"] = -5.0
        with pytest.raises(PicmodError, match="^chip.v_pi_volts: -5.0 below minimum"):
            ExperimentConfig(base_data)

    def test_wrong_wavelength_rejected(self, base_data):
        base_data["wavelength_nm"] = 500
        with pytest.raises(
            PicmodError, match=r"^wavelength_nm: 500 not one of \(420, 795, 1013\)$"
        ):
            ExperimentConfig(base_data)

    def test_per_channel_list_length_checked(self, base_data):
        base_data["chip"]["target_er_db"] = [70.0, 70.0]
        with pytest.raises(
            PicmodError, match="^chip.target_er_db must list one target per channel$"
        ):
            ExperimentConfig(base_data)

    def test_second_order_requires_damping(self, base_data):
        base_data["actuator"]["kind"] = "second_order"
        base_data["actuator"]["damping_ratio"] = None
        with pytest.raises(
            PicmodError, match="^actuator.damping_ratio required for second_order kind$"
        ):
            ExperimentConfig(base_data)

    def test_roundtrip_identity(self, config_795, tmp_path):
        out = tmp_path / "cfg.yaml"
        config_795.save(out)
        again = ExperimentConfig.load(out)
        assert again.data == config_795.data
        assert again.hash == config_795.hash

    @pytest.mark.parametrize("calibrated", [False, True], ids=["shipped", "calibrated"])
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_libyaml_and_python_yaml_agree(self, nm, calibrated, tmp_path, monkeypatch):
        # load/save use libyaml where PyYAML has it; the pure-Python loader
        # and dumper must read the same data and write the same bytes.
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        if calibrated:
            cfg = experiments.run_calibrate(cfg)[1]["calibrated_config.yaml"]
        cfg.save(tmp_path / "c.yaml")
        loaded = ExperimentConfig.load(tmp_path / "c.yaml")
        monkeypatch.setattr(config_module, "_YAML_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(config_module, "_YAML_DUMPER", yaml.SafeDumper)
        cfg.save(tmp_path / "py.yaml")
        assert (tmp_path / "py.yaml").read_bytes() == (tmp_path / "c.yaml").read_bytes()
        assert ExperimentConfig.load(tmp_path / "c.yaml").data == loaded.data == cfg.data

    @pytest.mark.parametrize("key, value", [("clamp", True), ("additive_noise_sigma", 0.0)])
    def test_removed_detector_key_rejected(self, base_data, tmp_path, key, value):
        # Every detector reading is its true power floored; there is no
        # unclamped and no noisy detector.
        base_data["detector"][key] = value
        with pytest.raises(PicmodError, match=rf"^detector: unknown keys \['{key}'\]$"):
            ExperimentConfig(base_data)
        path = tmp_path / "removed.yaml"
        path.write_text(yaml.safe_dump(base_data))
        res = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
        assert res.exit_code == 2
        assert f"unknown keys ['{key}']" in res.output

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("detector", "sweep_floor_db", math.nan,
             "detector.sweep_floor_db: expected a number, got NaN"),
            ("lock", "duration_hours", math.inf,
             "lock.duration_hours: expected a finite number, got +inf"),
            ("lock", "update_rate_hz", math.inf,
             "lock.update_rate_hz: expected a finite number, got +inf"),
            ("actuator", "rise_time_10_90_ns", math.inf,
             "actuator.rise_time_10_90_ns: expected a finite number, got +inf"),
            ("predistortion", "settle_window_us", math.inf,
             "predistortion.settle_window_us: expected a finite number, got +inf"),
            ("beams", "pitch_d0", math.inf, "beams.pitch_d0: expected a finite number, got +inf"),
            ("targets", "block_std", math.inf,
             "targets.block_std: expected a finite number, got +inf"),
            ("chip", "target_er_db", [70.0, math.inf] + [70.0] * 6,
             "chip.target_er_db[1]: expected a finite number, got +inf"),
        ],
        ids=["nan", "duration_hours", "update_rate_hz", "rise_time", "settle_window",
             "pitch_d0", "block_std", "list_item"],
    )
    def test_non_finite_rejected_at_load(self, base_data, tmp_path, section, key, value, message):
        # NaN passes every bound check, since each comparison with it is
        # False, and +inf passes every lower bound; each must fail at load,
        # not as an overflow or non-finite samples mid-run. -inf stays
        # valid: a -.inf detector floor is an ideal detector.
        base_data[section][key] = value
        path = tmp_path / "non_finite.yaml"
        path.write_text(yaml.safe_dump(base_data))
        assert (".nan" if "NaN" in message else ".inf") in path.read_text()
        with pytest.raises(PicmodError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.load(path)
        res = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
        assert res.exit_code == 2
        assert message in res.output
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key", ["gain_p", "gain_i"])
    def test_minus_inf_gain_rejected_at_load(self, base_data, tmp_path, key):
        # A gain has no lower bound, so only the finite rule stops -inf.
        base_data["lock"][key] = -math.inf
        path = tmp_path / "gain.yaml"
        path.write_text(yaml.safe_dump(base_data))
        message = f"lock.{key}: expected a finite number, got -inf"
        with pytest.raises(PicmodError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.load(path)
        res = run_cli("calibrate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert res.exit_code == 2
        assert message in res.output

    def test_every_db_level_loads_minus_inf(self, base_data, tmp_path):
        # A dB level is the one number that may be -inf: no power at all.
        levels = [
            ("detector", "sweep_floor_db"), ("detector", "onchip_floor_db"),
            ("crosstalk", "nn_before_db"), ("crosstalk", "nn_after_db"),
            ("crosstalk", "nnn_before_db"), ("crosstalk", "nnn_after_db"),
            ("crosstalk", "scenario_c_target_db"), ("beams", "nn_leak_db"), ("beams", "floor_db"),
        ]
        for section, key in levels:
            base_data[section][key] = -math.inf
        path = tmp_path / "levels.yaml"
        path.write_text(yaml.safe_dump(base_data))
        loaded = ExperimentConfig.load(path)
        assert all(loaded.data[section][key] == -math.inf for section, key in levels)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("lock", "duration_hours", 10**400,
             "lock.duration_hours: expected a number that fits a float"),
            ("chip", "n_channels", 10**400, f"chip.n_channels: {10**400} above maximum 64"),
            (None, "seed", 10**400, f"seed: {10**400} above maximum {2**64 - 1}"),
            ("chip", "target_er_db", [70.0, 10**400] + [70.0] * 6,
             "chip.target_er_db[1]: expected a number that fits a float"),
        ],
        ids=["duration_hours", "n_channels", "seed", "list_item"],
    )
    def test_huge_integer_rejected_at_load(self, base_data, tmp_path, section, key, value, message):
        # A YAML integer has no size limit, and float() of one this large
        # overflows: a number key reports that, an integer key its bound.
        (base_data if section is None else base_data[section])[key] = value
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(base_data))
        assert str(10**400) in path.read_text()
        with pytest.raises(PicmodError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.load(path)
        res = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
        assert res.exit_code == 2
        assert message in res.output
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
        configured = sweep_channel(channel, 0.0, 2 * channel.v_pi, 241, detector)
        ideal = sweep_channel(channel, 0.0, 2 * channel.v_pi, 241, DetectorModel())
        for f in dataclasses.fields(ideal):
            assert np.array_equal(getattr(configured, f.name), getattr(ideal, f.name)), f.name

    def test_hash_changes_with_content(self, base_data, config_795):
        base_data["seed"] = 43
        assert ExperimentConfig(base_data).hash != config_795.hash

    def test_with_seed(self, config_795):
        reseeded = config_795.with_seed(7)
        assert reseeded.seed == 7
        assert config_795.seed == 42

    def test_config_owns_its_data(self, base_data):
        cfg = ExperimentConfig(base_data)
        reseeded = cfg.with_seed(7)
        data, hashes = copy.deepcopy(cfg.data), (cfg.hash, reseeded.hash)
        base_data["lock"]["gain_p"] = 123.0
        base_data["chip"]["target_er_db"][0] = 10.0
        base_data["chip"]["target_er_db"].append(10.0)
        assert cfg.data == data
        assert reseeded.data == {**data, "seed": 7}
        assert (cfg.hash, reseeded.hash) == hashes


def csv_cell(value) -> str:
    """Oracle: one CSV cell, a float as the shortest repr of its float64
    value and anything else as its str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv(header, columns) -> bytes:
    """Oracle: the per-cell writer, one formatter per column over tolist()
    values and one joined line per row."""
    columns = [np.asarray(c) for c in columns]
    cells = [
        map(repr if c.dtype.kind == "f" and c.dtype.itemsize <= 8 else csv_cell, c.tolist())
        for c in columns
    ]
    lines = [",".join(header) + "\n"]
    lines.extend(",".join(row) + "\n" for row in zip(*cells))
    return "".join(lines).encode()


# Floats whose shortest repr is easy to get wrong: signed zero, non-finite
# values, the smallest subnormal, and the switches to exponent notation.
ADVERSARIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1 + 0.2]


def adversarial_columns(n_rows):
    rng = np.random.default_rng(n_rows)
    # The special values first, then repeats of them scaled by random normals.
    base = np.resize(ADVERSARIAL_FLOATS, n_rows)
    tail = base[len(ADVERSARIAL_FLOATS) :]
    tail *= rng.standard_normal(tail.size)
    with np.errstate(over="ignore"):  # 1e16 and beyond are inf in float16
        f16 = base.astype(np.float16)
    return {
        "f64": base,
        "f32": base.astype(np.float32),
        "f16": f16,
        "i64": rng.integers(-(2**62), 2**62, n_rows, dtype=np.int64),
        "bool": rng.random(n_rows) < 0.5,
    }


class TestSerialize:
    def test_csv_columns_equal_length(self, tmp_path):
        with pytest.raises(PicmodError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.arange(4)])

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, 9, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1],
    )
    @pytest.mark.parametrize(
        "names",
        [("f64",), ("f64", "f32", "f16"), ("f64", "i64"), ("i64", "bool"),
         ("bool", "f16", "i64", "f64", "f32")],
        ids=["f64", "floats", "histogram", "ints", "mixed"],
    )
    def test_csv_bytes_match_reference_writer(self, tmp_path, n_rows, names):
        # ("f64", "i64") has the float/int layout of pulse_area_histogram.csv.
        table = adversarial_columns(n_rows)
        columns = [table[name] for name in names]
        write_csv(tmp_path / "x.csv", list(names), columns)
        assert (tmp_path / "x.csv").read_bytes() == reference_csv(names, columns)

    def test_csv_unequal_columns_keep_old_file(self, tmp_path):
        target = tmp_path / "x.csv"
        write_csv(target, ["a"], [np.arange(3)])
        old = target.read_bytes()
        with pytest.raises(PicmodError, match="equal length"):
            write_csv(target, ["a", "b"], [np.arange(_CSV_CHUNK_ROWS + 1), np.arange(3.0)])
        assert target.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

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
            lines.append(",".join(csv_cell(c[i]) for c in columns))
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


@dataclasses.dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None  # argparse's exit, if it ended the call

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(*args) -> CliResult:
    """`main(args)` in this process, with stdout and stderr captured and
    argparse's SystemExit caught."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(args))
        except SystemExit as exc:
            exception, code = exc, exc.code
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), exception)


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

        monkeypatch.setattr(config_module, "power_split_for_er", split_missing_channel_0)
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

    def test_out_naming_a_file_exits_2(self, config_path_795, tmp_path):
        # Creating --out fails after the experiment ran: one error line
        # naming it, no summary, and the file is left as it was.
        out = tmp_path / "notes.txt"
        out.write_text("kept\n")
        res = run_cli("crosstalk", "--config", config_path_795, "--out", str(out))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith("error: ") and str(out) in res.stderr
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "exc, line",
        [(MemoryError(), "error: MemoryError: "), (ValueError("x"), "error: ValueError: x")],
        ids=["MemoryError", "ValueError"],
    )
    def test_unexpected_exception_exits_3(self, config_path_795, tmp_path, monkeypatch, exc, line):
        # Exit 1 means a failed check only: any exception picmod does not
        # raise itself is one `error:` line naming its type, and exit 3.
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(experiments, "run_beams", fail)
        res = run_cli("beams", "--config", config_path_795, "--out", str(tmp_path / "out"))
        assert res.exit_code == cli.EXIT_INTERNAL == 3
        assert res.stdout == ""
        assert res.stderr == line + "\n"
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
        res = run_cli(
            "beams", "--config", config_path_795, "--out", str(tmp_path), "--active", "foo"
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --active: cannot parse 'foo'")
        assert "usage:" not in res.stderr

    @pytest.mark.parametrize(
        "args", [["sweep", "--channels", "0;1"], ["beams", "--active", "1-3"]]
    )
    def test_usage_error_creates_no_output_dir(self, config_path_795, tmp_path, args):
        out = tmp_path / "out"
        res = run_cli(*args, "--config", config_path_795, "--out", str(out))
        assert res.exit_code == 2
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("wavelength_nm: 795\n")
        res = run_cli("sweep", "--config", str(bad))
        assert res.exit_code == 2

    def test_config_that_is_not_text_exits_2(self, tmp_path):
        config = tmp_path / "bin.yaml"
        config.write_bytes(bytes.fromhex("fffe00626164"))
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", str(config), "--out", str(out))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith(f"error: cannot parse {config}")
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_config_that_cannot_be_read_raises_config_error(self, tmp_path, kind):
        path = tmp_path / "config.yaml"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(PicmodError, match=f"{path} cannot be read"):
            ExperimentConfig.load(path)

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
        res = run_cli("report", str(tmp_path))
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: no run reports found in {tmp_path}")
        assert "usage:" not in res.stderr

    def test_report_missing_path_exits_2(self, tmp_path):
        path = tmp_path / "missing"
        res = run_cli("report", str(path))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith(f"error: {path} cannot be read")

    def test_report_unreadable_reports_exit_2(self, tmp_path):
        # An empty object, text that is not JSON, and JSON that is no object.
        paths = [tmp_path / f"{name}_report.json" for name in "abc"]
        for path, text in zip(paths, ("{}", "not json", "3")):
            path.write_text(text)
        res = run_cli("report", str(tmp_path))
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
        res = run_cli("report", str(tmp_path))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith(f"error: {path} {message}")
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize(
        "metric",
        [
            {"value": "x", "passed": False},  # a value that is no number
            {"value": 1.0, "passed": "no"},  # a verdict that is no bool
        ],
        ids=["value-not-number", "passed-not-bool"],
    )
    def test_report_mistyped_metric_exits_2(self, tmp_path, metric):
        path = tmp_path / "x_report.json"
        metric = {"name": "m", "units": "dB", "threshold": "> 0", **metric}
        path.write_text(json.dumps({
            "experiment_kind": "k", "config_hash": "h", "seed": 1, "passed": True,
            "wall_time_s": 0.0, "metrics": [metric],
        }))
        res = run_cli("report", str(tmp_path))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith(f"error: {path} is not a run report")
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_help_lists_commands_and_options(self):
        def listed(text, name):
            return re.search(rf"^ +{name}\b", text, re.M) is not None

        res = run_cli("--help")
        assert res.exit_code == 0
        for name in [*EXPERIMENTS, "report"]:
            assert listed(res.stdout, name), name
        for name, (_, _, options) in EXPERIMENTS.items():
            res = run_cli(name, "--help")
            assert res.exit_code == 0, name
            for flag in ["--config", "--out", "--seed", *options]:
                assert listed(res.stdout, flag), (name, flag)
            # argparse appends each default to its option's help line.
            text = " ".join(res.stdout.split())
            for default in ["out", *(default for default, _ in options.values())]:
                assert f"(default: {default})" in text, (name, default)
        res = run_cli("report", "--help")
        assert res.exit_code == 0
        assert listed(res.stdout, "path")

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


def one_channel(data):
    data["chip"]["n_channels"] = 1
    data["chip"]["target_er_db"] = data["chip"]["target_er_db"][:1]


def balanced_ideal_sweep(data):
    """Balanced couplers, whose null is exactly 0, read by a zero-floor
    sweep detector."""
    data["chip"]["coupler_power_splits"] = [0.5] * data["chip"]["n_channels"]
    data["detector"]["sweep_floor_db"] = float("-inf")


def pitch_past_float_range(data):
    """Site 7 of 8 at 7e308 d0, past the float range."""
    data["beams"]["pitch_d0"] = 1.0e308


def run_on(experiment, *args):
    return lambda path: experiment(ExperimentConfig.load(path), *args)


def yaml_file(edit=None):
    """Write the 795 nm config data, after `edit`, as YAML to the path."""
    def write(data, path):
        if edit is not None:
            edit(data)
        path.write_text(yaml.safe_dump(data))
    return write


def integer_past_digit_limit(data, path):
    """chip.n_channels as a 5001-digit literal: more digits than Python's
    int() converts from a string by default."""
    data["chip"]["n_channels"] = "N_CHANNELS"
    path.write_text(yaml.safe_dump(data).replace("N_CHANNELS", "9" * 5001))


def mixed_type_keys(data, path):
    """Unknown top-level keys of two types, which do not sort together."""
    data[1], data["foo"] = "a", "b"
    path.write_text(yaml.safe_dump(data, sort_keys=False))


# (CLI arguments, how the config file is made from the 795 nm config data,
# the library call on that file that raises the error the CLI must report).
LIBRARY_ERRORS = {
    "unreachable_er": (
        ["calibrate"], yaml_file(target_er_300_db), run_on(experiments.run_calibrate)
    ),
    "channel_out_of_range": (
        ["sweep", "--channels", "99"], yaml_file(), run_on(experiments.run_sweep, [99])
    ),
    "site_out_of_range": (
        ["beams", "--active", "9"], yaml_file(), run_on(experiments.run_beams, [9])
    ),
    "sweep_null_reads_zero": (
        ["sweep", "--channels", "0"], yaml_file(balanced_ideal_sweep),
        run_on(experiments.run_sweep, [0]),
    ),
    "missing_key": (["sweep"], yaml_file(drop_lock_section), ExperimentConfig.load),
    "no_site": (["beams", "--active", ","], yaml_file(), run_on(experiments.run_beams, [])),
    "pitch_past_float_range": (
        ["beams", "--active", "evens"], yaml_file(pitch_past_float_range),
        run_on(experiments.run_beams, [0, 2, 4, 6]),
    ),
    "pulse_mode": (
        ["pulse", "--mode", "fast"], yaml_file(), run_on(experiments.run_pulse, "fast")
    ),
    "crosstalk_scenario": (
        ["crosstalk", "--scenario", "D"], yaml_file(), run_on(experiments.run_crosstalk, "D")
    ),
    "crosstalk_one_channel": (
        ["crosstalk", "--scenario", "A"], yaml_file(one_channel),
        run_on(experiments.run_crosstalk, "A"),
    ),
    "missing_config": (["sweep"], lambda data, path: None, ExperimentConfig.load),
    "config_is_directory": (["sweep"], lambda data, path: path.mkdir(), ExperimentConfig.load),
    "integer_past_digit_limit": (["sweep"], integer_past_digit_limit, ExperimentConfig.load),
    "mixed_type_keys": (["sweep"], mixed_type_keys, ExperimentConfig.load),
    # derive_rng keeps a seed's low 64 bits, so 2**64 + 42 would draw the
    # streams of seed 42 under another config hash.
    "seed_above_64_bits": (
        ["sweep", "--seed", str(2**64)], yaml_file(),
        lambda path: ExperimentConfig.load(path).with_seed(2**64),
    ),
}


@pytest.mark.parametrize("args, write, library", LIBRARY_ERRORS.values(), ids=LIBRARY_ERRORS)
def test_entry_points_agree_on_library_errors(base_data, tmp_path, args, write, library):
    """`main` in process and `python -m picmod.cli` in a fresh process both
    exit 2 on a library error, print its message as one `error:` line on
    stderr and create no --out directory."""
    config = tmp_path / "config.yaml"
    write(base_data, config)
    with pytest.raises(PicmodError) as raised:
        library(config)
    message = str(raised.value)

    cli_args = [*args, "--config", str(config), "--out"]
    in_process = run_cli(*cli_args, str(tmp_path / "main_out"))
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
        assert stderr == f"error: {message}\n", (out, stderr)
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


def assert_canonical_csv(path):
    """Every row has the header's field count, and every cell that is not
    an integer is a float written as its shortest repr."""
    header, *rows = path.read_text().splitlines()
    width = len(header.split(","))
    for i, row in enumerate(rows, 2):
        cells = row.split(",")
        assert len(cells) == width, f"{path.name}:{i} has {len(cells)} fields"
        for cell in cells:
            if not re.fullmatch(r"-?\d+", cell):
                assert repr(float(cell)) == cell, f"{path.name}:{i} cell {cell!r}"


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
    def test_csv_artifacts_canonical(self, nm, static_run):
        for args, _, _ in STATIC_COMMANDS:
            out, _ = static_run(nm, args)
        paths = sorted(out.glob("*.csv"))
        assert len(paths) == 16  # 8 sweeps, 4 pulse, 3 crosstalk, 1 beam profile
        for path in paths:
            assert_canonical_csv(path)

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
            for path in out.glob("*.csv"):
                assert_canonical_csv(path)
        name = "lock_er_timeseries.csv"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_stability_calibrate_and_sweep_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """`picmod stability`, `calibrate` and `sweep` on the 795 nm config
    write the same artifacts under the default BLAS kernel and under
    OPENBLAS_CORETYPE=Prescott and Haswell. The test first checks that each
    kernel gives a plain matmul and dot product bits of its own, or it
    shows nothing."""
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    default["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    envs = {"default": default}
    envs.update({core: dict(default, OPENBLAS_CORETYPE=core) for core in ("Prescott", "Haswell")})
    blas_bits = (
        "import hashlib, numpy as np\n"
        "x = np.random.default_rng(0).standard_normal((4096, 16))\n"
        "y = np.matmul(x, x[:16]).tobytes() + np.dot(x.ravel(), x.ravel()).tobytes()\n"
        "print(hashlib.sha256(y).hexdigest())\n"
    )

    def run(env, *args):
        child = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
        assert child.returncode == 0, child.stderr
        return child.stdout

    bits = {name: run(env, "-c", blas_bits) for name, env in envs.items()}
    assert len(set(bits.values())) == len(envs), "the kernels do not change BLAS bits here"
    config = str(CONFIG_DIR / "pic_795nm.yaml")
    for command in ("stability", "calibrate", "sweep"):
        outs = {name: tmp_path / command / name for name in envs}
        for name, env in envs.items():
            run(env, "-m", "picmod.cli", command, "--config", config,
                "--out", str(outs[name]), "--seed", "42")
        files = sorted(p.name for p in outs["default"].iterdir())
        assert len(files) >= 2, files
        for name, out in outs.items():
            assert sorted(p.name for p in out.iterdir()) == files, name
            for file in files:
                if file.endswith("_report.json"):
                    same = strip_wall_time(out / file) == strip_wall_time(
                        outs["default"] / file)
                else:
                    same = (out / file).read_bytes() == (outs["default"] / file).read_bytes()
                assert same, (command, name, file)


class TestReportRoundTrip:
    """`load_report` reads back exactly what `RunReport.save` writes."""

    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_cli_reports_resave_byte_identical(self, nm, static_run, tmp_path):
        paths = []
        for args, name, _ in STATIC_COMMANDS:
            out, _ = static_run(nm, args)
            paths.append(out / f"{name}_report.json")
        config = str(CONFIG_DIR / f"pic_{nm}nm.yaml")
        run_cli("stability", "--config", config, "--out", str(tmp_path / "stab"), "--seed", "42")
        paths.append(tmp_path / "stab" / "stability_report.json")
        for path in paths:
            report = load_report(path)
            assert isinstance(report, RunReport)
            report.save(tmp_path / "resaved.json")
            assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes(), path.name

    def test_nonfinite_values_round_trip(self, tmp_path):
        report = RunReport("k", "h", 1)
        report.add("not_a_number", math.nan, "dB")
        report.add("above", math.inf, "dB", "> 0", True)
        report.add("below", -math.inf, "dB")
        report.add("unbounded", math.inf, "dB", "< 0", False)
        path = tmp_path / "k_report.json"
        report.save(path)
        values = [m["value"] for m in json.loads(path.read_text())["metrics"]]
        assert values == [None, "inf", "-inf", "inf"]

        loaded = load_report(path)
        assert math.isnan(loaded.metrics[0].value)
        assert [m.value for m in loaded.metrics[1:]] == [math.inf, -math.inf, math.inf]
        assert loaded.passed is False
        loaded.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()

        res = run_cli("report", str(path))
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stdout.splitlines() == [
            "FAIL  k                    config h  4 metrics (2 checked)",
            "  FAIL  unbounded: inf dB (require < 0)",
        ]

    def test_type_hints_evaluated_once_per_class(self, tmp_path):
        report = RunReport("k", "h", 1)
        for i in range(5):
            report.add(f"m{i}", float(i), "dB", "> 0", True)
        path = tmp_path / "k_report.json"
        report.save(path)
        _type_hints.cache_clear()
        for _ in range(3):
            load_report(path)
        assert _type_hints.cache_info()[1:] == (2, None, 2)  # misses, maxsize, size

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(extra=1),  # a key RunReport has no field for
            lambda d: d.pop("seed"),  # a required field left out
            lambda d: d["metrics"][0].update(extra=1),  # a key Metric has no field for
            lambda d: d.update(seed="1"),  # a field of the wrong type
            lambda d: d.update(metrics=[[1]]),  # a metric that is no object
        ],
        ids=["unknown-key", "missing-key", "unknown-metric-key", "mistyped-key", "metric-list"],
    )
    def test_report_that_does_not_fit_the_fields_rejected(self, tmp_path, edit):
        report = RunReport("k", "h", 1)
        report.add("m", 1.0, "dB", "> 0", True)
        path = tmp_path / "k_report.json"
        report.save(path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(PicmodError, match=f"{path} is not a run report"):
            load_report(path)
