"""Configuration schema, serialization, and the CLI surface."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from picmod.cli import main
from picmod.config import ExperimentConfig
from picmod.dynamics import Waveform
from picmod.errors import ConfigError, PicmodError
from picmod.serialize import (
    config_hash,
    fmt,
    read_waveform_bin,
    write_csv,
    write_waveform_bin,
)

from conftest import CONFIG_DIR


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

    def test_hash_changes_with_content(self, base_data, config_795):
        base_data["seed"] = 43
        assert ExperimentConfig(base_data).hash != config_795.hash

    def test_with_seed(self, config_795):
        reseeded = config_795.with_seed(7)
        assert reseeded.seed == 7
        assert config_795.seed == 42


class TestSerialize:
    def test_waveform_binary_roundtrip(self, tmp_path):
        w = Waveform(1e-9, np.linspace(-3, 3, 1000))
        path = tmp_path / "wave.bin"
        write_waveform_bin(path, w)
        back = read_waveform_bin(path)
        assert back.sample_period == w.sample_period
        assert np.array_equal(back.samples, w.samples)

    def test_binary_layout(self, tmp_path):
        # u64 length, f64 sample period, then f64 little-endian samples.
        w = Waveform(2e-9, np.array([1.0, 2.0]))
        path = tmp_path / "wave.bin"
        write_waveform_bin(path, w)
        raw = path.read_bytes()
        assert len(raw) == 8 + 8 + 2 * 8
        assert int.from_bytes(raw[:8], "little") == 2
        assert np.frombuffer(raw, "<f8", offset=16).tolist() == [1.0, 2.0]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(PicmodError):
            read_waveform_bin(path)

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
        ]
        header = ["f64", "f32", "i64", "bool"]
        write_csv(tmp_path / "x.csv", header, columns)
        # Oracle: one numpy scalar per cell.
        lines = [",".join(header)]
        for i in range(204):
            lines.append(",".join(fmt(c[i]) for c in columns))
        assert (tmp_path / "x.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

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
        for pattern in ("all", "evens", "odds", "single:3", "0,4"):
            res = run_cli(
                "beams", "--config", config_path_795, "--out", str(tmp_path),
                "--active", pattern,
            )
            assert res.exit_code == 0, (pattern, res.output)

    def test_malformed_active_pattern_exits_2(self, config_path_795, tmp_path):
        res = CliRunner().invoke(
            main,
            ["beams", "--config", config_path_795, "--out", str(tmp_path),
             "--active", "single:nope"],
        )
        assert res.exit_code == 2

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


class TestShippedConfigs:
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    @pytest.mark.parametrize(
        "args, name, artifacts", STATIC_COMMANDS, ids=[n for _, n, _ in STATIC_COMMANDS]
    )
    def test_static_commands(self, nm, args, name, artifacts, tmp_path):
        config = str(CONFIG_DIR / f"pic_{nm}nm.yaml")
        res = run_cli(*args, "--config", config, "--out", str(tmp_path))
        expect_fail = nm == 1013 and name == "crosstalk_C"
        assert res.exit_code == (1 if expect_fail else 0), res.output
        report = json.loads((tmp_path / f"{name}_report.json").read_text())
        assert report["passed"] is not expect_fail
        for artifact in artifacts:
            assert (tmp_path / artifact).exists(), artifact
        if name == "crosstalk_C":
            composed = next(m for m in report["metrics"] if m["name"] == "scenario_c_composed")
            assert composed["passed"] is not expect_fail
            if expect_fail:
                assert composed["value"] == pytest.approx(-61.36, abs=0.01)

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
