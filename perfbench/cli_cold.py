"""cli_cold: each operation is one fresh `python -m picmod.cli <subcommand>` process.

A round is 12 calls (see round_calls): every subcommand but stability once,
`crosstalk --scenario C` on all three shipped configs, and the round's sweep
once more with the same seed, whose artifacts must match the first sweep's
byte for byte. Runs attempt whole rounds, so the share of failed operations
is the same in every run. Set-up samples are fresh `python -m picmod.cli
--version` processes taken at the start, the middle and the end of the
first round.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import oracles
from warm import close, expect

CONFIG_NMS = (420, 795, 1013)
CALLS = {
    "calibrate": ["calibrate"],
    "sweep": ["sweep"],
    "pulse_naive": ["pulse", "--mode", "naive"],
    "pulse_optimized": ["pulse", "--mode", "optimized"],
    "crosstalk_A": ["crosstalk", "--scenario", "A"],
    "crosstalk_B": ["crosstalk", "--scenario", "B"],
    "crosstalk_C": ["crosstalk", "--scenario", "C"],
    "beams": ["beams", "--active", "evens"],
    "report": ["report"],
}
CALL_NAMES = list(CALLS)
VERSION_AT = (0, 6)  # first-round positions that take a set-up sample; so does its end


def round_calls(r: int) -> list:
    """(config, call) pairs of round r.

    The calls other than crosstalk C rotate over the three configs with r,
    so three consecutive rounds run every call on every config.
    """
    rotated = [name for name in CALL_NAMES if name != "crosstalk_C"]
    nm_of = {name: CONFIG_NMS[(k + r) % 3] for k, name in enumerate(rotated)}
    calls = [(nm_of[name], name) for name in rotated[:-1]]
    calls += [(nm, "crosstalk_C") for nm in CONFIG_NMS]
    return calls + [(nm_of["report"], "report"), (nm_of["sweep"], "sweep")]


def config_path(nm: int) -> str:
    return f"src/picmod/configs/pic_{nm}nm.yaml"


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def argv_for(nm, name, seed, out: Path, trace_file):
    head = ([sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(trace_file)]
            if trace_file else [sys.executable, "-m", "picmod.cli"])
    if name == "report":
        return head + ["report", str(out)]
    return head + CALLS[name] + ["--config", config_path(nm), "--out", str(out),
                                 "--seed", str(seed)]


def read_csv(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in row.split(",")] for row in rows])


def metrics_of(report: dict) -> dict:
    return {m["name"]: m["value"] for m in report["metrics"]}


class Checker:
    """Expected exit code and output checks for each call, from the oracles."""

    def __init__(self):
        self.cfg = {nm: yaml.safe_load(Path(config_path(nm)).read_text()) for nm in CONFIG_NMS}

    def scenario_c(self, nm):
        cfg = self.cfg[nm]
        er_mean = float(np.mean(cfg["chip"]["target_er_db"]))
        predicted = oracles.scenario_c_db(er_mean, cfg["crosstalk"]["nn_after_db"])
        return predicted, abs(predicted - cfg["crosstalk"]["scenario_c_target_db"]) <= 3.0

    def expected_code(self, nm, name, out: Path) -> int:
        if name == "crosstalk_C":
            return 0 if self.scenario_c(nm)[1] else 1
        if name == "report":
            reports = [json.loads(f.read_text()) for f in out.glob("*_report.json")]
            return 0 if all(r["passed"] for r in reports) else 1
        return 0

    def check(self, nm, name, out: Path, output: str) -> list:
        """What is wrong with the files and output of a call that did not fail."""
        cfg = self.cfg[nm]
        chip = cfg["chip"]
        n_st, v_pi = chip["n_stages"], chip["v_pi_volts"]
        found = []

        if name == "report":
            n_reports = len(list(out.glob("*_report.json")))
            listed = sum(line.startswith(("PASS ", "FAIL ")) for line in output.splitlines())
            expect(listed == n_reports, f"lists {listed} reports of {n_reports}", found)
            return found
        report = json.loads((out / f"{name}_report.json").read_text())
        values = metrics_of(report)
        if name == "calibrate":
            saved = yaml.safe_load((out / "calibrated_config.yaml").read_text())
            splits = saved["chip"]["coupler_power_splits"]
            for i, (p, target) in enumerate(zip(splits, chip["target_er_db"])):
                er = values[f"channel_{i}_er"]
                close(er, oracles.cascade_er_db(p, n_st), 1e-9, f"channel {i} ER", found)
                expect(abs(er - target) <= 0.1, f"channel {i} ER {er} misses {target}", found)
                expect(abs(values[f"channel_{i}_v_pi"] - v_pi) <= 0.01 * v_pi,
                       f"channel {i} v_pi", found)
            expect(report["passed"], "report not passed", found)
        elif name == "sweep":
            floor = 10.0 ** (cfg["detector"]["sweep_floor_db"] / 10.0)
            for i, target in enumerate(chip["target_er_db"]):
                ers = [v for k, v in values.items() if k.startswith(f"channel_{i}_er")]
                want = oracles.floor_limited_er_db(oracles.split_for_er(target, n_st), n_st, floor)
                close(ers, [want], 1e-9, f"channel {i} ER", found)
                expect(abs(values[f"channel_{i}_v_pi"] - v_pi) <= 0.01 * v_pi,
                       f"channel {i} v_pi", found)
                expect(read_csv(out / f"sweep_channel_{i}.csv").shape == (241, 2),
                       f"sweep_channel_{i}.csv is not 241 rows of 2", found)
            expect(report["passed"], "report not passed", found)
        elif name.startswith("pulse"):
            rise = cfg["actuator"]["rise_time_10_90_ns"]
            expect(abs(values["small_signal_rise"] - rise) <= 0.02 * rise, "rise not within 2%",
                   found)
            mode = name.split("_")[1]
            trace = read_csv(out / f"pulse_{mode}_trace.csv")
            drive = read_csv(out / f"pulse_{mode}_drive.csv")
            expect(trace.shape == drive.shape, "trace and drive lengths differ", found)
            if mode == "optimized":
                target = cfg["predistortion"]["extinction_target"]
                expect(report["passed"] == (values["extinction_floor"] < target),
                       "passed disagrees with the extinction floor", found)
        elif name.startswith("crosstalk"):
            scen = name[-1]
            xt = cfg["crosstalk"]
            n = chip["n_channels"]
            t_off = 10.0 ** (-float(np.mean(chip["target_er_db"])) / 10.0)
            floor = 10.0 ** (cfg["detector"]["onchip_floor_db"] / 10.0)
            want = oracles.crosstalk_matrix_db(oracles.nn_graph_db(n, xt["nn_before_db"],
                                                                   xt["nnn_before_db"]),
                                               oracles.nn_graph_db(n, xt["nn_after_db"],
                                                                   xt["nnn_after_db"]),
                                               scen, t_off, floor)
            close(read_csv(out / f"{name}.csv"), want, 1e-9, "matrix", found)
            close(values["nn_mean"], oracles.nn_mean_db(want), 1e-9, "nn_mean", found)
            if scen == "C":
                predicted, passes = self.scenario_c(nm)
                close(values["scenario_c_composed"], predicted, 1e-9, "scenario_c_composed",
                      found)
                expect(report["passed"] == passes, "passed disagrees with the composed level",
                       found)
        elif name == "beams":
            profile = read_csv(out / "beam_profile.csv")
            expect(profile[:, 1].max() == 1.0, "profile does not peak at 1", found)
            bound = cfg["beams"]["nn_leak_db"] + 6.1
            expect(values["worst_idle_site"] <= bound, "worst idle site above the bound", found)
            expect(report["passed"], "report not passed", found)
        return found


def same_artifacts(first: Path, again: Path) -> bool:
    files = sorted(f.name for f in first.glob("sweep*"))
    for f in files:
        a, b = (first / f).read_bytes(), (again / f).read_bytes()
        if f.endswith(".json"):
            a, b = json.loads(a), json.loads(b)
            a.pop("wall_time_s"), b.pop("wall_time_s")
        if a != b:
            return False
    return files == sorted(f.name for f in again.glob("sweep*"))


def run(spawn, seed, seconds, trace, out: Path) -> dict:
    checker = Checker()
    setup, ops, cpu, rss, imports, traces = [], [], [], [], [], []
    walls = {name: [] for name in CALL_NAMES}
    problems, errors = [], []
    attempted = 0
    logs = out / "logs"
    logs.mkdir(parents=True)
    start = time.perf_counter()

    def version_sample():
        child = spawn([sys.executable, "-m", "picmod.cli", "--version"], logs / "version.txt")
        if child.code != 0:
            raise RuntimeError(f"picmod.cli --version exited {child.code}: {child.output}")
        setup.append(child.wall_s)

    r = 0
    while r == 0 or (not trace and time.perf_counter() - start < seconds):
        s = round_seed(seed, r)
        calls = round_calls(seed % 3 + r)
        for k, (nm, name) in enumerate(calls):
            if r == 0 and k in VERSION_AT:
                version_sample()
            repeat = k == len(calls) - 1
            call_out = out / f"r{r}" / (f"{nm}-repeat" if repeat else str(nm))
            call_out.mkdir(parents=True, exist_ok=True)
            trace_file = logs / f"trace-{r}-{k}.json" if trace else None
            child = spawn(argv_for(nm, name, s, call_out, trace_file), logs / f"{r}-{k}.txt")
            attempted += 1
            ops.append(child.wall_s)
            cpu.append(child.cpu_s)
            rss.append(child.rss_mb)
            walls[name].append(child.wall_s)
            if trace_file and trace_file.exists():
                traced = json.loads(trace_file.read_text())
                imports.append(traced["import_s"])
                traces.append(traced["trace"])
            label = f"cli {name} on {nm} nm, seed {s}"
            want = checker.expected_code(nm, name, call_out)
            report = call_out / f"{name}_report.json"
            if child.code != want or (name != "report" and not report.exists()):
                tail = " | ".join(child.output.strip().splitlines()[-2:])
                errors.append(f"{label}: exit {child.code}, expected {want} with a report: {tail}")
                continue
            problems += [f"{label}: {msg}" for msg in
                         checker.check(nm, name, call_out, child.output)]
            if repeat and not same_artifacts(out / f"r{r}" / str(nm), call_out):
                problems.append(f"{label}: repeated call's artifacts differ")
        if r == 0:
            version_sample()
        r += 1
    layers = {f"cli.{name}.p50_s": statistics.median(w) for name, w in walls.items() if w}
    return dict(setup=setup, ops=ops, cpu=cpu, rss=max(rss), imports=imports,
                attempted=attempted, failed=len(errors), problems=problems, errors=errors,
                traces=traces, layers=layers)
