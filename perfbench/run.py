"""picmod benchmark: one named workload per call, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; picmod is imported from ./src.
Load is a closed loop with one client: operations run back to back and at
most one child process runs at a time. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS/OpenMP thread everywhere, so no library thread pool runs beside the
# timed work.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import cli_cold  # noqa: E402

WARM_WORKERS = 3  # fresh interpreters per warm run: set-up samples, each runs a share of ops
CHILD_TIMEOUT_S = 150.0
WORK_DIR = Path(".perfbench_work")
WORKLOADS = ("stability", "characterize", "pulse_shaping", "cli_cold")

PER_LAYER = [
    "python.start_s", "picmod.import_s",
    "config.load.busy_s", "config.channels.busy_s", "config.actuator.busy_s",
    "lock.run_lock_engaged.busy_s", "lock.run_lock_disengaged.busy_s", "lock.updates",
    "noise.sample_ou_path.busy_s", "noise.sample_ou_path.samples",
    "lock.noisy_pulse_closed.busy_s", "lock.noisy_pulse_trace.busy_s", "lock.noisy_pulse.pulses",
    "calibration.calibrate.busy_s", "core.power_split_for_er.busy_s",
    "core.power_split_for_er.calls", "core.sweep_channel.busy_s",
    "fitting.fit_v_pi.busy_s", "fitting.fit_v_pi.calls",
    "crosstalk.crosstalk_matrix.busy_s", "crosstalk.crosstalk_matrix.channels",
    "beams.target_plane_profile.busy_s", "beams.site_leakage_report.busy_s",
    "dynamics.synthesize_kernel.busy_s",
    "dynamics.convolve_causal_direct.busy_s", "dynamics.convolve_causal_direct.samples",
    "dynamics.convolve_causal_fft.busy_s", "dynamics.convolve_causal_fft.samples",
    "dynamics.trace_optical.busy_s",
    "core.channel_transmission_equal.busy_s", "core.channel_transmission_equal.samples",
    "waveforms.predistort.busy_s", "waveforms.predistort.iterations",
    "waveforms.target_phase_from_power.busy_s", "waveforms.target_phase_from_power.samples",
    "waveforms.dynamic_extinction.busy_s",
    "serialize.write_csv.busy_s", "serialize.write_csv.rows", "reports.save.busy_s",
    *[f"cli.{name}.p50_s" for name in cli_cold.CALL_NAMES],
    "machine.ref_s",
]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    code: int
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system time of the child
    rss_mb: float  # peak resident memory of the child
    output: str  # stdout (and stderr when written to a file)
    ready_s: float | None  # spawn to its READY line, when asked for


def spawn(argv, stdout_path=None, ready=False) -> Child:
    """Run one child to its end and wait for it.

    With ready=True the child's first stdout line must be READY, and the
    time from spawn to that line is kept. The child is killed if it
    outlives CHILD_TIMEOUT_S.
    """
    sink = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT if stdout_path
                                else None, env=child_env())
    finally:
        if stdout_path:
            sink.close()
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready_s, output = None, b""
    try:
        if ready:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            if first.strip() != b"READY":
                output, ready_s = first, None
        if proc.stdout is not None:
            output += proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if stdout_path:
        output = Path(stdout_path).read_bytes()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, output.decode(errors="replace"), ready_s)


def ref_loop() -> float:
    """Fixed pure-Python work; its time shows how fast the machine runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def python_start_s() -> float:
    return statistics.median(
        spawn([sys.executable, "-c", "pass"]).wall_s for _ in range(3))


def describe(values) -> str:
    if not values:
        return "n=0"
    qs = statistics.quantiles(values, n=10) if len(values) >= 2 else [values[0]] * 9
    return (f"n={len(values)} min={min(values):.4f} p50={statistics.median(values):.4f} "
            f"mean={statistics.fmean(values):.4f} p90={qs[8]:.4f} max={max(values):.4f}")


def run_warm(workload, seed, seconds, trace, out):
    setup, ops, cpu, rss, imports = [], [], [], [], []
    attempted = failed = 0
    problems, errors, traces = [], [], []
    for worker in range(WARM_WORKERS):
        argv = [sys.executable, str(HERE / "warm.py"), workload, str(seed), str(worker),
                repr(seconds / WARM_WORKERS), "1" if trace else "0", str(out / f"w{worker}")]
        child = spawn(argv, ready=True)
        lines = child.output.strip().splitlines()
        if child.code != 0 or child.ready_s is None or not lines:
            raise RuntimeError(f"warm worker {worker} exited {child.code}: {child.output[-2000:]}")
        res = json.loads(lines[-1])
        setup.append(child.ready_s)
        ops += res["op_s"][1:]  # the first operation of a fresh process fills its caches
        cpu += res["cpu_s"][1:]
        rss.append(child.rss_mb)
        imports.append(res["import_s"])
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["problems"]
        errors += res["errors"]
        traces.append(res["trace"])
    return dict(setup=setup, ops=ops, cpu=cpu, rss=max(rss), imports=imports,
                attempted=attempted, failed=failed, problems=problems, errors=errors,
                traces=traces, layers={})


def layer_metrics(res, ref) -> dict:
    busy, counts = {}, {}
    for tr in res["traces"]:
        for key, v in tr["busy"].items():
            busy[key] = busy.get(key, 0.0) + v
        for key, v in tr["counts"].items():
            counts[key] = counts.get(key, 0) + v
    values = {"python.start_s": python_start_s(),
              "picmod.import_s": statistics.median(res["imports"]),
              "machine.ref_s": ref, **res["layers"]}
    metrics = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = {"value": float(values.get(name, busy.get(name, 0.0))), "unit": "s"}
        else:
            metrics[name] = {"value": int(counts.get(name, 0)), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/picmod/__init__.py").is_file():
        print("run from the root of a picmod checkout: src/picmod is missing", file=sys.stderr)
        return 2
    compileall.compile_dir("src/picmod", quiet=1)  # cold starts read bytecode, as installed

    cpus = len(os.sched_getaffinity(0))
    print(f"# nproc {cpus}  python {platform.python_version()}  numpy {np.__version__}  "
          f"scipy {metadata.version('scipy')}  "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")

    out = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ref_start = [ref_loop() for _ in range(3)]
    try:
        if args.workload == "cli_cold":
            res = cli_cold.run(spawn, args.seed, args.seconds, bool(args.trace), out)
        else:
            res = run_warm(args.workload, args.seed, args.seconds, bool(args.trace), out)
    except RuntimeError as exc:  # a child could not run: no result
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    ref_end = [ref_loop() for _ in range(3)]

    print(f"# machine.ref_s start {statistics.median(ref_start):.4f}  "
          f"end {statistics.median(ref_end):.4f}")
    print(f"# setup_s samples {' '.join(f'{s:.4f}' for s in res['setup'])}")
    print(f"# op_s {describe(res['ops'])}  cpu/wall {sum(res['cpu']) / sum(res['ops']):.3f}"
          if res["ops"] else "# op_s n=0")
    for line in res["errors"]:
        print(f"# FAILED {line}")
    for line in res["problems"]:
        print(f"# WRONG {line}")
    if not res["ops"]:
        print("no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(res, statistics.median(ref_start + ref_end))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
            "op_s.p50": {"value": statistics.median(res["ops"]), "unit": "s"},
            "peak_rss_mb": {"value": res["rss"], "unit": "MB"},
        }
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
