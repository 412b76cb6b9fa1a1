"""The benchmark's layer tracer still finds every picmod name it wraps."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter: `install()` rebinds picmod's module
# attributes for the whole process. Prints the tracer's counts.
TRACED_PULSES = """
import json, sys
import tracer as tracing
from picmod.config import ExperimentConfig
from picmod.experiments import run_pulse

tracer = tracing.Tracer()
tracing.install(tracer)
cfg = ExperimentConfig.load(sys.argv[1])
run_pulse(cfg, "optimized")
run_pulse(cfg, "naive")
print(json.dumps(tracer.snapshot()["counts"]))
"""


def test_tracer_installs_and_counts_predistortion():
    config = ROOT / "src" / "picmod" / "configs" / "pic_795nm.yaml"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PULSES, str(config)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["waveforms.predistort.calls"] == 1
    assert counts["waveforms.predistort.iterations"] == 0
    assert counts["dynamics.trace_optical.calls"] >= 2
