"""Layer spans recorded from outside picmod, around calls to its public functions.

`install()` replaces each traced function, wherever a picmod module holds a
reference to it, with a wrapper that times the call. A wrapper's self time
is its wall time minus the time of the traced calls made inside it, so the
`busy_s` figures of nested layers add up to the time spent in all of them.
Spans stay in memory as per-name totals and are read out when the process
ends. No traced function is called once per sample: where a module calls a
function inside a per-sample loop, that module's reference stays unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [child_seconds, child_names] per open span

    def wrap(self, fn, name, count=None):
        """Time fn under `name`: a string, or a callable of (bound args, child names).

        count(bound args, result) returns {metric: increment} for work counts.
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([0.0, set()])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child_s, child_names = self._stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = name(bound.arguments, child_names) if callable(name) else name
            if self._stack:
                self._stack[-1][0] += elapsed
                self._stack[-1][1].add(span)
            self.busy[f"{span}.busy_s"] += elapsed - child_s
            self.counts[f"{span}.calls"] += 1
            if count is not None:
                for key, inc in count(bound.arguments, result).items():
                    self.counts[key] += int(inc)
            return result

        return traced

    def snapshot(self) -> dict:
        return {"busy": dict(self.busy), "counts": dict(self.counts)}


def _replace(fn, wrapped, skip=()):
    """Point every picmod module attribute that is `fn` at `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "picmod" and not mod_name.startswith("picmod."):
            continue
        if mod_name in skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics are made of."""
    import picmod.cli  # noqa: F401  (picmod/__init__ does not load it; it holds references)
    from picmod import beams, calibration, config, core, crosstalk, dynamics
    from picmod import fitting, lock, noise, reports, serialize, waveforms

    def plain(mod, fn_name, span, count=None, skip=()):
        fn = getattr(mod, fn_name)
        _replace(fn, tracer.wrap(fn, span, count), skip)

    def convolve_name(args, _children):
        branch = "direct" if args["kernel"].size < dynamics.DIRECT_KERNEL_LIMIT else "fft"
        return f"dynamics.convolve_causal_{branch}"

    def convolve_count(args, _result):
        return {f"{convolve_name(args, None)}.samples": args["samples"].size}

    def lock_name(args, _children):
        return "lock.run_lock_engaged" if args["engaged"] else "lock.run_lock_disengaged"

    def pulse_name(_args, children):
        traced = any(c.startswith("dynamics.convolve_causal") for c in children)
        return "lock.noisy_pulse_trace" if traced else "lock.noisy_pulse_closed"

    plain(calibration, "calibrate", "calibration.calibrate")
    plain(core, "power_split_for_er", "core.power_split_for_er")
    plain(core, "sweep_channel", "core.sweep_channel")
    plain(fitting, "fit_v_pi", "fitting.fit_v_pi")
    # waveforms.target_phase_from_power calls it once per sample: leave that one.
    plain(core, "channel_transmission_equal", "core.channel_transmission_equal",
          lambda a, r: {"core.channel_transmission_equal.samples": np.size(a["voltage"])},
          skip=("picmod.waveforms",))
    plain(crosstalk, "crosstalk_matrix", "crosstalk.crosstalk_matrix",
          lambda a, r: {"crosstalk.crosstalk_matrix.channels": a["graph"].n_channels})
    plain(beams, "target_plane_profile", "beams.target_plane_profile")
    plain(beams, "site_leakage_report", "beams.site_leakage_report")
    plain(dynamics, "synthesize_kernel", "dynamics.synthesize_kernel")
    plain(dynamics, "convolve_causal", convolve_name, convolve_count)
    plain(dynamics, "trace_optical", "dynamics.trace_optical")
    plain(waveforms, "predistort", "waveforms.predistort",
          lambda a, r: {"waveforms.predistort.iterations": r.iterations})
    plain(waveforms, "target_phase_from_power", "waveforms.target_phase_from_power",
          lambda a, r: {"waveforms.target_phase_from_power.samples": np.size(a["target_power"])})
    plain(waveforms, "dynamic_extinction", "waveforms.dynamic_extinction")
    plain(noise, "sample_ou_path", "noise.sample_ou_path",
          lambda a, r: {"noise.sample_ou_path.samples": r.size})
    plain(lock, "run_lock", lock_name,
          lambda a, r: {"lock.updates": round(a["duration"] * a["controller"].update_rate)})
    plain(lock, "noisy_pulse_experiment", pulse_name,
          lambda a, r: {"lock.noisy_pulse.pulses": a["n_pulses"] * a["n_blocks"]})
    plain(serialize, "write_csv", "serialize.write_csv",
          lambda a, r: {"serialize.write_csv.rows": np.size(a["columns"][0])})

    cls = reports.RunReport
    cls.save = tracer.wrap(cls.save, "reports.save")
    cfg = config.ExperimentConfig
    cfg.load = classmethod(tracer.wrap(cfg.load.__func__, "config.load"))
    cfg.channels = tracer.wrap(cfg.channels, "config.channels")
    cfg.actuator = tracer.wrap(cfg.actuator, "config.actuator")
