"""One warm worker: a fresh interpreter that sets up once, then runs operations.

    python perfbench/warm.py WORKLOAD SEED WORKER BUDGET_S TRACE OUT_DIR

The worker imports picmod, loads the shipped configs and builds the objects
its operations reuse, then prints READY; run.py times spawn-to-READY as one
set-up sample. It then runs whole rounds of operations back to back until
BUDGET_S has passed since READY (a fixed count when TRACE is 1), checks
every output against the oracles, and prints one JSON line with its results.
Operations write the CSVs and JSON report of the matching CLI subcommand
into OUT_DIR.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import oracles

CONFIGS = {nm: Path("src/picmod/configs") / f"pic_{nm}nm.yaml" for nm in (420, 795, 1013)}

LOCK_HOURS = 2.0  # simulated lock run per stability operation
ER_EVERY = 60  # run_lock's default ER sampling stride, in updates
ENVELOPE_SAMPLES = 256  # raised-cosine power envelope for target_phase_from_power
NOISY_TRAIN_PULSES = 1000  # trace-path pulse train in pulse_shaping
ZETA = 0.3  # damping ratio of the underdamped second-order actuator
BEAM_X_SAMPLES = 2048  # target-plane profile samples, as the beams subcommand uses
TRACE_OPS = 3  # a traced worker runs whole rounds until it has run this many operations


def op_seed(seed: int, worker: int, index: int) -> int:
    """Seed of the index-th operation of a worker, drawn from the run's seed."""
    return int(np.random.SeedSequence([seed, worker, index]).generate_state(1)[0])


def emit(report, out: Path, name: str) -> None:
    report.finish()
    report.save(out / f"{name}_report.json")


def close(got, want, tol, what, problems, rel=False):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    if rel:
        err = err / np.abs(want)
    if got.shape != want.shape or not np.all(err <= tol):
        worst = float(np.max(err)) if got.shape == want.shape else "shape"
        problems.append(f"{what}: off by {worst} (tolerance {tol})")


def expect(cond, what, problems):
    if not cond:
        problems.append(what)


def split_of(channel) -> float:
    return channel.stages[0].input_coupler.power_split


class Stability:
    """run_lock engaged and disengaged, then short and block pulse statistics."""

    keys = (420, 795, 1013)

    def __init__(self, picmod):
        self.pm = picmod
        self.chips = {}
        for nm, path in CONFIGS.items():
            cfg = picmod.config.ExperimentConfig.load(path)
            self.chips[nm] = dict(
                cfg=cfg,
                channel=cfg.channels()[0],
                controller=cfg.lock_controller(),
                detector=cfg.onchip_detector(),
                short_spec=cfg.pulse_spec(),
                block_spec=cfg.pulse_spec(block=True),
            )

    def run(self, nm, seed, out):
        pm, c = self.pm, self.chips[nm]
        noise = c["cfg"].noise_model(seed=seed)
        duration = LOCK_HOURS * 3600.0
        args = (c["channel"], noise, c["controller"], duration, c["detector"])
        locked = pm.lock.run_lock(*args, engaged=True)
        unlocked = pm.lock.run_lock(*args, engaged=False)
        pl = c["cfg"].data["pulse"]
        short = pm.lock.noisy_pulse_experiment(
            c["channel"], c["short_spec"], noise, pl["n_pulses"], n_blocks=1
        )
        block = pm.lock.noisy_pulse_experiment(
            c["channel"], c["block_spec"], noise, pl["block_n_pulses"], n_blocks=pl["n_blocks"]
        )
        pm.serialize.write_csv(
            out / "lock_er_timeseries.csv",
            ["time_s", "er_locked_db", "er_unlocked_db"],
            [locked.times, locked.er_db, unlocked.er_db],
        )
        pm.serialize.write_csv(
            out / "pulse_area_histogram.csv",
            ["bin_left", "count"],
            [short.histogram_edges[:-1], short.histogram_counts],
        )
        report = pm.reports.RunReport("stability", c["cfg"].hash, seed)
        report.add("er_locked_mean", locked.er_mean_db, "dB")
        report.add("er_unlocked_mean", unlocked.er_mean_db, "dB")
        report.add("lock_degradation", locked.er_mean_db - unlocked.er_mean_db, "dB")
        report.add("locked_fraction", locked.locked_fraction, "")
        report.add("pulse_area_std", short.area_std, "fractional")
        report.add("block_area_std", block.mean_block_std, "fractional")
        emit(report, out, "stability")
        return dict(noise=noise, locked=locked, unlocked=unlocked, short=short, block=block)

    def check(self, nm, o):
        c, problems = self.chips[nm], []
        ch, ctl, det = c["channel"], c["controller"], c["detector"]
        p, n = split_of(ch), ch.n_stages
        n_updates = round(LOCK_HOURS * 3600.0 * ctl.update_rate)
        bias = o["noise"].bias_drift
        rng = oracles.labelled_rng(o["noise"].seed, "lock", "bias-drift")
        drift = oracles.ou_path(bias.sigma, bias.correlation_time, n_updates + 1,
                                1.0 / ctl.update_rate, rng)
        want = oracles.disengaged_er_series(p, n, drift, n_updates, ER_EVERY, det.relative_floor)
        close(o["unlocked"].er_db, want, 1e-9, "disengaged ER series vs drift-path recomputation",
              problems)
        locked_mean, unlocked_mean = o["locked"].er_mean_db, o["unlocked"].er_mean_db
        static = oracles.floor_limited_er_db(p, n, det.relative_floor)
        expect(locked_mean > unlocked_mean,
               f"engaged ER mean {locked_mean} not above disengaged {unlocked_mean}", problems)
        expect(locked_mean <= static + 1e-9,
               f"engaged ER mean {locked_mean} above the static ER {static}", problems)
        pl = c["cfg"].data["pulse"]
        for stats, pulses, blocks in ((o["short"], pl["n_pulses"], 1),
                                      (o["block"], pl["block_n_pulses"], pl["n_blocks"])):
            close(stats.areas.mean(), 1.0, 1e-12, "pulse-area mean", problems)
            expect(int(stats.histogram_counts.sum()) == pulses * blocks,
                   "histogram counts do not sum to the pulse count", problems)
            expect(stats.block_stds.size == blocks, "not one block std per block", problems)
        return problems


class Characterize:
    """calibrate, sweep, crosstalk (8 and 64 channels) and beams of one chip."""

    keys = (420, 795, 1013)

    def __init__(self, picmod):
        self.pm = picmod
        self.chips = {}
        for nm, path in CONFIGS.items():
            cfg = picmod.config.ExperimentConfig.load(path)
            xt = cfg.data["crosstalk"]
            self.chips[nm] = dict(
                cfg=cfg,
                channels=cfg.channels(),
                sweep_detector=cfg.sweep_detector(),
                onchip_detector=cfg.onchip_detector(),
                graphs={n: picmod.crosstalk.nearest_neighbor_graph(
                    n, xt["nn_before_db"], xt["nn_after_db"],
                    xt["nnn_before_db"], xt["nnn_after_db"]) for n in (8, 64)},
            )

    def run(self, nm, seed, out):
        pm, c = self.pm, self.chips[nm]
        cfg = c["cfg"].with_seed(seed)
        calibrated, cal_report = pm.calibration.calibrate(cfg)
        calibrated.save(out / "calibrated_config.yaml")
        emit(cal_report, out, "calibrate")

        v_pi = cfg.data["chip"]["v_pi_volts"]
        sweeps = [pm.core.sweep_channel(ch, 0.0, 2.0 * v_pi, 241, detector=c["sweep_detector"])
                  for ch in c["channels"]]
        sweep_report = pm.reports.RunReport("sweep", cfg.hash, cfg.seed)
        for s in sweeps:
            pm.serialize.write_csv(out / f"sweep_channel_{s.channel_index}.csv",
                                   ["voltage_v", "transmission"], [s.voltages, s.transmissions])
            sweep_report.add(f"channel_{s.channel_index}_v_pi", s.fitted_v_pi, "V")
            sweep_report.add(f"channel_{s.channel_index}_er", s.er_db, "dB")
        emit(sweep_report, out, "sweep")

        er_mean = float(np.mean(cfg.data["chip"]["target_er_db"]))
        t_off = 10.0 ** (-er_mean / 10.0)
        xt = cfg.data["crosstalk"]
        matrices = {}
        for n, graph in c["graphs"].items():
            for scen in pm.crosstalk.Scenario:
                m = pm.crosstalk.crosstalk_matrix(graph, scen, t_on=1.0, t_off=t_off,
                                                  detector=c["onchip_detector"])
                matrices[n, scen.value] = m
                name = f"crosstalk_{scen.value}" if n == 8 else f"crosstalk{n}_{scen.value}"
                pm.serialize.write_csv(out / f"{name}.csv", [f"ch{j}" for j in range(n)],
                                       [m[:, j] for j in range(n)])
                report = pm.reports.RunReport(name, cfg.hash, cfg.seed)
                report.add("nn_mean", pm.crosstalk.nn_mean_db(m), "dB")
                emit(report, out, name)
        predicted = pm.crosstalk.predict_scenario_c_db(er_mean, xt["nn_after_db"])

        bm = cfg.data["beams"]
        array = pm.beams.make_beam_array(bm["n_beams"], range(0, bm["n_beams"], 2),
                                         pitch=bm["pitch_d0"], nn_leak_db=bm["nn_leak_db"],
                                         measurement_floor_db=bm["floor_db"])
        span = (bm["n_beams"] - 1) * bm["pitch_d0"]
        profile = pm.beams.target_plane_profile(
            array, np.linspace(-2.0, span + 2.0, BEAM_X_SAMPLES))
        pm.serialize.write_csv(out / "beam_profile.csv",
                               ["x_over_d0", "intensity", "intensity_db"],
                               [profile.x_over_d0, profile.intensity, profile.intensity_db])
        leaks = pm.beams.site_leakage_report(array)
        beam_report = pm.reports.RunReport("beams", cfg.hash, cfg.seed)
        for leak in leaks:
            beam_report.add(f"site_{leak.site}_leakage", leak.reported_db, "dB")
        emit(beam_report, out, "beams")
        return dict(calibrated=calibrated, cal_report=cal_report, sweeps=sweeps,
                    matrices=matrices, predicted_c=predicted, t_off=t_off,
                    profile=profile, leaks=leaks)

    def check(self, nm, o):
        c, problems = self.chips[nm], []
        chip = c["cfg"].data["chip"]
        n_st, v_pi = chip["n_stages"], chip["v_pi_volts"]
        values = {m.name: m.value for m in o["cal_report"].metrics}
        for ch, target in zip(o["calibrated"].channels(), chip["target_er_db"]):
            i = ch.channel_index
            er = values[f"channel_{i}_er"]
            close(er, oracles.cascade_er_db(split_of(ch), n_st), 1e-9, f"channel {i} ER", problems)
            expect(abs(er - target) <= 0.1, f"channel {i} ER {er} misses target {target}", problems)
            expect(abs(values[f"channel_{i}_v_pi"] - v_pi) <= 0.01 * v_pi,
                   f"calibrate channel {i} v_pi off by more than 1%", problems)
        floor = c["sweep_detector"].relative_floor
        for ch, s in zip(c["channels"], o["sweeps"]):
            close(s.er_db, oracles.floor_limited_er_db(split_of(ch), n_st, floor), 1e-9,
                  f"sweep channel {ch.channel_index} ER", problems)
            expect(abs(s.fitted_v_pi - v_pi) <= 0.01 * v_pi,
                   f"sweep channel {ch.channel_index} v_pi off by more than 1%", problems)

        xt = c["cfg"].data["crosstalk"]
        det_floor = c["onchip_detector"].relative_floor
        for (n, scen), m in o["matrices"].items():
            before = oracles.nn_graph_db(n, xt["nn_before_db"], xt["nnn_before_db"])
            after = oracles.nn_graph_db(n, xt["nn_after_db"], xt["nnn_after_db"])
            want = oracles.crosstalk_matrix_db(before, after, scen, o["t_off"], det_floor)
            close(m, want, 1e-9, f"{n}-channel scenario {scen} matrix", problems)
        er_mean = float(np.mean(chip["target_er_db"]))
        close(o["predicted_c"], oracles.scenario_c_db(er_mean, xt["nn_after_db"]), 1e-9,
              "scenario-C prediction", problems)

        expect(float(o["profile"].intensity.max()) == 1.0, "beam profile does not peak at 1",
               problems)
        bound = c["cfg"].data["beams"]["nn_leak_db"] + 6.1
        worst = max(leak.reported_db for leak in o["leaks"])
        expect(worst <= bound, f"worst idle site {worst} dB above {bound} dB", problems)
        return problems


class PulseShaping:
    """Switch-off design for a first- and a second-order actuator, plus a traced train."""

    keys = (795,)

    def __init__(self, picmod):
        self.pm = picmod
        self.cfg = picmod.config.ExperimentConfig.load(CONFIGS[795])
        self.channel = self.cfg.channels()[0]
        self.actuator = self.cfg.actuator()
        act = self.cfg.data["actuator"]
        kinds = picmod.dynamics.KernelKind
        self.designs = {"first_order": (kinds.FIRST_ORDER, act["damping_ratio"]),
                        "second_order": (kinds.SECOND_ORDER, ZETA)}
        self.rise = act["rise_time_10_90_ns"] * 1e-9
        self.dt = act["sample_period_ns"] * 1e-9
        floor = self.channel.min_transmission() / self.channel.max_transmission()
        k = np.arange(ENVELOPE_SAMPLES)
        self.envelope = floor + (1.0 - floor) * np.sin(np.pi * k / ENVELOPE_SAMPLES) ** 2

    def design(self, name, out):
        pm, ch = self.pm, self.channel
        kind, zeta = self.designs[name]
        resp = pm.dynamics.synthesize_kernel(kind, self.rise, self.dt, damping_ratio=zeta)
        pd = self.cfg.data["predistortion"]
        settle, target = pd["settle_window_us"] * 1e-6, pd["extinction_target"]
        dt = resp.sample_period

        n_pre = max(resp.impulse_kernel.size + 2, int(round(5 * resp.rise_time_10_90 / dt)))
        naive = np.concatenate([np.full(n_pre, ch.v_pi), np.zeros(int(round(settle / dt)))])
        naive_drive = pm.dynamics.Waveform(dt, naive)
        naive_trace = pm.dynamics.trace_optical(ch, resp, naive_drive)
        ext = pm.waveforms.dynamic_extinction(naive_trace, n_pre * dt)
        _, naive_reached = ext.time_to(target)

        phase, switch_time = pm.waveforms.switch_off_target_phase(
            resp, pd["ramp_time_ns"] * 1e-9, settle)
        solution = pm.waveforms.predistort(pm.waveforms.PredistortionProblem(
            target_phase=phase, response=resp, channel=ch, switch_time=switch_time,
            v_max=pd["v_max_over_v_pi"] * ch.v_pi, regularization=pd["regularization"],
            settle_window=settle, extinction_target=target))
        opt_trace = pm.dynamics.trace_optical(ch, resp, solution.drive)
        rise = pm.dynamics.measure_rise_time(pm.dynamics.step_response_trace(
            ch, resp, 0.5 * ch.v_pi, 0.51 * ch.v_pi))

        sub = out / name
        sub.mkdir(exist_ok=True)
        for mode, drive, trace, floor in (("naive", naive_drive, naive_trace, ext.envelope[-1]),
                                          ("optimized", solution.drive, opt_trace,
                                           solution.achieved_floor)):
            pm.serialize.write_trace_csv(sub / f"pulse_{mode}_trace.csv", trace)
            pm.serialize.write_csv(sub / f"pulse_{mode}_drive.csv", ["time_s", "voltage_v"],
                                   [drive.times(), drive.samples])
            report = pm.reports.RunReport(f"pulse_{mode}", self.cfg.hash, self.cfg.seed)
            report.add("small_signal_rise", rise * 1e9, "ns")
            report.add("extinction_floor", floor, "relative power")
            emit(report, sub, f"pulse_{mode}")
        return dict(kernel=resp.impulse_kernel, n_pre=n_pre, naive=naive,
                    naive_floor=float(ext.envelope[-1]), naive_reached=naive_reached,
                    solution=solution, switch_idx=int(round(switch_time / dt)),
                    window_idx=int(round(settle / dt)), target=target, rise=rise)

    def run(self, _nm, seed, out):
        pm = self.pm
        designs = {name: self.design(name, out) for name in self.designs}
        phases = pm.waveforms.target_phase_from_power(self.envelope, self.channel)
        train = pm.lock.noisy_pulse_experiment(
            self.channel, self.cfg.pulse_spec(), self.cfg.noise_model(seed=seed),
            NOISY_TRAIN_PULSES, response=self.actuator)
        return dict(designs=designs, phases=phases, train=train)

    def check(self, _nm, o):
        problems = []
        ch = self.channel
        p, n, v_pi = split_of(ch), ch.n_stages, ch.v_pi
        for name, d in o["designs"].items():
            want = oracles.extinction_floor(d["naive"], d["kernel"], v_pi, p, n, d["n_pre"])
            close(d["naive_floor"], want, 1e-9, f"{name} naive floor", problems, rel=True)
            expect(d["naive_reached"] == (want < d["target"]),
                   f"{name} naive: reached disagrees with the floor", problems)
            sol = d["solution"]
            want = oracles.extinction_floor(sol.drive.samples, d["kernel"], v_pi, p, n,
                                            d["switch_idx"], d["window_idx"])
            close(sol.achieved_floor, want, 1e-9, f"{name} predistorted floor", problems,
                  rel=True)
            expect(sol.converged == (want < d["target"]),
                   f"{name}: converged disagrees with the floor", problems)
            expect(abs(d["rise"] - self.rise) <= 0.02 * self.rise,
                   f"{name} small-signal rise {d['rise']} s not within 2% of {self.rise}",
                   problems)
        close(oracles.cascade_power(p, o["phases"], n), self.envelope, 1e-9,
              "target_phase_from_power round trip", problems, rel=True)
        close(o["train"].areas.mean(), 1.0, 1e-12, "trace-path pulse-area mean", problems)
        return problems


WORKLOADS = {"stability": Stability, "characterize": Characterize,
             "pulse_shaping": PulseShaping}


def main(argv) -> int:
    workload, seed, worker, budget, trace, out = argv
    seed, worker, budget, out = int(seed), int(worker), float(budget), Path(out)
    trace = trace == "1"
    t0 = time.perf_counter()
    import picmod
    import_s = time.perf_counter() - t0
    if Path(picmod.__file__).resolve().parent != (Path.cwd() / "src" / "picmod").resolve():
        print(f"picmod imported from {picmod.__file__}, not from ./src", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    bench = WORKLOADS[workload](picmod)
    print("READY", flush=True)

    out.mkdir(parents=True, exist_ok=True)
    ready = time.perf_counter()
    op_s, cpu_s, problems, errors = [], [], [], []
    index = 0
    # A traced run does a fixed number of operations, so its counts repeat.
    while index < TRACE_OPS if trace else (index == 0 or time.perf_counter() - ready < budget):
        for key in bench.keys:
            s = op_seed(seed, worker, index)
            index += 1
            t, c = time.perf_counter(), time.process_time()
            try:
                outputs = bench.run(key, s, out)
            except picmod.errors.PicmodError as exc:
                errors.append(f"{workload} {key} seed {s}: {exc!r}")
                continue
            op_s.append(time.perf_counter() - t)
            cpu_s.append(time.process_time() - c)
            problems += [f"{workload} {key} seed {s}: {msg}" for msg in bench.check(key, outputs)]
    result = dict(
        import_s=import_s, op_s=op_s, cpu_s=cpu_s, attempted=index, failed=len(errors),
        errors=errors, problems=problems,
        trace=tracer.snapshot() if tracer else None,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
