"""Acceptance suite: the headline numbers the package must reproduce.

Each test prints one PASS/FAIL line (run with -s or check captured output)
and asserts the stated tolerance. Criteria 1-9 exercise the calibrated
configurations; criterion 10 runs structural invariants with no calibrated
values at all.
"""

import math
import time

import numpy as np

from picmod.beams import intensity_profile, make_beam_array, site_leakage_report
from picmod.core import (
    make_calibrated_channel,
    power_split_for_er,
    sweep_channel,
)
from picmod.crosstalk import (
    Scenario,
    crosstalk_matrix,
    nearest_neighbor_graph,
    nn_mean_db,
    predict_scenario_c_db,
)
from picmod.dynamics import convolve_causal, measure_rise_time, step_response_trace
from picmod.lock import LockController, noisy_pulse_experiment, run_lock
from picmod.noise import DetectorModel, NoiseModel, OuParams, sample_ou_path
from picmod.rng import derive_rng
from picmod.waveforms import (
    PredistortionProblem,
    PulseSpec,
    dynamic_extinction,
    predistort,
    switch_off_target_phase,
)

from conftest import stage_matrix


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_static_er_795(self, config_795):
        t0 = time.perf_counter()
        ers = []
        for ch in config_795.channels():
            res = sweep_channel(ch, 0.0, 2 * 74.7, 241, detector=config_795.sweep_detector())
            ers.append(res.er_db)
        elapsed = time.perf_counter() - t0
        mean = float(np.mean(ers))
        ok = abs(mean - 71.4) <= 2.0 and min(ers) > 70.0 and elapsed < 1.0
        verdict(
            "1 static ER 795 nm",
            ok,
            f"mean {mean:.2f} dB (target 71.4 +/- 2), min {min(ers):.2f} dB (> 70), "
            f"runtime {elapsed:.2f} s (< 1)",
        )

    def test_02_v_pi_recovery(self, config_795, config_1013, config_420):
        from picmod.core import channel_transmission_equal
        from picmod.fitting import fit_v_pi

        oks, details = [], []
        for cfg, v_pi in ((config_795, 74.7), (config_1013, 200.0), (config_420, 44.4)):
            ch = cfg.channels()[0]
            clean = sweep_channel(ch, 0.0, 2 * v_pi, 241, DetectorModel())
            err_clean = abs(clean.fitted_v_pi - v_pi) / v_pi
            volts = np.linspace(0, 2 * v_pi, 241)
            trans = channel_transmission_equal(ch, volts, include_loss=False)
            rng = derive_rng(cfg.seed, "acceptance-vpi-noise")
            noisy = np.clip(trans * (1 + 0.01 * rng.standard_normal(241)), 0, None)
            fit = fit_v_pi(volts, noisy ** (1.0 / ch.n_stages))
            err_noisy = abs(fit.v_pi - v_pi) / v_pi
            oks.append(err_clean <= 0.01 and err_noisy <= 0.02)
            details.append(
                f"{v_pi} V: clean {100 * err_clean:.3f}%, noisy {100 * err_noisy:.2f}%"
            )
        verdict("2 v_pi recovery", all(oks), "; ".join(details))

    def test_03_detector_floor_clamping(self):
        ch = make_calibrated_channel(44.4, power_split_for_er(70.0, 2), 2)
        det = DetectorModel(relative_floor=10 ** (-4.24))
        res = sweep_channel(ch, 0.0, 88.8, 241, detector=det)
        ok = abs(res.er_db - 42.4) < 1e-9 and res.detector_limited
        verdict(
            "3 detector-floor clamping",
            ok,
            f"true-70 dB channel through -42.4 dB floor reports {res.er_db:.4f} dB",
        )

    def test_04_rise_time(self, config_795, config_1013, config_420):
        oks, details = [], []
        for cfg in (config_795, config_1013, config_420):
            ch = cfg.channels()[0]
            resp = cfg.actuator()
            # Small-signal step about quadrature: there the optical map is
            # locally linear and the trace reproduces the actuator's rise.
            step = step_response_trace(ch, resp, ch.v_pi / 2, ch.v_pi / 2 * 1.02)
            rise = measure_rise_time(step)
            oks.append(abs(rise - 26e-9) <= 2e-9)
            details.append(f"{cfg.data['wavelength_nm']} nm: {rise * 1e9:.1f} ns")
        verdict("4 optical rise time 26 +/- 2 ns", all(oks), "; ".join(details))

    def test_05_dynamic_extinction(self, channel_714, so_response):
        t0 = time.perf_counter()
        naive = step_response_trace(channel_714, so_response, 74.7, 0.0)
        naive_ext = dynamic_extinction(naive, 2e-9)
        window = naive_ext.envelope[naive_ext.times <= 1e-6]
        naive_exceeds = bool(np.max(window[naive_ext.times[: window.size] > 50e-9]) > 1e-6)

        phase, switch_time = switch_off_target_phase(so_response, 52e-9, 1e-6)
        sol = predistort(
            PredistortionProblem(
                target_phase=phase,
                response=so_response,
                channel=channel_714,
                switch_time=switch_time,
                v_max=2 * 74.7,
            )
        )
        # Independent forward verification of the returned drive.
        from picmod.dynamics import trace_optical

        ext = dynamic_extinction(
            trace_optical(channel_714, so_response, sol.drive), switch_time
        )
        t_floor, reached = ext.time_to(1e-6)
        elapsed = time.perf_counter() - t0
        ok = naive_exceeds and reached and t_floor <= 1e-6 and elapsed < 30.0
        verdict(
            "5 dynamic extinction (second-order, damping 0.3)",
            ok,
            f"naive rings above 1e-6: {naive_exceeds}; predistorted reaches 1e-6 "
            f"at {t_floor * 1e9:.0f} ns (floor {sol.achieved_floor:.2e}), "
            f"runtime {elapsed:.1f} s (< 30)",
        )

    def test_06_pulse_stability(self, channel_714):
        spec = PulseSpec(0.5e-6, 1e-6)
        block_spec = PulseSpec(0.5e-3, 1e-3)
        area_stds, block_stds = [], []
        for seed in range(20):
            noise = NoiseModel(
                bias_drift=OuParams(0.3, 600.0),
                amplitude_jitter_sigma=0.001,
                v_pi_drift=OuParams(0.0125, 0.5),
                seed=seed,
            )
            area_stds.append(
                noisy_pulse_experiment(channel_714, spec, noise, 1000).area_std
            )
            block_stds.append(
                noisy_pulse_experiment(
                    channel_714, block_spec, noise, 1000, n_blocks=500
                ).mean_block_std
            )
        area = float(np.mean(area_stds))
        block = float(np.mean(block_stds))
        ok = abs(area - 0.0010) <= 0.0002 and abs(block - 0.0013) <= 0.0003
        verdict(
            "6 pulse stability (20 seeds)",
            ok,
            f"1000-pulse std {100 * area:.3f}% (0.10 +/- 0.02), "
            f"500 s block std {100 * block:.3f}% (0.13 +/- 0.03)",
        )

    def test_07_bias_lock(self, channel_714):
        t0 = time.perf_counter()
        noise = NoiseModel(bias_drift=OuParams(0.3, 600.0), seed=42)
        det = DetectorModel(relative_floor=1e-8)
        locked = run_lock(channel_714, noise, LockController(), 20 * 3600.0, det)
        unlocked = run_lock(
            channel_714, noise, LockController(), 20 * 3600.0, det, engaged=False
        )
        degradation = locked.er_mean_db - unlocked.er_mean_db
        elapsed = time.perf_counter() - t0
        ok = (
            66.8 <= locked.er_mean_db <= 72.8
            and locked.er_std_db <= 3.0
            and degradation >= 20.0
            and elapsed < 60.0
        )
        verdict(
            "7 bias lock over 20 h",
            ok,
            f"locked {locked.er_mean_db:.1f} +/- {locked.er_std_db:.1f} dB "
            f"(target 69.8 +/- 3.0), unlocked degraded by {degradation:.1f} dB (>= 20), "
            f"runtime {elapsed:.1f} s (< 60)",
        )

    def test_08_crosstalk_scenarios(self):
        graph = nearest_neighbor_graph(8, before_nn_db=-45.3, after_nn_db=-76.2)
        t_off = 10 ** (-7.14)
        a = nn_mean_db(crosstalk_matrix(graph, Scenario.A, 1.0, t_off, DetectorModel()))
        b = nn_mean_db(crosstalk_matrix(graph, Scenario.B, 1.0, t_off, DetectorModel()))
        c_pred = predict_scenario_c_db(71.4, -76.2)
        c = nn_mean_db(crosstalk_matrix(graph, Scenario.C, 1.0, t_off, DetectorModel()))
        ordering = b > c > a
        ok = (
            abs(a - (-76.2)) <= 0.5
            and abs(b - (-45.3)) <= 0.5
            and abs(c_pred - (-68.0)) <= 3.0
            and ordering
        )
        verdict(
            "8 crosstalk scenarios",
            ok,
            f"A {a:.1f} dB (-76.2 +/- 0.5), B {b:.1f} dB (-45.3 +/- 0.5), "
            f"C composed {c_pred:.1f} dB (within 3 of -68.0), ordering B>C>A: {ordering}",
        )

    def test_09_beam_delivery(self):
        array = make_beam_array(8, [0], pitch=4.33, nn_leak_db=-50.8)
        leaks = {l.site: l for l in site_leakage_report(array)}
        nn = leaks[1].reported_db
        tail_db = 10 * math.log10(
            intensity_profile(make_beam_array(8, [0], nn_leak_db=-1000.0), [4.33])[0]
        )
        nnn_flagged = all(leaks[s].floor_limited for s in range(2, 8))
        ok = abs(nn - (-50.8)) <= 0.2 and tail_db < -300 and nnn_flagged
        verdict(
            "9 beam delivery",
            ok,
            f"NN leak {nn:.2f} dB (-50.8 +/- 0.2), pure Gaussian tail {tail_db:.0f} dB "
            f"(< -300), NNN floor-flagged at -65 dB: {nnn_flagged}",
        )

    def test_10_property_backbone(self):
        # Structural invariants with no hardware-calibrated values.
        rng = np.random.default_rng(0)
        # energy conservation
        energy_ok = True
        for _ in range(200):
            ch = make_calibrated_channel(
                v_pi=rng.uniform(10, 300), power_split=rng.uniform(0.3, 0.7)
            )
            m = stage_matrix(ch.stage, rng.uniform(-300, 300))
            energy_ok &= abs(abs(m[0, 0]) ** 2 + abs(m[1, 0]) ** 2 - 1) < 1e-12
        # dB-additivity
        add_ok = True
        for _ in range(100):
            split = rng.uniform(0.45, 0.55)
            if abs(split - 0.5) < 1e-3:
                continue
            stage_er = -20 * math.log10(abs(2 * (split - 0.5))) + 10 * math.log10(
                make_calibrated_channel(1.0, split, 1).max_transmission()
            )
            ch2 = make_calibrated_channel(1.0, split, 2)
            add_ok &= abs(ch2.extinction_ratio_db() - 2 * stage_er) < 0.1
        # convolution oracle
        x = rng.standard_normal(256)
        k = rng.standard_normal(32)
        direct = np.array(
            [sum(x[i - m] * k[m] for m in range(min(i + 1, 32))) for i in range(256)]
        )
        conv_ok = bool(np.max(np.abs(convolve_causal(x, k) - direct)) < 1e-10)
        # OU stationarity
        stds = [
            np.std(sample_ou_path(1.0, 50.0, 20000.0, 5.0, rng=derive_rng(s, "ou-path")))
            for s in range(10)
        ]
        ou_ok = abs(np.mean(stds) - 1.0) < 0.10
        # determinism
        a = sample_ou_path(0.5, 10.0, 1000.0, 1.0, rng=derive_rng(99, "ou-path"))
        b = sample_ou_path(0.5, 10.0, 1000.0, 1.0, rng=derive_rng(99, "ou-path"))
        det_ok = bool(np.array_equal(a, b))
        ok = energy_ok and add_ok and conv_ok and ou_ok and det_ok
        verdict(
            "10 property backbone",
            ok,
            f"energy {energy_ok}, dB-additivity {add_ok}, convolution {conv_ok}, "
            f"OU stationarity {ou_ok}, determinism {det_ok}",
        )
