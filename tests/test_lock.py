"""Bias-lock controller and long-run pulse stability experiments."""

import copy
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from picmod.config import ExperimentConfig
from picmod.core import make_calibrated_channel, power_split_for_er
from picmod.dynamics import DIRECT_KERNEL_LIMIT, Waveform, convolve_causal, trace_optical
from picmod.errors import PicmodError
from picmod.experiments import run_stability
from picmod.lock import (
    _TRACE_CHUNK_SAMPLES,
    ER_SAMPLE_EVERY,
    LOCKED_MARGIN_DB,
    LOCKED_RESIDUAL,
    LockController,
    LockRunResult,
    _correction_path,
    noisy_pulse_experiment,
    run_lock,
)
from picmod.noise import DetectorModel, NoiseModel, OuParams, sample_ou_path
from picmod.rng import derive_rng
from picmod.waveforms import PulseSpec, pulse_period

from conftest import CONFIG_DIR, stage_terms

DET = DetectorModel(relative_floor=1e-8)


def per_stage_transmission(channel, phase):
    """Oracle: one sin per stage, each stage's power multiplied in order.

    sin^2 is s * s: numpy squares an array by multiplication but a scalar
    with libm's pow, which misrounds some squares by one ulp.
    """
    out = 1.0
    a, b = stage_terms(channel.stage)
    for _ in range(channel.n_stages):
        s = np.sin(phase * 0.5)
        out = out * ((a - b) * (a - b) + s * s * (4 * a * b))
    return out


def reference_run_lock(channel, noise, controller, duration, detector, engaged=True):
    """Oracle: one Python iteration per update doing every step of the run.

    Every reading is the power floored at the detector's relative_floor,
    and each ER sample whose OFF power is at or below the floor counts as
    detector-limited.
    """
    dt = 1.0 / controller.update_rate
    n_updates = int(round(duration * controller.update_rate))
    drift = sample_ou_path(
        noise.bias_drift.sigma,
        noise.bias_drift.correlation_time,
        duration,
        dt,
        rng=derive_rng(noise.seed, "lock", "bias-drift"),
    )

    peak = per_stage_transmission(channel, math.pi)
    floor = detector.relative_floor
    d = controller.dither_amplitude

    def meas(power):
        return power if power > floor else floor

    correction = 0.0
    integ = 0.0
    times = []
    ers = []
    limited = 0
    on_static = meas(1.0)
    off_static = meas(per_stage_transmission(channel, 0.0) / peak)
    er_static = 10.0 * math.log10(on_static / off_static)
    for k in range(n_updates):
        eps = drift[k] + correction
        if engaged:
            p_plus = meas(per_stage_transmission(channel, eps + d) / peak)
            p_minus = meas(per_stage_transmission(channel, eps - d) / peak)
            grad = (p_plus - p_minus) / (2.0 * d)
            integ += controller.gain_i * grad
            integ = min(max(integ, -controller.integrator_limit), controller.integrator_limit)
            step = controller.gain_p * grad + integ
            step = min(max(step, -controller.max_step), controller.max_step)
            correction -= step
            if abs(correction) > math.pi:
                raise PicmodError(
                    f"bias correction diverged to {correction:.3f} rad at update {k} "
                    f"(unstable gains?)"
                )
        eps = drift[k] + correction
        if k % ER_SAMPLE_EVERY == 0:
            p_off = per_stage_transmission(channel, eps) / peak
            limited += int(p_off <= floor)
            p_on_meas = meas(per_stage_transmission(channel, math.pi + eps) / peak)
            times.append(k * dt)
            ers.append(10.0 * math.log10(p_on_meas / meas(p_off)))

    times = np.asarray(times)
    ers = np.asarray(ers)
    return LockRunResult(
        times=times,
        er_db=ers,
        locked_fraction=float(np.mean(ers >= er_static - LOCKED_MARGIN_DB)),
        er_mean_db=float(np.mean(ers)),
        er_std_db=float(np.std(ers)),
        final_error_rad=float(drift[n_updates - 1] + correction),
        detector_limited_samples=limited,
    )


def assert_same_run(got, want):
    for f in fields(LockRunResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


@pytest.fixture(scope="module")
def channel():
    return make_calibrated_channel(74.7, power_split_for_er(71.4, 2), 2)


@pytest.fixture(scope="module")
def drift_noise():
    return NoiseModel(
        bias_drift=OuParams(sigma=0.3, correlation_time=600.0),
        amplitude_jitter_sigma=0.001,
        v_pi_drift=OuParams(sigma=0.0125, correlation_time=0.5),
        seed=42,
    )


class TestClosedForm:
    def test_matches_full_matrix_model(self, channel):
        from picmod.core import channel_transmission_equal

        phases = np.linspace(0, 2 * np.pi, 41)
        volts = phases * 74.7 / np.pi
        full = channel_transmission_equal(channel, volts, include_loss=False)
        fast = channel.power_at_phase(phases)
        assert np.allclose(full, fast, atol=1e-14)

    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    def test_one_sin_per_call_equals_per_stage_form(self, n_stages):
        rng = np.random.default_rng(n_stages)
        split = power_split_for_er(71.4, 2)
        calibrated = make_calibrated_channel(74.7, split, n_stages)
        phases = rng.uniform(-4 * np.pi, 4 * np.pi, 4001)
        assert np.array_equal(
            calibrated.power_at_phase(phases), per_stage_transmission(calibrated, phases)
        )
        for phase in (0.0, math.pi, float(phases[7])):
            assert calibrated.power_at_phase(phase) == per_stage_transmission(calibrated, phase)


class TestRunLock:
    def test_zero_drift_holds_static_er(self, channel):
        quiet = NoiseModel(bias_drift=OuParams(0.0, 1.0), seed=0)
        res = run_lock(channel, quiet, LockController(), 100.0, DET)
        assert res.er_mean_db == pytest.approx(71.4, abs=0.05)
        assert res.er_std_db < 1e-9
        assert res.locked_fraction == 1.0

    def test_null_seeking_from_static_offset(self, channel):
        # The cascade null is quartic, so the dither gradient vanishes as
        # error^3: against a constant 0.3 rad bias error the controller
        # reaches the locked band (< 0.05 rad) within 50 updates and the
        # sub-dither regime within 500.
        peak = float(channel.power_at_phase(math.pi))
        path = _correction_path(channel, np.full(500, 0.3), peak, LockController(), DET)
        assert abs(0.3 + path[49]) < 0.05
        assert abs(0.3 + path[-1]) < 1e-3

    def test_locked_20h_statistics(self, channel, drift_noise):
        res = run_lock(channel, drift_noise, LockController(), 20 * 3600.0, DET)
        assert 66.8 <= res.er_mean_db <= 72.8
        assert res.er_std_db <= 3.0
        assert res.locked_fraction > 0.9

    def test_unlocked_degrades_on_same_drift_path(self, channel, drift_noise):
        locked = run_lock(channel, drift_noise, LockController(), 20 * 3600.0, DET)
        unlocked = run_lock(
            channel, drift_noise, LockController(), 20 * 3600.0, DET, engaged=False
        )
        assert locked.er_mean_db - unlocked.er_mean_db >= 20.0

    def test_near_balanced_couplers_on_an_ideal_detector(self, config_795):
        # The schema accepts splits 1e-9 off balance and a -inf dB floor.
        # The null, (2e-9)^4 = 1.6e-35, is positive, so the static ER is
        # finite only if the fringe does not cancel to 0 there.
        data = copy.deepcopy(config_795.data)
        data["chip"]["coupler_power_splits"] = [0.500000001] * data["chip"]["n_channels"]
        data["detector"]["onchip_floor_db"] = -math.inf
        cfg = ExperimentConfig(data)
        channel = cfg.channels()[0]
        assert cfg.onchip_detector() == DetectorModel(0.0)
        assert channel.power_at_phase(0.0) > 0
        args = (channel, cfg.noise_model(), cfg.lock_controller(), 600.0, DetectorModel(0.0))
        res = run_lock(*args)
        assert math.isfinite(res.er_mean_db) and res.detector_limited_samples == 0

    def test_unstable_gains_abort(self, channel, drift_noise):
        bad = LockController(gain_p=-500.0, gain_i=0.0, max_step=1.0)
        with pytest.raises(PicmodError, match="bias correction diverged"):
            run_lock(channel, drift_noise, bad, 3600.0, DET)

    def test_duration_too_short(self, channel, drift_noise):
        with pytest.raises(PicmodError):
            run_lock(channel, drift_noise, LockController(), 0.01, DET)

    @pytest.mark.parametrize(
        "engaged, n_limited", [(True, 82), (False, 2)], ids=["engaged", "disengaged"]
    )
    def test_floor_above_off_power_limits_er(self, channel, drift_noise, engaged, n_limited):
        # A floor of 1e-7 sits above the locked OFF power (about 7e-8):
        # an OFF reading at the floor gives a 70 dB ER sample, which counts
        # as detector-limited.
        det = DetectorModel(1e-7)
        res = run_lock(channel, drift_noise, LockController(), 1800.0, det, engaged=engaged)
        assert res.er_db.size == 150 and res.er_db.max() == pytest.approx(70.0, abs=1e-3)
        assert res.er_db.max() <= 70.0
        assert res.detector_limited_samples == n_limited

    @pytest.mark.parametrize("engaged", [True, False], ids=["engaged", "disengaged"])
    def test_perfect_null_without_floor_rejected(self, engaged):
        # Balanced couplers null exactly; a zero-floor detector reads the
        # static OFF power as 0, which the static ER would divide by.
        balanced = make_calibrated_channel(74.7, 0.5, 2)
        noise = NoiseModel(bias_drift=OuParams(0.01, 600.0), seed=0)
        with pytest.raises(PicmodError, match="null reads 0"):
            run_lock(balanced, noise, LockController(), 1800.0, DetectorModel(), engaged=engaged)

    def test_controller_validation(self):
        with pytest.raises(PicmodError):
            LockController(update_rate=0.0)
        with pytest.raises(PicmodError):
            LockController(dither_amplitude=0.0)
        # The lock's branch clamps equal min(max(x, -lim), lim) only for
        # limits >= 0 (-0.0 included).
        for limits in ({"max_step": -0.01}, {"integrator_limit": -0.01}):
            with pytest.raises(PicmodError, match="non-negative"):
                LockController(**limits)
        LockController(max_step=-0.0, integrator_limit=0.0)


class TestRunLockOracle:
    """run_lock must return exactly what the per-update loop returns."""

    @pytest.mark.parametrize("engaged", [True, False], ids=["engaged", "disengaged"])
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_shipped_configs_one_hour(self, nm, seed, engaged):
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        args = (
            cfg.channels()[0],
            cfg.noise_model(seed=seed),
            cfg.lock_controller(),
            3600.0,
            cfg.onchip_detector(),
        )
        assert_same_run(
            run_lock(*args, engaged=engaged), reference_run_lock(*args, engaged=engaged)
        )

    def test_quiet_static_offset(self, channel):
        # A drift this slow is a static bias error: 0.276 rad on seed 7,
        # which the lock pulls in from.
        quiet = NoiseModel(bias_drift=OuParams(0.3, 1e9), seed=7)
        args = (channel, quiet, LockController(), 100.0, DET)
        assert_same_run(run_lock(*args), reference_run_lock(*args))

    @pytest.mark.parametrize("engaged", [True, False], ids=["engaged", "disengaged"])
    def test_ideal_detector(self, channel, drift_noise, engaged):
        # A zero floor reads every power as it is.
        args = (channel, drift_noise, LockController(), 1800.0, DetectorModel())
        assert_same_run(
            run_lock(*args, engaged=engaged), reference_run_lock(*args, engaged=engaged)
        )

    @pytest.mark.parametrize("engaged", [True, False], ids=["engaged", "disengaged"])
    def test_floor_above_off_power(self, channel, drift_noise, engaged):
        # The dither readings and most locked ER samples read the floor.
        args = (channel, drift_noise, LockController(), 1800.0, DetectorModel(1e-7))
        assert_same_run(
            run_lock(*args, engaged=engaged), reference_run_lock(*args, engaged=engaged)
        )

    @pytest.mark.parametrize("n_stages", [1, 3])
    def test_stage_counts(self, drift_noise, n_stages):
        # Every shipped config has 2 stages; the loop multiplies in each
        # further stage's power.
        channel = make_calibrated_channel(74.7, power_split_for_er(71.4, n_stages), n_stages)
        args = (channel, drift_noise, LockController(), 1800.0, DET)
        assert_same_run(run_lock(*args), reference_run_lock(*args))

    @pytest.mark.parametrize("seed, offset", [(0, 0.3), (1, -0.3)])
    def test_static_offset_saturates_both_clamps(self, channel, seed, offset):
        # A drift this slow holds its first sample, sigma times the seed's
        # first normal draw; sigma makes that sample the offset. At these
        # gains the lock pulls in at the step limit and then limit-cycles
        # about the null, so the integrator and the step each reach both
        # of their limits.
        sigma = offset / derive_rng(seed, "lock", "bias-drift").standard_normal()
        noise = NoiseModel(bias_drift=OuParams(sigma, 1e12), seed=seed)
        fast = LockController(gain_p=25000.0, gain_i=10000.0)
        args = (channel, noise, fast, 100.0, DET)
        assert_same_run(run_lock(*args), reference_run_lock(*args))
        peak = float(channel.power_at_phase(math.pi))
        path = _correction_path(channel, np.full(500, offset), peak, fast, DET)
        steps = -np.diff(path, prepend=0.0)  # each update's step, to rounding
        assert steps.max() == pytest.approx(fast.max_step)
        assert steps.min() == pytest.approx(-fast.max_step)

    @pytest.mark.parametrize("limit", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_zero_integrator_limit(self, channel, drift_noise, limit):
        # The integrator is clamped to a signed zero at every update, and
        # the floor above the OFF power makes many gradients exactly 0.
        args = (channel, drift_noise, LockController(integrator_limit=limit), 1800.0,
                DetectorModel(1e-7))
        assert_same_run(run_lock(*args), reference_run_lock(*args))

    def test_divergence_at_same_update(self, channel, drift_noise):
        bad = LockController(gain_p=-500.0, gain_i=0.0, max_step=1.0)
        args = (channel, drift_noise, bad, 3600.0, DET)
        with pytest.raises(PicmodError, match="bias correction diverged") as want:
            reference_run_lock(*args)
        with pytest.raises(PicmodError, match="bias correction diverged") as got:
            run_lock(*args)
        assert str(got.value) == str(want.value)


SPEC = PulseSpec(on_duration=0.5e-6, period=1e-6)
BLOCK_SPEC = PulseSpec(on_duration=0.5e-3, period=1e-3)


class TestNoisyPulseExperiment:
    def test_all_noise_off_is_deterministic(self, channel):
        quiet = NoiseModel(seed=0)
        stats = noisy_pulse_experiment(channel, SPEC, quiet, 1000)
        assert stats.area_std < 1e-10

    def test_thousand_pulse_area_std(self, channel, drift_noise):
        stats = noisy_pulse_experiment(channel, SPEC, drift_noise, 1000)
        assert stats.area_std == pytest.approx(0.0010, abs=0.0002)

    def test_block_std_over_500s(self, channel, drift_noise):
        stats = noisy_pulse_experiment(
            channel, BLOCK_SPEC, drift_noise, 1000, n_blocks=500
        )
        assert stats.mean_block_std == pytest.approx(0.0013, abs=0.0003)
        assert stats.block_stds.size == 500

    def test_seed_reproducibility(self, channel, drift_noise):
        a = noisy_pulse_experiment(channel, SPEC, drift_noise, 200)
        b = noisy_pulse_experiment(channel, SPEC, drift_noise, 200)
        assert np.array_equal(a.areas, b.areas)

    def test_trace_path_agrees_with_fast_path(self, channel, drift_noise, fo_response):
        # The optical-trace path and the per-pulse closed form
        # integrate the same physics; with a fast actuator the areas
        # agree to the startup transient.
        fast = noisy_pulse_experiment(channel, SPEC, drift_noise, 50)
        full = noisy_pulse_experiment(
            channel, SPEC, drift_noise, 50, response=fo_response
        )
        assert np.allclose(fast.areas[5:], full.areas[5:], atol=2e-4)

    def test_trace_needs_one_block(self, channel, drift_noise, fo_response):
        with pytest.raises(PicmodError, match="n_blocks == 1"):
            noisy_pulse_experiment(
                channel, SPEC, drift_noise, 50, n_blocks=2, response=fo_response
            )

    def test_trace_length_limited(self, channel, drift_noise, fo_response):
        # 1000 samples a pulse: 4001 pulses are one pulse over the limit.
        with pytest.raises(PicmodError, match="limited to"):
            noisy_pulse_experiment(channel, SPEC, drift_noise, 4001, response=fo_response)

    def test_normalized_mean_is_one(self, channel, drift_noise):
        stats = noisy_pulse_experiment(channel, SPEC, drift_noise, 400)
        assert stats.areas.mean() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("path", ["closed", "trace"])
    def test_zero_mean_area_rejected(self, fo_response, path):
        response = fo_response if path == "trace" else None
        with pytest.raises(PicmodError, match="zero mean pulse area"):
            noisy_pulse_experiment(
                DarkPulseChannel(), SPEC, NoiseModel(seed=0), 10, response=response
            )


class DarkPulseChannel:
    """Stub channel: an ON level of 1 (max_transmission, which the areas are
    divided by), but no power at any pulse phase, so every pulse area is 0."""

    v_pi = 74.7

    def max_transmission(self):
        return 1.0

    def power_at_phase(self, phase):
        return np.zeros(np.shape(phase))


def pulse_areas(trace, spec):
    """Oracle: trapezoidal area of each whole period of a trace, divided by
    their mean."""
    n_period = int(round(spec.period / trace.sample_period))
    if trace.samples.size == 0 or trace.samples.size % n_period != 0:
        raise PicmodError(
            f"trace length {trace.samples.size} is not whole {n_period}-sample periods"
        )
    areas = np.trapezoid(trace.samples.reshape(-1, n_period), dx=trace.sample_period, axis=1)
    return areas / areas.mean()


class TestPulseAreas:
    """The oracle itself, on traces whose areas are known."""

    def test_noiseless_train_all_unity(self, fo_response, channel_714):
        train = Waveform(1e-9, np.tile(pulse_period(SPEC, 74.7, 1e-9).samples, 8))
        trace = trace_optical(channel_714, fo_response, train)
        areas = pulse_areas(trace, SPEC)
        assert np.allclose(areas[1:], 1.0, atol=1e-6)  # first pulse has startup
        assert areas.mean() == pytest.approx(1.0, abs=1e-12)

    def test_multiplicative_noise_translates_to_area_std(self):
        rng = np.random.default_rng(17)
        n = 1000
        base = np.concatenate([np.ones(500), np.zeros(500)])
        jitter = 1 + 0.001 * rng.standard_normal(n)
        power = np.concatenate([base * j for j in jitter])
        areas = pulse_areas(Waveform(1e-9, power), SPEC)
        assert np.std(areas) == pytest.approx(0.001, rel=0.1)

    def test_single_pulse(self):
        power = np.concatenate([np.ones(500), np.zeros(500)])
        areas = pulse_areas(Waveform(1e-9, power), SPEC)
        assert areas.tolist() == [1.0]

    def test_partial_period_rejected(self):
        with pytest.raises(PicmodError, match="not whole 1000-sample periods"):
            pulse_areas(Waveform(1e-9, np.ones(1500)), SPEC)


def reference_drifts(spec, noise, total):
    """Oracle: the per-pulse bias error, relative v_pi drift and amplitude
    jitter of a train of `total` pulses, each drawn whole from its labelled
    stream."""
    duration = (total - 1) * spec.period
    bias = LOCKED_RESIDUAL if noise.bias_drift.sigma > 0 else noise.bias_drift
    eps = sample_ou_path(
        bias.sigma,
        bias.correlation_time,
        duration,
        spec.period,
        rng=derive_rng(noise.seed, "pulse-experiment", "bias-drift"),
    )[:total]
    delta = sample_ou_path(
        noise.v_pi_drift.sigma,
        noise.v_pi_drift.correlation_time,
        duration,
        spec.period,
        rng=derive_rng(noise.seed, "pulse-experiment", "vpi-drift"),
    )[:total]
    jitter_rng = derive_rng(noise.seed, "pulse-experiment", "amplitude-jitter")
    jitter = 1.0 + noise.amplitude_jitter_sigma * jitter_rng.standard_normal(total)
    return eps, delta, jitter


def reference_closed_areas(channel, spec, noise, n_pulses, n_blocks=1):
    """Oracle: the closed form over the whole train at once, every
    full-length array held together, divided by the mean."""
    eps, delta, jitter = reference_drifts(spec, noise, n_pulses * n_blocks)
    on_power = channel.max_transmission()
    areas = jitter * (channel.power_at_phase(math.pi / (1.0 + delta) + eps) / on_power)
    return areas / areas.mean()


def reference_trace_areas(channel, spec, noise, n_pulses, response):
    """Oracle: the trace path over the full train, held at once.

    The whole square train, n_pulses copies of one pulse period, is
    convolved with the kernel, and the per-pulse
    drifts and jitter are repeated over every sample of their period
    before the optics and the per-period trapezoid.
    """
    dt = response.sample_period
    n_period = int(round(spec.period / dt))
    eps, delta, jitter = reference_drifts(spec, noise, n_pulses)

    train = np.tile(pulse_period(spec, channel.v_pi, dt).samples, n_pulses)
    v_eff = convolve_causal(train, response.impulse_kernel)
    phase = (
        math.pi * v_eff / (channel.v_pi * np.repeat(1.0 + delta, n_period))
        + np.repeat(eps, n_period)
    )
    power = channel.power_at_phase(phase) / channel.power_at_phase(math.pi)
    power = power * np.repeat(jitter, n_period)
    return pulse_areas(Waveform(dt, power), spec)


def shipped_train(nm, train, seed=42):
    """The config and the `stability` arguments of its short or block train."""
    cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
    pl = cfg.data["pulse"]
    block = train == "block"
    n_pulses = pl["block_n_pulses"] if block else pl["n_pulses"]
    args = (cfg.channels()[0], cfg.pulse_spec(block=block), cfg.noise_model(seed=seed), n_pulses)
    return cfg, args, pl["n_blocks"] if block else 1


class TestClosedPathOracle:
    """The closed form, run chunk by chunk, must return what the whole
    train held at once returns."""

    @pytest.mark.parametrize("train", ["short", "block"])
    @pytest.mark.parametrize("seed", [5, 42])
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_shipped_configs(self, nm, seed, train):
        _, args, n_blocks = shipped_train(nm, train, seed)
        got = noisy_pulse_experiment(*args, n_blocks=n_blocks)
        assert np.array_equal(got.areas, reference_closed_areas(*args, n_blocks))

    @pytest.mark.parametrize(
        "n_pulses",
        [1, _TRACE_CHUNK_SAMPLES - 1, _TRACE_CHUNK_SAMPLES, _TRACE_CHUNK_SAMPLES + 1],
    )
    def test_pulse_counts(self, channel, drift_noise, n_pulses):
        got = noisy_pulse_experiment(channel, BLOCK_SPEC, drift_noise, n_pulses)
        want = reference_closed_areas(channel, BLOCK_SPEC, drift_noise, n_pulses)
        assert np.array_equal(got.areas, want)

    def test_block_train_memory(self):
        # 500 blocks of 1000 pulses: each full-length array is 4 MB. The
        # train holds only the two drift paths at full length, which the
        # filter fills in place and the closed form folds into one array of
        # phases, then areas: 8.23 MB traced, with the histogram not yet
        # read. Holding eps, delta and the areas apart peaks at 14.6 MB, the
        # whole train at once above 24 MB.
        cfg = ExperimentConfig.load(CONFIG_DIR / "pic_795nm.yaml")
        pl = cfg.data["pulse"]
        channel, spec = cfg.channels()[0], cfg.pulse_spec(block=True)
        np.random.default_rng(0)  # numpy imports numpy.random on first use: untraced
        tracemalloc.start()
        try:
            noisy_pulse_experiment(
                channel, spec, cfg.noise_model(seed=42), pl["block_n_pulses"],
                n_blocks=pl["n_blocks"],
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9.6e6


@pytest.fixture
def histogram_calls(monkeypatch):
    """The size of the array each np.histogram call bins, in call order."""
    calls, histogram = [], np.histogram

    def counted(a, *args, **kwargs):
        calls.append(np.size(a))
        return histogram(a, *args, **kwargs)

    monkeypatch.setattr(np, "histogram", counted)
    return calls


class TestLazyHistogram:
    """A train's area histogram is computed on its first read, and once."""

    def test_block_train_bins_only_when_read(self, histogram_calls):
        _, args, n_blocks = shipped_train(795, "block")
        stats = noisy_pulse_experiment(*args, n_blocks=n_blocks)
        assert histogram_calls == []
        counts, edges = stats.histogram_counts, stats.histogram_edges
        assert stats.histogram_counts is counts and stats.histogram_edges is edges
        assert histogram_calls == [stats.areas.size]

    def test_stability_bins_only_the_short_train(self, histogram_calls):
        # The short train's histogram is the CSV; the block train's is never read.
        cfg, args, _ = shipped_train(795, "short")
        run_stability(cfg)
        assert histogram_calls == [args[-1]]

    @pytest.mark.parametrize("train", ["short", "block"])
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_equals_numpys_histogram(self, nm, train):
        _, args, n_blocks = shipped_train(nm, train)
        stats = noisy_pulse_experiment(*args, n_blocks=n_blocks)
        counts, edges = np.histogram(stats.areas, bins=50)
        for got, want in ((stats.histogram_counts, counts), (stats.histogram_edges, edges)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


CHUNK_ROWS = _TRACE_CHUNK_SAMPLES // 1000  # pulses per chunk at SPEC's 1000 samples


class TestTracePathOracle:
    """The trace path must return what the full-train trace returns."""

    @pytest.mark.parametrize("seed", [5, 42])
    @pytest.mark.parametrize("nm", [420, 795, 1013])
    def test_shipped_configs(self, nm, seed):
        cfg = ExperimentConfig.load(CONFIG_DIR / f"pic_{nm}nm.yaml")
        args = (cfg.channels()[0], cfg.pulse_spec(), cfg.noise_model(seed=seed), 1000)
        got = noisy_pulse_experiment(*args, response=cfg.actuator())
        assert np.array_equal(got.areas, reference_trace_areas(*args, cfg.actuator()))

    @pytest.mark.parametrize(
        "n_pulses",
        [1, 2, 3, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 1000, 4000],
    )
    def test_pulse_counts(self, channel, drift_noise, fo_response, n_pulses):
        args = (channel, SPEC, drift_noise, n_pulses)
        got = noisy_pulse_experiment(*args, response=fo_response)
        assert np.array_equal(got.areas, reference_trace_areas(*args, fo_response))

    @pytest.mark.parametrize("n_pulses", [1, 2, 3, 4, 2 * CHUNK_ROWS + 1, 200])
    def test_kernel_longer_than_a_period(self, channel, drift_noise, so_response, n_pulses):
        # The FFT branch runs over a shorter head than the full train, so
        # only the last bits may differ. The head is 3 periods long, so the
        # first chunk holds head pulses and settled ones.
        assert so_response.impulse_kernel.size > max(1000, DIRECT_KERNEL_LIMIT)
        args = (channel, SPEC, drift_noise, n_pulses)
        got = noisy_pulse_experiment(*args, response=so_response)
        want = reference_trace_areas(*args, so_response)
        np.testing.assert_allclose(got.areas, want, rtol=1e-12, atol=0.0)

    def test_longest_trace_memory(self, channel, drift_noise, fo_response):
        # 4000 pulses of 1000 samples is MAX_TRACE_SAMPLES; the full train
        # held at once peaks above 150 MB.
        tracemalloc.start()
        try:
            noisy_pulse_experiment(channel, SPEC, drift_noise, 4000, response=fo_response)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("period", [1.0005e-6, 1e-19], ids=["off-grid", "sub-sample"])
    def test_period_off_sample_grid(self, channel, drift_noise, fo_response, period):
        spec = PulseSpec(on_duration=period / 2, period=period)
        with pytest.raises(PicmodError, match="^period .* s is not a positive integer number of"):
            noisy_pulse_experiment(channel, spec, drift_noise, 10, response=fo_response)
