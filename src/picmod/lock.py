"""Dither-based bias lock and long-run pulse-stability experiments.

The controller holds a channel at its transmission null against slow bias
drift: at each update it applies +/- dither to the bias, measures the
transmitted power through the detector, forms a discrete gradient
estimate, and applies a PI correction. Runs are event-driven at the
update cadence, so a 20-hour run costs only its update count in wall
time; reported times are physical seconds.

Every stage sees the same bias error, so the channel power at a bias
error eps is `ModulatorChannel.power_at_phase(eps)`: the stage fringe
c0 + c1*cos(eps) cascaded over the identical stages. The lock keeps no
transfer model of its own. Only the dither/PI recurrence runs once per
update, as a scalar loop on (c0, c1) from `core.fringe_coeffs` that
yields the correction trajectory. The ER samples and the final error are
then computed in one go from that trajectory, the optics only at the
updates that take an ER sample; a disengaged run has zero correction and
runs no loop.
Every reading, dither and ER sample alike, is the true power floored by
the detector; an ER sample whose OFF reading is the floor counts as
detector-limited.

A pulse train's actuator output is convolved once over its settling
periods and its areas integrated chunk by chunk (without an actuator, in
closed form); either way the areas are divided by their nonzero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModulatorChannel, fringe_coeffs
from .dynamics import convolve_causal
from .errors import LockDivergedError, PicmodError
from .noise import DetectorModel, NoiseModel, OuParams, sample_ou_path
from .rng import derive_rng
from .waveforms import PulseSpec, pulse_period


@dataclass(frozen=True)
class LockController:
    """5 Hz dither-and-demodulate null lock with PI correction."""

    update_rate: float = 5.0
    dither_amplitude: float = 1e-3  # radians
    gain_p: float = 250.0
    gain_i: float = 5.0
    max_step: float = 0.02  # radians per update
    integrator_limit: float = 0.01  # anti-windup bound

    def __post_init__(self):
        if self.update_rate <= 0:
            raise PicmodError("update_rate must be positive")
        if self.dither_amplitude <= 0:
            raise PicmodError("dither_amplitude must be positive")
        for g in (self.gain_p, self.gain_i, self.max_step, self.integrator_limit):
            if not math.isfinite(g):
                raise PicmodError("controller gains must be finite")


ER_SAMPLE_EVERY = 60  # updates between ER samples
LOCKED_MARGIN_DB = 5.0  # an ER sample within this of the static ER is locked


@dataclass(frozen=True)
class LockRunResult:
    times: np.ndarray  # physical seconds
    er_db: np.ndarray
    locked_fraction: float
    er_mean_db: float
    er_std_db: float
    final_error_rad: float = 0.0  # residual bias error at the last update
    detector_limited_samples: int = 0  # ER samples whose OFF reading is the floor


def _correction_path(channel, drift, peak, controller, detector) -> np.ndarray:
    """Bias correction after each update: the dither/PI recurrence.

    Each update measures the channel at eps +/- dither (one math.cos per
    point, the stage power multiplied once per further stage, the
    detector applied inline) and steps the PI controller. Raises
    LockDivergedError at the first update whose correction leaves
    [-pi, pi].
    """
    c0, c1 = fringe_coeffs(*channel.stages[0].terms)
    more_stages = range(channel.n_stages - 1)
    d = controller.dither_amplitude
    gain_p, gain_i = controller.gain_p, controller.gain_i
    i_lim, s_lim = controller.integrator_limit, controller.max_step
    floor = detector.relative_floor
    cos = math.cos

    correction = 0.0
    integ = 0.0
    path = np.empty(drift.size)
    # memoryviews read and write plain floats without a list of the run.
    out = memoryview(path)
    for k, drift_k in enumerate(memoryview(drift)):
        eps = drift_k + correction
        f_plus = c0 + c1 * cos(eps + d)
        f_minus = c0 + c1 * cos(eps - d)
        t_plus, t_minus = f_plus, f_minus
        for _ in more_stages:
            t_plus *= f_plus
            t_minus *= f_minus
        p_plus = t_plus / peak
        p_minus = t_minus / peak
        if not p_plus > floor:
            p_plus = floor
        if not p_minus > floor:
            p_minus = floor
        grad = (p_plus - p_minus) / (2.0 * d)
        integ += gain_i * grad
        integ = min(max(integ, -i_lim), i_lim)
        step = gain_p * grad + integ
        step = min(max(step, -s_lim), s_lim)
        correction -= step
        if abs(correction) > math.pi:
            raise LockDivergedError(
                f"bias correction diverged to {correction:.3f} rad at update {k} "
                f"(unstable gains?)"
            )
        out[k] = correction
    return path


def run_lock(
    channel: ModulatorChannel,
    noise: NoiseModel,
    controller: LockController,
    duration: float,
    detector: DetectorModel,
    engaged: bool = True,
) -> LockRunResult:
    """Simulate a bias-lock run of the given physical duration.

    With engaged=False the controller is bypassed but the identical drift
    path (same seed) is replayed, so ON/OFF comparisons are paired.
    A perfect null read as 0, which the static ER would divide by, raises
    PicmodError.
    """
    dt = 1.0 / controller.update_rate
    n_updates = int(round(duration * controller.update_rate))
    if n_updates < 1:
        raise PicmodError("duration shorter than one controller update")
    drift = sample_ou_path(
        noise.bias_drift.sigma,
        noise.bias_drift.correlation_time,
        duration,
        dt,
        rng=derive_rng(noise.seed, "lock", "bias-drift"),
    )[:n_updates]

    peak = float(channel.power_at_phase(math.pi))
    on_static = detector.measure(1.0)
    off_static = detector.measure(channel.power_at_phase(0.0) / peak)
    if off_static == 0.0:
        raise PicmodError("the channel's null reads 0: it needs a positive relative_floor")
    er_static = 10.0 * math.log10(on_static / off_static)
    if engaged:
        correction = _correction_path(channel, drift, peak, controller, detector)
    else:
        correction = np.zeros(n_updates)

    # Everything else is a function of the bias error after each update,
    # needed only at the ER samples and the last update.
    ks = np.arange(0, n_updates, ER_SAMPLE_EVERY)
    eps = drift[ks] + correction[ks]
    off_meas = detector.measure(channel.power_at_phase(eps) / peak)
    on_meas = detector.measure(channel.power_at_phase(math.pi + eps) / peak)
    limited = int(np.count_nonzero(off_meas <= detector.relative_floor))
    # Scalar log10: numpy's array log10 differs from it in the last bit.
    ers = np.array([10.0 * math.log10(r) for r in (on_meas / off_meas).tolist()])
    locked_fraction = float(np.mean(ers >= er_static - LOCKED_MARGIN_DB))
    return LockRunResult(
        times=ks * dt,
        er_db=ers,
        locked_fraction=locked_fraction,
        er_mean_db=float(np.mean(ers)),
        er_std_db=float(np.std(ers)),
        final_error_rad=float(drift[-1] + correction[-1]),
        detector_limited_samples=limited,
    )


@dataclass(frozen=True)
class PulseStats:
    areas: np.ndarray  # all pulse areas, normalized to the global mean
    block_stds: np.ndarray  # per-block std of block-normalized areas
    mean_block_std: float
    area_std: float  # std of the first block
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


# Residual bias motion under an engaged lock, which pulse experiments
# run with (calibrated against run_lock tracking error).
LOCKED_RESIDUAL = OuParams(sigma=0.009, correlation_time=1.0)

# Longest optical trace a pulse experiment samples: a bound on run time, not memory.
MAX_TRACE_SAMPLES = 4_000_000
_TRACE_CHUNK_SAMPLES = 1 << 16  # trace-path chunk: 512 KiB temporaries stay in cache


def noisy_pulse_experiment(
    channel: ModulatorChannel,
    spec: PulseSpec,
    noise: NoiseModel,
    n_pulses: int,
    *,
    n_blocks: int = 1,
    response=None,
) -> PulseStats:
    """Pulse-area statistics of a noisy pulse train.

    Each pulse drives the channel from 0 to its v_pi and back on the timing
    of spec. Per-pulse multiplicative amplitude jitter plus slow bias and
    v_pi drift act on the train; areas are reported per block of n_pulses
    pulses. The bias lock is engaged, so the bias motion is its residual
    (LOCKED_RESIDUAL) rather than the free drift. Given an actuator
    response, a single-block run of at most MAX_TRACE_SAMPLES samples is
    integrated from its optical trace, the actuator output convolved once
    over its settling periods and the areas integrated chunk by chunk; any
    other run given a response raises PicmodError. Without one, areas come
    from the per-pulse closed form (the pulse shape is common to all
    pulses, so areas scale exactly with the per-pulse factors).
    """
    if n_pulses < 1 or n_blocks < 1:
        raise PicmodError("need n_pulses >= 1 and n_blocks >= 1")
    total = n_pulses * n_blocks
    if response is not None:
        kernel, dt = response.impulse_kernel, response.sample_period
        pulse = pulse_period(spec, channel.v_pi, dt).samples  # GridError off the sample grid
        n_period = pulse.size
        if n_blocks != 1:
            raise PicmodError("an optical trace needs n_blocks == 1")
        if total * n_period > MAX_TRACE_SAMPLES:
            raise PicmodError(f"an optical trace is limited to {MAX_TRACE_SAMPLES} samples")
    duration = (total - 1) * spec.period

    jitter_rng = derive_rng(noise.seed, "pulse-experiment", "amplitude-jitter")
    bias_rng = derive_rng(noise.seed, "pulse-experiment", "bias-drift")
    vpi_rng = derive_rng(noise.seed, "pulse-experiment", "vpi-drift")

    # The lock leaves only its tracking residual -- and none at all if
    # there is no drift to track.
    bias_params = LOCKED_RESIDUAL if noise.bias_drift.sigma > 0 else noise.bias_drift
    eps = sample_ou_path(
        bias_params.sigma, bias_params.correlation_time, duration, spec.period, rng=bias_rng
    )[:total]
    delta = sample_ou_path(
        noise.v_pi_drift.sigma,
        noise.v_pi_drift.correlation_time,
        duration,
        spec.period,
        rng=vpi_rng,
    )[:total]
    jitter = 1.0 + noise.amplitude_jitter_sigma * jitter_rng.standard_normal(total)

    on_power = channel.power_at_phase(math.pi)
    if response is not None:
        # From period ceil((k - 1) / n_period) on, a k-tap kernel sees the
        # same input history in every period, so its output repeats exactly.
        n_head = min(total, -(-(kernel.size - 1) // n_period) + 1)
        head = convolve_causal(np.tile(pulse, n_head), kernel).reshape(n_head, n_period)
        areas = np.empty(total)
        rows = max(1, _TRACE_CHUNK_SAMPLES // n_period)
        for start in range(0, total, rows):
            p = np.arange(start, min(start + rows, total))
            v_eff = head[np.minimum(p, n_head - 1)]
            phase = math.pi * v_eff / (channel.v_pi * (1.0 + delta[p, None])) + eps[p, None]
            power = channel.power_at_phase(phase) / on_power * jitter[p, None]
            areas[p] = np.trapezoid(power, dx=dt, axis=1)
    else:
        areas = jitter * (channel.power_at_phase(math.pi / (1.0 + delta) + eps) / on_power)
    mean = areas.mean()
    if mean == 0:
        raise PicmodError("zero mean pulse area")
    areas = areas / mean

    blocks = areas.reshape(n_blocks, n_pulses)
    block_means = blocks.mean(axis=1, keepdims=True)
    block_stds = (blocks / block_means).std(axis=1)
    counts, edges = np.histogram(areas, bins=50)
    return PulseStats(
        areas=areas,
        block_stds=block_stds,
        mean_block_std=float(block_stds.mean()),
        area_std=float(block_stds[0]),
        histogram_counts=counts,
        histogram_edges=edges,
    )
