"""Dither-based bias lock and long-run pulse-stability experiments.

The controller holds a channel at its transmission null against slow bias
drift: at each update it applies +/- dither to the bias, measures the
transmitted power through the detector, forms a discrete gradient
estimate, and applies a PI correction. Runs are event-driven at the
update cadence, so a 20-hour run costs only its update count in wall
time; reported times are physical seconds.

Every stage sees the same bias error, so the channel power at a bias
error eps is `ModulatorChannel.power_at_phase(eps)`: the stage fringe
floor + depth*sin^2(eps/2) cascaded n_stages times, whose
values at 0 and pi are the channel's OFF and ON levels. The lock keeps no
transfer model of its own. Only the dither/PI recurrence runs once per
update, as a scalar loop on (floor, depth) from `MziStage.fringe` that
yields the correction trajectory. The ER samples and the final error are
then computed in one go from that trajectory, the optics only at the
updates that take an ER sample; a disengaged run has zero correction and
runs no loop.
Every reading, dither and ER sample alike, is the true power floored by
the detector; an ER sample whose OFF reading is the floor counts as
detector-limited.

A pulse train's areas are computed chunk by chunk on both paths: with an
actuator, each chunk integrates the actuator output, convolved once over
its settling periods; without one, each chunk is the closed form. Once
the actuator has settled, every period repeats the same samples, so the
optics are evaluated once per pulse on that period's distinct levels
(runs of equal bit patterns) and gathered back to the samples. The
jitter is drawn a chunk at a time. The closed form holds only the two
drift paths at full length: it folds them into one array of per-pulse
phases, over which each chunk writes its areas. The trace path, whose
trains are short, holds the bias error, the v_pi drift and the areas
apart. Either way the areas are divided by their nonzero mean, and the
block statistics are taken a slice of blocks at a time. The areas'
histogram is computed when it is first read, so a train whose histogram
no one reads never bins its areas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ModulatorChannel, db
from .dynamics import convolve_causal
from .errors import PicmodError
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
        if self.max_step < 0 or self.integrator_limit < 0:
            raise PicmodError("max_step and integrator_limit must be non-negative")


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

    Each update measures the channel at eps +/- dither (one math.sin per
    point on the half phase, rounded as `power_at_phase` rounds it, the
    stage power multiplied once per further stage, the detector applied
    inline) and steps the PI controller, clamping with branches that equal
    min(max(x, -lim), lim) bit for bit because both limits are >= 0.
    Raises PicmodError at the first update whose correction leaves
    [-pi, pi].
    """
    stage_floor, depth = channel.stage.fringe
    more_stages = range(channel.n_stages - 1)
    d = controller.dither_amplitude
    half_d = 0.5 * d
    gain_p, gain_i = controller.gain_p, controller.gain_i
    i_lim, s_lim = controller.integrator_limit, controller.max_step
    floor = detector.relative_floor
    two_d, pi, sin = 2.0 * d, math.pi, math.sin

    correction = 0.0
    integ = 0.0
    path = np.empty(drift.size)
    # memoryviews read and write plain floats without a list of the run.
    out = memoryview(path)
    for k, drift_k in enumerate(memoryview(drift)):
        # Halving is exact, so 0.5*eps + 0.5*d is 0.5*(eps + d) bit for bit.
        half = 0.5 * (drift_k + correction)
        s_plus = sin(half + half_d)
        s_minus = sin(half - half_d)
        f_plus = stage_floor + depth * (s_plus * s_plus)
        f_minus = stage_floor + depth * (s_minus * s_minus)
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
        grad = (p_plus - p_minus) / two_d
        integ += gain_i * grad
        if integ > i_lim:
            integ = i_lim
        elif integ < -i_lim:
            integ = -i_lim
        step = gain_p * grad + integ
        if step > s_lim:
            step = s_lim
        elif step < -s_lim:
            step = -s_lim
        correction -= step
        if abs(correction) > pi:
            raise PicmodError(
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

    peak = channel.max_transmission()
    on_static = detector.measure(1.0)
    off_static = detector.measure(channel.min_transmission() / peak)
    if off_static == 0.0:
        raise PicmodError("the channel's null reads 0: it needs a positive relative_floor")
    er_static = db(on_static / off_static)
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
    ers = db(on_meas / off_meas)
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
    """Pulse-area statistics of a train; the counts and the edges of its
    50-bin area histogram are each computed on first read and kept."""

    areas: np.ndarray  # all pulse areas, normalized to the global mean
    block_stds: np.ndarray  # per-block std of block-normalized areas
    mean_block_std: float
    area_std: float  # std of the first block

    @functools.cached_property
    def histogram_counts(self) -> np.ndarray:
        return np.histogram(self.areas, bins=50)[0]

    @functools.cached_property
    def histogram_edges(self) -> np.ndarray:
        return np.histogram_bin_edges(self.areas, bins=50)


# Residual bias motion under an engaged lock, which pulse experiments
# run with (calibrated against run_lock tracking error).
LOCKED_RESIDUAL = OuParams(sigma=0.009, correlation_time=1.0)

# Longest optical trace a pulse experiment samples: a bound on run time, not memory.
MAX_TRACE_SAMPLES = 4_000_000
# Samples a chunk of either pulse-area path holds (a chunk of the closed
# form, or of the block statistics, holds that many pulses): 512 KiB
# temporaries stay in cache, beside the train's full-length arrays.
_TRACE_CHUNK_SAMPLES = 1 << 16


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
    (LOCKED_RESIDUAL) rather than the free drift. Both paths run chunk by
    chunk and draw the jitter a chunk at a time. The closed form holds two
    full-length arrays, the drift paths: the v_pi drift becomes the
    per-pulse phase and then the areas. The trace path holds the bias
    error, the v_pi drift and the areas apart. Given an actuator
    response, a single-block run of at most MAX_TRACE_SAMPLES samples is
    integrated from its optical trace, the actuator output convolved once
    over its settling periods; after them the optics are evaluated once per
    distinct level of the settled period, not once per sample, which gives
    the same bits. Any other run given a response raises
    PicmodError. Without one, areas come from the per-pulse closed form
    (the pulse shape is common to all pulses, so areas scale exactly with
    the per-pulse factors). The histogram of the areas is computed on its
    first read, not here.
    """
    if n_pulses < 1 or n_blocks < 1:
        raise PicmodError("need n_pulses >= 1 and n_blocks >= 1")
    total = n_pulses * n_blocks
    rows = _TRACE_CHUNK_SAMPLES
    if response is not None:
        kernel, dt = response.impulse_kernel, response.sample_period
        pulse = pulse_period(spec, channel.v_pi, dt).samples  # PicmodError off the sample grid
        n_period = pulse.size
        if n_blocks != 1:
            raise PicmodError("an optical trace needs n_blocks == 1")
        if total * n_period > MAX_TRACE_SAMPLES:
            raise PicmodError(f"an optical trace is limited to {MAX_TRACE_SAMPLES} samples")
        # From period ceil((k - 1) / n_period) on, a k-tap kernel sees the
        # same input history in every period, so its output repeats exactly.
        n_head = min(total, -(-(kernel.size - 1) // n_period) + 1)
        pi_head = math.pi * convolve_causal(np.tile(pulse, n_head), kernel)
        pi_head = pi_head.reshape(n_head, n_period)
        # Pulses from n_head - 1 on see the last row, whose runs of equal
        # bit patterns are its distinct levels: their optics are evaluated
        # once per pulse and gathered back to the samples.
        bits = pi_head[-1].view(np.uint64)
        new_level = np.concatenate([[True], bits[1:] != bits[:-1]])
        levels = pi_head[-1][new_level]
        level_of = np.cumsum(new_level) - 1
        rows = max(1, _TRACE_CHUNK_SAMPLES // n_period)
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
    on_power = channel.max_transmission()
    if response is None:
        # The closed form needs only the phase pi/(1 + delta) + eps, folded
        # into delta in place; each chunk then writes its areas over its
        # own phases.
        delta += 1.0
        np.divide(math.pi, delta, out=delta)
        delta += eps
        areas = delta
        eps = None  # freed: the phases hold all the closed form needs of it
    else:
        areas = np.empty(total)
    for start in range(0, total, rows):
        p = slice(start, min(start + rows, total))
        # A Generator draws the same normals in chunks as in one call.
        jitter = jitter_rng.standard_normal(p.stop - start)
        jitter *= noise.amplitude_jitter_sigma
        jitter += 1.0
        if response is None:
            power = channel.power_at_phase(areas[p])
            power /= on_power
            np.multiply(power, jitter, out=areas[p])
        else:
            # The chunk's head pulses see their own rows, the rest the levels.
            settled = min(max(start, n_head - 1), p.stop)
            for q, pi_v in ((slice(start, settled), pi_head[start:settled]),
                            (slice(settled, p.stop), levels)):
                # Speed only: skips each later chunk's empty head (1 000 pulses 14 ms, not 19).
                if q.start == q.stop:
                    continue
                phase = pi_v / (channel.v_pi * (1.0 + delta[q, None]))
                phase += eps[q, None]
                power = channel.power_at_phase(phase)
                power /= on_power
                power *= jitter[q.start - start : q.stop - start, None]
                if power.shape[1] < n_period:
                    # np.take keeps the rows contiguous, so the trapezoid
                    # sums them in the same order as the full rows.
                    power = np.take(power, level_of, axis=1)
                areas[q] = np.trapezoid(power, dx=dt, axis=1)
    del eps, delta  # freed before the block statistics take their temporaries
    mean = areas.mean()
    if mean == 0:
        raise PicmodError("zero mean pulse area")
    areas /= mean

    # Block statistics a slice of blocks at a time: each row's reductions
    # are those of the whole array, bit for bit, on cache-sized temporaries.
    blocks = areas.reshape(n_blocks, n_pulses)
    block_stds = np.empty(n_blocks)
    step = max(1, _TRACE_CHUNK_SAMPLES // n_pulses)
    for start in range(0, n_blocks, step):
        b = blocks[start : start + step]
        block_stds[start : start + step] = (b / b.mean(axis=1, keepdims=True)).std(axis=1)
    return PulseStats(
        areas=areas,
        block_stds=block_stds,
        mean_block_std=float(block_stds.mean()),
        area_std=float(block_stds[0]),
    )
