"""Closed-form and brute-force references the benchmark checks picmod against.

Written from the physics, not from picmod's code paths: nothing here
imports picmod. Every function takes plain numbers and numpy arrays.

A channel is n identical MZI stages whose two couplers share the power
split p. With light on port 0, each stage's BAR-port power at differential
phase phi is a^2 + b^2 - 2ab cos(phi) with a = 1 - p and b = p, so the
normalised cascade power and the extinction ratio have closed forms.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def cascade_er_db(p: float, n_stages: int) -> float:
    """Extinction ratio of n identical stages: -20 n log10|1 - 2p|."""
    return -20.0 * n_stages * math.log10(abs(1.0 - 2.0 * p))


def split_for_er(er_db: float, n_stages: int) -> float:
    """Coupler split above 0.5 whose n-stage cascade has the given ER."""
    return 0.5 + 0.5 * 10.0 ** (-er_db / (20.0 * n_stages))


def cascade_power(p: float, phase, n_stages: int):
    """Normalised cascade power ((a^2 + b^2 - 2ab cos phi) / (a + b)^2)^n."""
    a, b = 1.0 - p, p
    stage = (a * a + b * b - 2.0 * a * b * np.cos(phase)) / (a + b) ** 2
    return stage**n_stages


def floor_limited_er_db(p: float, n_stages: int, floor: float) -> float:
    """ER a floor-clamping detector reports: the null cannot read below floor."""
    null = cascade_power(p, 0.0, n_stages)
    return 10.0 * math.log10(max(1.0, floor) / max(null, floor))


def crosstalk_matrix_db(before_db, after_db, scenario: str, t_off: float, floor: float):
    """Scenario matrices in dB, aggressor i lit and ON (t_on = 1), victim j.

    out[i,j] = 10 log10(max(floor, in_j T_j + 10^(before_ij/10) T_j
    + 10^(after_ij/10))), with (in_j, T_j) = (0, t_off), (0, 1) and
    (1, t_off) for scenarios A, B and C; the diagonal is 0 dB.
    """
    in_j, t_j = {"A": (0.0, t_off), "B": (0.0, 1.0), "C": (1.0, t_off)}[scenario]
    before = 10.0 ** (np.asarray(before_db, dtype=float) / 10.0)
    after = 10.0 ** (np.asarray(after_db, dtype=float) / 10.0)
    lin = in_j * t_j + before * t_j + after
    out = 10.0 * np.log10(np.maximum(lin, floor))
    np.fill_diagonal(out, 0.0)
    return out


def nn_graph_db(n: int, nn_db: float, nnn_db: float):
    """Coupling matrix with nn_db on |i-j| = 1, nnn_db on |i-j| = 2, else -inf."""
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    out = np.full((n, n), -np.inf)
    out[dist == 1] = nn_db
    out[dist == 2] = nnn_db
    return out


def nn_mean_db(matrix) -> float:
    """Mean of the nearest-neighbour entries of a dB matrix."""
    m = np.asarray(matrix)
    dist = np.abs(np.subtract.outer(np.arange(m.shape[0]), np.arange(m.shape[0])))
    return float(m[dist == 1].mean())


def scenario_c_db(er_db: float, after_nn_db: float) -> float:
    """Scenario C composed from the victim's ER and the downstream coupling."""
    return 10.0 * math.log10(10.0 ** (-er_db / 10.0) + 10.0 ** (after_nn_db / 10.0))


def direct_convolution(samples, kernel):
    """Causal convolution y[m] = sum_k kernel[k] x[m-k], truncated to len(x)."""
    x = np.asarray(samples, dtype=float)
    h = np.asarray(kernel, dtype=float)
    y = np.zeros_like(x)
    for k in range(min(h.size, x.size)):
        y[k:] += h[k] * x[: x.size - k]
    return y


def extinction_floor(drive, kernel, v_pi, p, n_stages, switch_idx, window_idx=None):
    """Worst remaining power from window_idx samples after the switch on.

    The trace is the direct convolution sum pushed through the closed-form
    cascade power; it is normalised to the median of the pre-switch span
    max(8, switch_idx // 4) samples long. window_idx None means the last
    sample.
    """
    phase = math.pi * direct_convolution(drive, kernel) / v_pi
    power = cascade_power(p, phase, n_stages)
    pre = power[max(0, switch_idx - max(8, switch_idx // 4)):switch_idx]
    post = power[switch_idx:]
    start = post.size - 1 if window_idx is None else min(window_idx, post.size - 1)
    return float(post[start:].max() / np.median(pre))


def labelled_rng(seed: int, *labels: str) -> np.random.Generator:
    """Stream keyed by a seed and sha256-hashed labels, as picmod documents."""
    keys = [int.from_bytes(hashlib.sha256(l.encode()).digest()[:8], "little") for l in labels]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF] + keys))


def ou_path(sigma: float, tau: float, n: int, dt: float, rng) -> list:
    """Exact OU recursion x[k+1] = a x[k] + sigma sqrt(1-a^2) w[k+1], x[0] = sigma w[0]."""
    a = math.exp(-dt / tau)
    w = rng.standard_normal(n)
    scale = sigma * math.sqrt(1.0 - a * a)
    x = [float(w[0] * sigma)]
    for k in range(1, n):
        x.append(float(w[k] * scale) + a * x[-1])
    return x


def disengaged_er_series(p, n_stages, drift, n_updates, every, floor):
    """ER samples of an open-loop run: the bias sits on the drift path alone.

    At every `every`-th update the ON and OFF powers at phase pi + drift
    and drift are clamped at the detector floor and compared.
    """
    eps = np.asarray(drift[:n_updates:every], dtype=float)
    p_off = np.maximum(cascade_power(p, eps, n_stages), floor)
    p_on = np.maximum(cascade_power(p, math.pi + eps, n_stages), floor)
    return 10.0 * np.log10(p_on / p_off)
