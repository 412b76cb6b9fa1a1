"""The benchmark's oracles agree with picmod on small inputs.

Run with `PYTHONPATH=src python -m pytest perfbench/test_oracles.py`.
"""

import math

import numpy as np
import pytest

import oracles
from picmod.core import channel_transmission_equal, make_calibrated_channel, power_split_for_er
from picmod.crosstalk import Scenario, crosstalk_matrix, nearest_neighbor_graph, nn_mean_db
from picmod.crosstalk import predict_scenario_c_db
from picmod.dynamics import (
    KernelKind, Waveform, convolve_causal, synthesize_kernel, trace_optical, DIRECT_KERNEL_LIMIT,
)
from picmod.lock import LockController, run_lock
from picmod.noise import DetectorModel, NoiseModel, OuParams, sample_ou_path
from picmod.rng import derive_rng
from picmod.waveforms import dynamic_extinction


@pytest.mark.parametrize("p,n", [(0.52, 1), (0.5089, 2), (0.5001, 3), (0.7, 2)])
def test_cascade_er_and_power(p, n):
    ch = make_calibrated_channel(v_pi=2.0, power_split=p, n_stages=n)
    assert oracles.cascade_er_db(p, n) == pytest.approx(ch.extinction_ratio_db(), rel=1e-12)
    volts = np.linspace(0.0, 4.0, 33)
    program = channel_transmission_equal(ch, volts, include_loss=False) / ch.max_transmission()
    closed = oracles.cascade_power(p, math.pi * volts / 2.0, n)
    np.testing.assert_allclose(closed, program, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("er", [42.0, 61.5, 70.1])
def test_split_for_er(er):
    assert oracles.split_for_er(er, 2) == pytest.approx(power_split_for_er(er, 2), rel=1e-12)
    assert oracles.cascade_er_db(oracles.split_for_er(er, 2), 2) == pytest.approx(er, abs=1e-9)


@pytest.mark.parametrize("scenario", ["A", "B", "C"])
def test_crosstalk_closed_form(scenario):
    n, t_off, floor = 6, 10 ** -6.15, 1e-8
    graph = nearest_neighbor_graph(n, -45.3, -76.2, -60.0, -85.0)
    program = crosstalk_matrix(graph, Scenario(scenario), 1.0, t_off, DetectorModel(floor))
    closed = oracles.crosstalk_matrix_db(oracles.nn_graph_db(n, -45.3, -60.0),
                                         oracles.nn_graph_db(n, -76.2, -85.0),
                                         scenario, t_off, floor)
    np.testing.assert_allclose(closed, program, rtol=0, atol=1e-9)
    assert oracles.nn_mean_db(closed) == pytest.approx(nn_mean_db(program), abs=1e-9)
    assert oracles.scenario_c_db(61.5, -76.2) == pytest.approx(
        predict_scenario_c_db(61.5, -76.2), abs=1e-12)


@pytest.mark.parametrize("taps", [40, DIRECT_KERNEL_LIMIT + 100])
def test_direct_convolution(taps):
    rng = np.random.default_rng(taps)
    x, h = rng.standard_normal(700), rng.random(taps)
    np.testing.assert_allclose(oracles.direct_convolution(x, h), convolve_causal(x, h),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind,zeta", [(KernelKind.FIRST_ORDER, None),
                                       (KernelKind.SECOND_ORDER, 0.3)])
def test_extinction_floor(kind, zeta):
    resp = synthesize_kernel(kind, 26e-9, 1e-9, damping_ratio=zeta)
    p = power_split_for_er(60.0, 2)
    ch = make_calibrated_channel(v_pi=10.0, power_split=p, n_stages=2)
    n_pre = resp.impulse_kernel.size + 2
    drive = np.concatenate([np.full(n_pre, 10.0), np.zeros(400)])
    ext = dynamic_extinction(trace_optical(ch, resp, Waveform(1e-9, drive)), n_pre * 1e-9)
    for window in (None, 150):
        program = ext.envelope[-1 if window is None else window]
        closed = oracles.extinction_floor(drive, resp.impulse_kernel, 10.0, p, 2, n_pre, window)
        assert closed == pytest.approx(program, rel=1e-9)


def test_ou_path_and_streams():
    seed = 1234
    assert np.array_equal(oracles.labelled_rng(seed, "lock", "x").standard_normal(5),
                          derive_rng(seed, "lock", "x").standard_normal(5))
    path = sample_ou_path(0.3, 600.0, 1000.0, 0.2, rng=derive_rng(seed, "ou"))
    closed = oracles.ou_path(0.3, 600.0, path.size, 0.2, oracles.labelled_rng(seed, "ou"))
    np.testing.assert_allclose(closed, path, rtol=1e-12, atol=1e-15)


def test_disengaged_er_series():
    p = power_split_for_er(70.1, 2)
    ch = make_calibrated_channel(v_pi=74.7, power_split=p, n_stages=2)
    noise = NoiseModel(bias_drift=OuParams(0.3, 600.0), seed=99)
    det = DetectorModel(relative_floor=1e-8)
    ctl = LockController()
    run = run_lock(ch, noise, ctl, 1200.0, det, engaged=False)
    n_updates = round(1200.0 * ctl.update_rate)
    drift = oracles.ou_path(0.3, 600.0, n_updates + 1, 1.0 / ctl.update_rate,
                            oracles.labelled_rng(99, "lock", "bias-drift"))
    closed = oracles.disengaged_er_series(p, 2, drift, n_updates, 60, 1e-8)
    np.testing.assert_allclose(closed, run.er_db, rtol=0, atol=1e-9)
