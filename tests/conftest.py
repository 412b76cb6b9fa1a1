"""Shared fixtures for the picmod test suite."""

import pathlib

import numpy as np
import pytest

from picmod.config import ExperimentConfig
from picmod.core import make_calibrated_channel, power_split_for_er
from picmod.dynamics import KernelKind, synthesize_kernel

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "picmod" / "configs"


def coupler_matrix(coupler):
    """Oracle: field matrix [[t, ir], [ir, t]] of a directional coupler."""
    t, r = coupler.t, coupler.r
    return np.array([[t, 1j * r], [1j * r, t]], dtype=complex)


def stage_terms(stage):
    """Oracle: (a, b) = (t_in*t_out, r_in*r_out), whose BAR-port power is
    a^2 + b^2 - 2ab*cos(phi); the products `MziStage.fringe` forms."""
    cin, cout = stage.input_coupler, stage.output_coupler
    return cin.t * cout.t, cin.r * cout.r


def stage_matrix(stage, drive_voltage):
    """Oracle: C_out . diag(e^{i phi}, 1) . C_in of an MZI stage.

    Arm 0 carries the stage's net phase phi(V) and arm 1 none; only the
    arms' difference reaches the output power. Broadcasts over
    array-valued drives; the matrix axes are the trailing two. The
    monitored power for input on port 0 is |m[..., port, 0]|^2, which the
    closed form in picmod.core must equal.
    """
    phi = np.asarray(stage.phase(drive_voltage))
    prop = np.zeros(phi.shape + (2, 2), dtype=complex)
    prop[..., 0, 0] = np.exp(1j * phi)
    prop[..., 1, 1] = 1.0
    return coupler_matrix(stage.output_coupler) @ prop @ coupler_matrix(stage.input_coupler)


@pytest.fixture(scope="session")
def config_795():
    return ExperimentConfig.load(CONFIG_DIR / "pic_795nm.yaml")


@pytest.fixture(scope="session")
def config_1013():
    return ExperimentConfig.load(CONFIG_DIR / "pic_1013nm.yaml")


@pytest.fixture(scope="session")
def config_420():
    return ExperimentConfig.load(CONFIG_DIR / "pic_420nm.yaml")


@pytest.fixture(scope="session")
def config_path_795():
    return str(CONFIG_DIR / "pic_795nm.yaml")


@pytest.fixture(scope="session")
def shipped_channels(config_420, config_795, config_1013):
    """Every channel the three shipped configs build: 24 in all."""
    return [ch for cfg in (config_420, config_795, config_1013) for ch in cfg.channels()]


@pytest.fixture(scope="session")
def channel_714():
    """2-stage channel calibrated to a 71.4 dB extinction ratio."""
    split = power_split_for_er(71.4, n_stages=2)
    return make_calibrated_channel(v_pi=74.7, power_split=split, n_stages=2)


@pytest.fixture(scope="session")
def ideal_channel():
    return make_calibrated_channel(v_pi=74.7, power_split=0.5, n_stages=2)


@pytest.fixture(scope="session")
def fo_response():
    """First-order actuator: 26 ns 10-90% rise at a 1 ns sample period."""
    return synthesize_kernel(KernelKind.FIRST_ORDER, 26e-9, 1e-9)


@pytest.fixture(scope="session")
def so_response():
    """Underdamped second-order actuator (damping ratio 0.3)."""
    return synthesize_kernel(KernelKind.SECOND_ORDER, 26e-9, 1e-9, damping_ratio=0.3)
