"""Experiment configuration: strict schema, validation, and factories.

The configuration is a single human-editable YAML file with explicit
units in key names. Unknown keys are rejected, every value is validated
before any experiment runs, and a short hash of the validated mapping is
embedded in every output artifact for provenance.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .core import ModulatorChannel, make_calibrated_channel, power_split_for_er
from .crosstalk import CrosstalkGraph, nearest_neighbor_graph
from .dynamics import ActuatorResponse, KernelKind, synthesize_kernel
from .errors import PicmodError
from .lock import LockController
from .noise import DetectorModel, NoiseModel, OuParams
from .serialize import config_hash, open_atomic
from .waveforms import PulseSpec

# libyaml's loader and dumper where PyYAML was built with it: the same data
# and the same bytes as the pure-Python ones, 3-5x faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _number(lo=None, hi=None, integer=False):
    def check(value, path):
        ok_type = isinstance(value, int) if integer else isinstance(value, (int, float))
        if isinstance(value, bool) or not ok_type:
            kind = "integer" if integer else "number"
            raise PicmodError(f"{path}: expected {kind}, got {value!r}")
        # An int is finite, so an integer key's bounds decide. A number is
        # tested as the float it is used as, which a huge int does not fit.
        if not integer:
            try:
                number = float(value)
            except OverflowError:
                raise PicmodError(f"{path}: expected a number that fits a float") from None
            if math.isnan(number):
                raise PicmodError(f"{path}: expected a number, got NaN")
            if math.isinf(number):
                raise PicmodError(f"{path}: expected a finite number, got {number:+}")
        if lo is not None and value < lo:
            raise PicmodError(f"{path}: {value} below minimum {lo}")
        if hi is not None and value > hi:
            raise PicmodError(f"{path}: {value} above maximum {hi}")
        return value

    return check


def _db_level():
    """A power level in dB: a number at most 0, or -inf for no power at all,
    the one infinite value a config may hold (an ideal detector's floor)."""
    at_most_0 = _number(hi=0.0)

    def check(value, path):
        return value if value == -math.inf else at_most_0(value, path)

    return check


def _choice(*options):
    def check(value, path):
        if value not in options:
            raise PicmodError(f"{path}: {value!r} not one of {options}")
        return value

    return check


def _number_list(lo=None, hi=None):
    item = _number(lo, hi)

    def check(value, path):
        if not isinstance(value, list) or not value:
            raise PicmodError(f"{path}: expected a non-empty list of numbers")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return check


def _optional(inner):
    def check(value, path):
        if value is None:
            return None
        return inner(value, path)

    return check


SCHEMA = {
    "wavelength_nm": _choice(420, 795, 1013),
    "seed": _number(0, 2**64 - 1, integer=True),
    "chip": {
        "n_channels": _number(1, 64, integer=True),
        "n_stages": _number(1, 8, integer=True),
        "v_pi_volts": _number(lo=1e-3),
        "insertion_loss_db": _number(lo=0.0),
        "propagation_loss_db_per_cm": _number(lo=0.0),
        "path_length_cm": _number(lo=0.0),
        "coupling_loss_db": _number(lo=0.0),
        "target_er_db": _number_list(lo=1.0),
        "coupler_power_splits": _optional(_number_list(lo=0.0, hi=1.0)),
    },
    "actuator": {
        "kind": _choice("first_order", "second_order"),
        "rise_time_10_90_ns": _number(lo=1e-3),
        "damping_ratio": _optional(_number(lo=1e-6, hi=0.999999)),
        "sample_period_ns": _number(lo=1e-6),
    },
    "detector": {
        "sweep_floor_db": _db_level(),
        "onchip_floor_db": _db_level(),
    },
    "noise": {
        "bias_drift_sigma_rad": _number(lo=0.0),
        "bias_drift_tau_s": _number(lo=1e-12),
        "amplitude_jitter_sigma": _number(lo=0.0),
        "v_pi_drift_sigma": _number(lo=0.0),
        "v_pi_drift_tau_s": _number(lo=1e-12),
    },
    "lock": {
        "update_rate_hz": _number(lo=1e-6),
        "dither_amplitude_rad": _number(lo=1e-12),
        "gain_p": _number(),
        "gain_i": _number(),
        "max_step_rad": _number(lo=0.0),
        "integrator_limit": _number(lo=0.0),
        "duration_hours": _number(lo=1e-6),
    },
    "crosstalk": {
        "nn_before_db": _db_level(),
        "nn_after_db": _db_level(),
        "nnn_before_db": _db_level(),
        "nnn_after_db": _db_level(),
        "scenario_c_target_db": _db_level(),
    },
    "beams": {
        "n_beams": _number(1, 64, integer=True),
        "pitch_d0": _number(lo=1e-3),
        "nn_leak_db": _db_level(),
        "floor_db": _db_level(),
    },
    "pulse": {
        "period_us": _number(lo=1e-6),
        "duty": _number(lo=1e-3, hi=0.999),
        "n_pulses": _number(1, integer=True),
        "block_period_ms": _number(lo=1e-6),
        "block_n_pulses": _number(1, integer=True),
        "n_blocks": _number(1, integer=True),
    },
    "predistortion": {
        "settle_window_us": _number(lo=1e-6),
        "extinction_target": _number(lo=1e-300, hi=1.0 - 1e-12),
        "regularization": _number(lo=0.0),
        "v_max_over_v_pi": _number(lo=0.1),
        "ramp_time_ns": _number(lo=0.0),
    },
    "targets": {
        "pulse_area_std": _number(lo=0.0),
        "block_std": _number(lo=0.0),
    },
}


def _validate(data, schema, path=""):
    if not isinstance(data, dict):
        raise PicmodError(f"{path or 'config'}: expected a mapping")
    unknown = set(data) - set(schema)
    if unknown:
        raise PicmodError(f"{path or 'config'}: unknown keys {sorted(unknown, key=str)}")
    missing = set(schema) - set(data)
    if missing:
        raise PicmodError(f"{path or 'config'}: missing keys {sorted(missing, key=str)}")
    out = {}
    for key, rule in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(rule, dict):
            out[key] = _validate(data[key], rule, sub)
        else:
            out[key] = rule(data[key], sub)
    return out


class ExperimentConfig:
    """Validated configuration plus factories for the model objects."""

    def __init__(self, data: dict):
        # _validate builds new dicts and lists and keeps only immutable
        # scalars, so the config shares nothing with `data`.
        self.data = _validate(data, SCHEMA)
        chip = self.data["chip"]
        if len(chip["target_er_db"]) != chip["n_channels"]:
            raise PicmodError("chip.target_er_db must list one target per channel")
        splits = chip["coupler_power_splits"]
        if splits is not None and len(splits) != chip["n_channels"]:
            raise PicmodError("chip.coupler_power_splits must list one split per channel")
        if self.data["actuator"]["kind"] == "second_order" and (
            self.data["actuator"]["damping_ratio"] is None
        ):
            raise PicmodError("actuator.damping_ratio required for second_order kind")
        self.hash = config_hash(self.data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
        except OSError as exc:
            raise PicmodError(f"{path} cannot be read ({exc.strerror})") from exc
        # ValueError: bytes that are not UTF-8 (UnicodeDecodeError), or the
        # loader's int() past Python's digit limit or date() on no real day.
        except (yaml.YAMLError, ValueError) as exc:
            raise PicmodError(f"cannot parse {path}: {exc}") from exc
        if raw is None:
            raise PicmodError(f"{path} is empty")
        return cls(raw)

    def save(self, path) -> None:
        with open_atomic(path) as fh:
            fh.write(yaml.dump(self.data, Dumper=_YAML_DUMPER, sort_keys=True))

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return ExperimentConfig({**self.data, "seed": seed})

    # -- factories -------------------------------------------------------

    def solved_splits(self) -> list[float]:
        """Each channel's coupler power split solved from its ER target,
        whether or not the config holds frozen splits."""
        chip = self.data["chip"]
        return [power_split_for_er(er, chip["n_stages"]) for er in chip["target_er_db"]]

    def channels(self) -> list[ModulatorChannel]:
        """One channel per split: the frozen splits, else the solved ones."""
        chip = self.data["chip"]
        return [
            make_calibrated_channel(
                v_pi=chip["v_pi_volts"],
                power_split=split,
                n_stages=chip["n_stages"],
                channel_index=i,
            )
            for i, split in enumerate(chip["coupler_power_splits"] or self.solved_splits())
        ]

    def link_budget_db(self) -> float:
        """Fiber-to-output loss of every channel in dB: facet coupling
        twice, propagation over the path, and the modulator insertion loss."""
        chip = self.data["chip"]
        return (
            2.0 * chip["coupling_loss_db"]
            + chip["propagation_loss_db_per_cm"] * chip["path_length_cm"]
            + chip["insertion_loss_db"]
        )

    def actuator(self) -> ActuatorResponse:
        act = self.data["actuator"]
        return synthesize_kernel(
            KernelKind(act["kind"]),
            act["rise_time_10_90_ns"] * 1e-9,
            act["sample_period_ns"] * 1e-9,
            damping_ratio=act["damping_ratio"],
        )

    def _detector(self, floor_key: str) -> DetectorModel:
        return DetectorModel(10.0 ** (self.data["detector"][floor_key] / 10.0))

    def sweep_detector(self) -> DetectorModel:
        return self._detector("sweep_floor_db")

    def onchip_detector(self) -> DetectorModel:
        return self._detector("onchip_floor_db")

    def noise_model(self, seed=None) -> NoiseModel:
        nz = self.data["noise"]
        return NoiseModel(
            bias_drift=OuParams(nz["bias_drift_sigma_rad"], nz["bias_drift_tau_s"]),
            amplitude_jitter_sigma=nz["amplitude_jitter_sigma"],
            v_pi_drift=OuParams(nz["v_pi_drift_sigma"], nz["v_pi_drift_tau_s"]),
            seed=self.seed if seed is None else seed,
        )

    def lock_controller(self) -> LockController:
        lk = self.data["lock"]
        return LockController(
            update_rate=lk["update_rate_hz"],
            dither_amplitude=lk["dither_amplitude_rad"],
            gain_p=lk["gain_p"],
            gain_i=lk["gain_i"],
            max_step=lk["max_step_rad"],
            integrator_limit=lk["integrator_limit"],
        )

    def crosstalk_graph(self) -> CrosstalkGraph:
        xt = self.data["crosstalk"]
        return nearest_neighbor_graph(
            self.data["chip"]["n_channels"],
            before_nn_db=xt["nn_before_db"],
            after_nn_db=xt["nn_after_db"],
            before_nnn_db=xt["nnn_before_db"],
            after_nnn_db=xt["nnn_after_db"],
        )

    def pulse_spec(self, block: bool = False) -> PulseSpec:
        pl = self.data["pulse"]
        period = pl["block_period_ms"] * 1e-3 if block else pl["period_us"] * 1e-6
        return PulseSpec(on_duration=pl["duty"] * period, period=period)
