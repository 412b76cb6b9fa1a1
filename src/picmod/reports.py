"""Run reports: the fields of RunReport and Metric are their one schema."""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

from .errors import PicmodError


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    units: str
    threshold: str | None = None  # human-readable pass condition
    passed: bool | None = None  # None when purely informational


@dataclass
class RunReport:
    """Outcome of one experiment: metrics, provenance, pass/fail."""

    experiment_kind: str
    config_hash: str
    seed: int
    metrics: list[Metric] = field(default_factory=list)
    wall_time_s: float = 0.0
    _t0: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def add(self, name, value, units, threshold=None, passed=None) -> None:
        self.metrics.append(Metric(name, float(value), units, threshold, passed))

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics if m.passed is not None)

    def finish(self) -> None:
        self.wall_time_s = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        data = asdict(self)
        del data["_t0"]
        return {**data, "passed": self.passed}

    def save(self, path) -> None:
        from .serialize import write_json  # it loads numpy, which `picmod report` never needs
        write_json(path, self.to_dict())

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.experiment_kind}] config {self.config_hash} seed {self.seed}"]
        for m in self.metrics:
            status = ""
            if m.passed is not None:
                status = "  PASS" if m.passed else "  FAIL"
            thr = f" (require {m.threshold})" if m.threshold else ""
            lines.append(f"  {m.name}: {m.value:.6g} {m.units}{thr}{status}")
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


# The field types of a report class, evaluated once per class.
_type_hints = functools.cache(get_type_hints)


def _fields(cls, /, **data) -> dict:
    """data, a JSON object (** takes no other), once each value has its field's
    type in cls; a float may also be the null, "inf" or "-inf" write_json writes."""
    hints = _type_hints(cls)
    for key, value in data.items():
        hint = hints.get(key, object)  # cls() rejects a key that names no field
        if hint is float and value in (None, "inf", "-inf"):
            data[key] = float("nan" if value is None else value)
        elif not isinstance(value, getattr(hint, "__origin__", hint)):  # list[Metric]: a list
            raise TypeError(f"{cls.__name__}.{key} cannot be {value!r}")
    return data


def load_report(path) -> RunReport:
    """The RunReport saved at path, its `passed` recomputed from the metrics.
    Raises PicmodError, naming the path, if the file is no readable run report."""
    try:
        data = _fields(RunReport, **json.loads(Path(path).read_text()))
        data.pop("passed", None)
        metrics = [Metric(**_fields(Metric, **m)) for m in data.pop("metrics", [])]
        return RunReport(**data, metrics=metrics)
    except OSError as exc:
        raise PicmodError(f"{path} cannot be read ({exc.strerror})") from exc
    except (TypeError, ValueError) as exc:
        raise PicmodError(f"{path} is not a run report ({exc})") from exc
