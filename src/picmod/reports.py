"""Structured run reports written alongside every CLI experiment."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import PicmodError
from .serialize import write_json


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
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, name, value, units, threshold=None, passed=None) -> None:
        self.metrics.append(Metric(name, float(value), units, threshold, passed))

    @property
    def passed(self) -> bool:
        checked = [m.passed for m in self.metrics if m.passed is not None]
        return all(checked) if checked else True

    def finish(self) -> None:
        self.wall_time_s = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        return {
            "experiment_kind": self.experiment_kind,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
            "metrics": [asdict(m) for m in self.metrics],
        }

    def save(self, path) -> None:
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


def load_report(path) -> dict:
    """The run report saved at path. Raises PicmodError, naming the path,
    when the file cannot be read, is not JSON or is not a run report."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PicmodError(f"{path} cannot be read ({exc.strerror})") from exc
    except ValueError as exc:
        raise PicmodError(f"{path} is not a run report ({exc})") from exc
    for key in ("experiment_kind", "config_hash", "metrics", "passed"):
        if not isinstance(data, dict) or key not in data:
            raise PicmodError(f"{path} is not a run report (missing {key!r})")
    # The report table reads every field of every metric.
    keys = [f.name for f in fields(Metric)]
    if not isinstance(data["metrics"], list) or not all(
        isinstance(m, dict) and all(k in m for k in keys) for m in data["metrics"]
    ):
        raise PicmodError(f"{path} is not a run report (metrics must be objects with {keys})")
    return data
