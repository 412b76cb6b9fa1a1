"""Deterministic CSV/JSON serialization.

All writers produce byte-identical output for identical inputs: floats
are rendered with shortest round-trip repr and JSON keys are sorted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .dynamics import OpticalTrace, Waveform
from .errors import PicmodError


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV with a header row."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise PicmodError("CSV columns must have equal length")
    # Format from plain Python values: one tolist() per column, not one
    # numpy scalar per cell. Lines are written as they are formatted, so
    # the text is never held whole, which pays for the tolist() values.
    rows = zip(*(c.tolist() for c in columns))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def json_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return None if obj != obj else ("inf" if obj > 0 else "-inf")
    return obj


def write_json(path, obj) -> None:
    Path(path).write_text(json_canonical(_jsonable(obj)) + "\n")


def config_hash(data: dict) -> str:
    """Short provenance hash of a configuration mapping."""
    blob = json.dumps(_jsonable(data), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def write_trace_csv(path, trace: OpticalTrace | Waveform) -> None:
    values = trace.power if isinstance(trace, OpticalTrace) else trace.samples
    write_csv(path, ["time_s", "value"], [trace.times(), values])
