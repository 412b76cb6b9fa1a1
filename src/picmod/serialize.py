"""Deterministic CSV/JSON/binary serialization.

All writers produce byte-identical output for identical inputs: floats
are rendered with shortest round-trip repr, JSON keys are sorted, and the
binary waveform layout is fixed little-endian (u64 length, f64 sample
period, f64 samples).
"""

from __future__ import annotations

import hashlib
import json
import struct
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


_BIN_HEADER = struct.Struct("<Qd")


def write_waveform_bin(path, waveform) -> None:
    """Binary layout: u64 sample count, f64 sample period, f64[] samples."""
    samples = np.ascontiguousarray(waveform.samples if hasattr(waveform, "samples") else waveform.power, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(samples.size, waveform.sample_period))
        fh.write(samples.tobytes())


def read_waveform_bin(path) -> Waveform:
    raw = Path(path).read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise PicmodError(f"truncated waveform file {path}")
    n, dt = _BIN_HEADER.unpack_from(raw)
    expected = _BIN_HEADER.size + 8 * n
    if len(raw) != expected:
        raise PicmodError(f"waveform file {path} has wrong length")
    samples = np.frombuffer(raw, dtype="<f8", offset=_BIN_HEADER.size)
    return Waveform(dt, samples.copy())


def write_trace_csv(path, trace: OpticalTrace | Waveform) -> None:
    values = trace.power if isinstance(trace, OpticalTrace) else trace.samples
    write_csv(path, ["time_s", "value"], [trace.times(), values])
