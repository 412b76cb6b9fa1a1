"""Deterministic CSV/JSON serialization.

All writers produce byte-identical output for identical inputs: floats
are rendered with shortest round-trip repr and JSON keys are sorted.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dynamics import Waveform
from .errors import PicmodError


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextmanager
def open_atomic(path):
    """Open a text file that replaces `path` only once it is written whole.

    Writes go to a temporary file in the same directory, which os.replace
    moves over `path` when the block ends; if the block raises, the
    temporary file is removed and `path` keeps its old contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV with a header row."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise PicmodError("CSV columns must have equal length")
    # Format from plain Python values: one tolist() per column, not one
    # numpy scalar per cell. The formatter is chosen once per column: repr
    # for a float dtype of up to 64 bits, whose tolist() gives Python
    # floats (fmt would give the same text), and fmt for any other dtype.
    # Lines are written as they are formatted, so the text is never held
    # whole, which pays for the tolist() values.
    cells = [
        map(repr if c.dtype.kind == "f" and c.dtype.itemsize <= 8 else fmt, c.tolist())
        for c in columns
    ]
    with open_atomic(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


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
    with open_atomic(path) as fh:
        fh.write(json_canonical(_jsonable(obj)) + "\n")


def config_hash(data: dict) -> str:
    """Short provenance hash of a configuration mapping."""
    blob = json.dumps(_jsonable(data), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def write_trace_csv(path, trace: Waveform) -> None:
    write_csv(path, ["time_s", "value"], [trace.times(), trace.samples])
