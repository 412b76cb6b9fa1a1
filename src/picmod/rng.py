"""Seeded random-number streams.

All stochastic code in picmod draws from numpy Generators created here.
Streams are derived from a single 64-bit run seed plus string labels, so
the order in which modules request their streams cannot perturb any path.
"""

from __future__ import annotations

import numpy as np

# SHA-256 from CPython's builtin module, as the stdlib's random.py takes its
# SHA-512: importing hashlib loads OpenSSL, about 4 MB of resident memory.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def _label_key(label: str) -> int:
    digest = sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Return a Generator for stream (seed, labels).

    Identical (seed, labels) always yields a bit-identical stream.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_key(l) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
