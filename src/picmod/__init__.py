"""picmod: digital twin and control stack for cascaded-MZI modulator arrays.

Each submodule is imported when first read as a package attribute
(`picmod.config`), so `import picmod` alone loads neither numpy nor PyYAML."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = {"beams", "calibration", "config", "core", "crosstalk", "dynamics", "errors",
               "fitting", "lock", "noise", "reports", "serialize", "waveforms"}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds it on the package
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
