"""picmod: digital twin and control stack for cascaded-MZI modulator arrays.

Each submodule is imported when first read as a package attribute
(`picmod.config`), so `import picmod` alone loads neither numpy nor PyYAML."""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    if name.isidentifier():  # "a.b" or "" names no submodule
        try:
            return importlib.import_module(f"{__name__}.{name}")  # binds it on the package
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise  # a submodule that exists failed to import a module of its own
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
