"""picmod: digital twin and control stack for cascaded-MZI modulator arrays."""

from . import beams, calibration, config, core, crosstalk, dynamics, errors, fitting, lock
from . import noise, reports, serialize, waveforms

__version__ = "0.1.0"
