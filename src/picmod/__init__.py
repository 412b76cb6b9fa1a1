"""picmod: digital twin and control stack for cascaded-MZI modulator arrays."""

from .core import (
    Coupler,
    ModulatorChannel,
    MziStage,
    SweepResult,
    channel_transmission_equal,
    make_calibrated_channel,
    power_split_for_er,
    sweep_channel,
)
from .dynamics import (
    ActuatorResponse,
    KernelKind,
    OpticalTrace,
    Waveform,
    measure_rise_time,
    synthesize_kernel,
    trace_optical,
)
from .beams import (
    BeamArray,
    BeamProfile,
    SiteLeakage,
    intensity_profile,
    make_beam_array,
    site_leakage_report,
    target_plane_profile,
)
from .calibration import calibrate
from .config import ExperimentConfig
from .crosstalk import (
    CrosstalkGraph,
    Scenario,
    crosstalk_matrix,
    nearest_neighbor_graph,
    nn_mean_db,
    predict_scenario_c_db,
)
from .errors import PicmodError
from .fitting import VpiFit, fit_v_pi
from .lock import (
    LockController,
    LockRunResult,
    PulseStats,
    noisy_pulse_experiment,
    run_lock,
)
from .noise import DetectorModel, NoiseModel, OuParams, sample_ou_path
from .reports import RunReport, load_report
from .waveforms import (
    DynamicExtinction,
    PredistortionProblem,
    PredistortionSolution,
    PulseSpec,
    dynamic_extinction,
    make_pulse_train,
    predistort,
    switch_off_target_phase,
    target_phase_from_power,
)

__version__ = "0.1.0"
