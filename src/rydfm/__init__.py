"""Rydberg-atom RF electrometry simulator with FM-spectroscopy readout."""

__version__ = "0.1.0"

from .analysis import (
    AllanResult,
    DetectorModel,
    FilteredScan,
    LorentzParams,
    SensitivityReport,
    allan_deviation,
    classify_noise,
    lorentzian_fit,
    matched_filter,
    projection_limit,
    sensitivity_estimate,
)
from .fm import (
    FmConfig,
    RamParams,
    SidebandSet,
    apply_ram,
    demodulate,
    propagate,
    ram_photocurrent,
    sidebands,
)
from .noise import (
    NoiseBudget,
    TimeSeries,
    gen_composite,
    gen_powerlaw,
    shot_noise_series,
    shot_noise_snr,
)
from .quantum import (
    DensityMatrix,
    FieldDrive,
    LadderSystem,
    build_hamiltonian,
    build_liouvillian,
    cs_vapor_density,
    doppler_average,
    steady_state,
    susceptibility_batch,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .servo import (
    PidGains,
    ServoTrace,
    run_servo,
    ziegler_nichols_gains,
)
from .spectroscopy import (
    AtResult,
    MediumSpectrum,
    at_splitting,
    field_from_splitting,
    scan_probe,
    splitting_from_field,
)

__all__ = [
    "__version__",
    "AllanResult", "DetectorModel", "FilteredScan", "LorentzParams",
    "SensitivityReport", "allan_deviation", "classify_noise",
    "lorentzian_fit", "matched_filter", "projection_limit",
    "sensitivity_estimate",
    "FmConfig", "RamParams", "SidebandSet", "apply_ram", "demodulate",
    "propagate", "ram_photocurrent", "sidebands",
    "NoiseBudget", "TimeSeries", "gen_composite", "gen_powerlaw",
    "shot_noise_series", "shot_noise_snr",
    "DensityMatrix", "FieldDrive", "LadderSystem", "build_hamiltonian",
    "build_liouvillian", "cs_vapor_density", "doppler_average",
    "steady_state", "susceptibility_batch",
    "Scenario", "load_scenario", "parse_scenario",
    "PidGains", "ServoTrace", "run_servo", "ziegler_nichols_gains",
    "AtResult", "MediumSpectrum", "at_splitting", "field_from_splitting",
    "scan_probe", "splitting_from_field",
]
