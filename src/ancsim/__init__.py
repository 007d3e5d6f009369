"""Multichannel active-noise-control simulation library.

Core layers: signal containers and stateful filters (`signals`,
`filters`), the acoustic plant (`acoustics`), single-channel adaptive
algorithms (`adaptation`), the multichannel controller and its cost model
(`mcanc`), offline path identification (`sysid`), evaluation metrics
(`metrics`), and the experiment harness (`config`, `scenario`,
`reporting`, `cli`).
"""

from ._version import __version__
from .acoustics import (
    MediumParams,
    Plant,
    energy_density,
    spl_delta,
    superposed_energy_density,
    synthetic_plant,
)
from .adaptation import (
    AdaptationRun,
    FxlmsFilter,
    LmsFilter,
    lms_mu_bound,
    wiener_solve,
)
from .config import ExperimentConfig, default_config, load_config, save_config
from .errors import (
    AncError,
    ConditioningError,
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    UndefinedBoundError,
    WavError,
)
from .filters import FirFilter
from .loops import loop_aligned_path, run_adaptive, run_fixed
from .mcanc import ChannelConfig, MacCount, McAncController, mac_count, mac_measure
from .metrics import (
    RunReport,
    build_run_report,
    noise_reduction_per_interval,
    power_spectrum,
    snr_overall,
    spectrogram,
)
from .scenario import ScenarioResult, run_scenario
from .reporting import export_report
from .signals import Signal
from .synth import BandNoiseSpec, ToneSpec, WavFileSpec, compose, synthesize_noise
from .sysid import IdentificationResult, identify_path
from .wavio import read_wav, write_wav

__all__ = [
    "__version__",
    "AdaptationRun", "AncError", "BandNoiseSpec", "ChannelConfig",
    "ConditioningError", "ConfigError", "DataError",
    "DivergenceError", "DomainError", "ExperimentConfig", "FirFilter",
    "FxlmsFilter", "IdentificationResult", "LmsFilter", "MacCount",
    "McAncController", "MediumParams", "Plant", "RunReport", "ScenarioResult",
    "Signal", "ToneSpec", "UndefinedBoundError", "WavError", "WavFileSpec",
    "build_run_report", "compose", "default_config",
    "energy_density", "export_report", "identify_path",
    "lms_mu_bound", "load_config", "loop_aligned_path", "mac_count",
    "mac_measure", "noise_reduction_per_interval", "power_spectrum",
    "read_wav", "run_adaptive", "run_fixed", "run_scenario", "save_config",
    "snr_overall", "spectrogram", "spl_delta",
    "superposed_energy_density", "synthesize_noise", "synthetic_plant",
    "wiener_solve", "write_wav",
]
