"""sivcav: modeling and analysis of a single emitter coupled to a
photonic-crystal cavity.

Submodules
----------
models     : shared domain types, units and validation
purcell    : Purcell/bandgap rate algebra and quantum-efficiency bookkeeping
dynamics   : three-level rate equations, analytic g2, power sweeps
montecarlo : continuous-time Markov chain photon streams and HBT histograms
fitting    : Levenberg-Marquardt engine and model-specific fitters
spectra    : mode tracking, enhancement ratios, polarization mixing
cli        : command-line interface producing machine-readable reports
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateEigenvaluesWarning,
    DomainError,
    InfeasibleMeasurementError,
    InputFormatError,
    NarrowCavityWarning,
    RankDeficiencyError,
    ValidationError,
)
from .models import (
    CavityMode,
    EmitterLine,
    FieldMap,
    G2Curve,
    G2Params,
    PhotonicEnvironment,
    PLSpectrum,
    PolarizationScan,
    RadiativeBudget,
    SaturationCurve,
    ThreeLevelRates,
)

__all__ = [
    "__version__",
    "CavityMode",
    "DegenerateEigenvaluesWarning",
    "DomainError",
    "EmitterLine",
    "FieldMap",
    "G2Curve",
    "G2Params",
    "InfeasibleMeasurementError",
    "InputFormatError",
    "NarrowCavityWarning",
    "PhotonicEnvironment",
    "PLSpectrum",
    "PolarizationScan",
    "RadiativeBudget",
    "RankDeficiencyError",
    "SaturationCurve",
    "ThreeLevelRates",
    "ValidationError",
]
