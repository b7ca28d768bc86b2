"""sivcav: modeling and analysis of a single emitter coupled to a
photonic-crystal cavity.

Submodules
----------
models     : domain types, units and validation; the JSON documents of the
             budget and scenario files
purcell    : Purcell/bandgap rate algebra and quantum-efficiency bookkeeping
dynamics   : three-level rate equations, analytic g2, power sweeps
montecarlo : continuous-time Markov chain photon streams and HBT histograms
fitting    : Levenberg-Marquardt engine and model-specific fitters
spectra    : mode tracking, enhancement ratios, polarization mixing
cli        : command-line interface producing machine-readable reports
errors     : exception and warning types shared across the package

Import the types from their modules (``from sivcav.models import
RadiativeBudget``); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
