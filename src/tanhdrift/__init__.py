"""Exactly solvable regime-switching stock dynamics with a CDS signal pipeline.

Layout:

- :mod:`tanhdrift.model` -- closed-form drift, potentials, transition
  density, and regime-switch probabilities of the tanh-drift diffusion.
- :mod:`tanhdrift.mc` -- seeded Euler-Maruyama path simulation (the
  stochastic oracle).
- :mod:`tanhdrift.fokker_planck` -- Crank-Nicolson drift-diffusion
  solver (the PDE oracle).
- :mod:`tanhdrift.cds` -- synthetic CDS spreads and log-log regression
  extraction of the expected-return signal nu_hat.
- :mod:`tanhdrift.portfolio` -- cross-sectional dollar-neutral decile
  strategy and backtest accounting.
- :mod:`tanhdrift.universe` -- synthetic universe file generation.
- :mod:`tanhdrift.cli` -- the `tanhdrift` command-line front end.
"""

from .errors import (
    DataError,
    DegeneratePrices,
    EmptyResult,
    InsufficientData,
    NonPositiveValue,
    NoOverlap,
    TanhDriftError,
    ToleranceError,
    TooFewNames,
    TooFewPriceDays,
    UniverseTooSmall,
    ValidationError,
)
from .model import (
    DensityQuery,
    Direction,
    ModelParams,
    RegimeProbability,
    asymptotic_density,
    default_prob_asymptotic,
    density_normalization,
    density_profile,
    drift,
    potential,
    regime_transition_prob_finite,
    regime_transition_probs_finite,
    schrodinger_potential,
    transition_density,
)

__version__ = "0.1.0"

__all__ = [
    "DensityQuery",
    "Direction",
    "ModelParams",
    "RegimeProbability",
    "asymptotic_density",
    "default_prob_asymptotic",
    "density_normalization",
    "density_profile",
    "drift",
    "potential",
    "regime_transition_prob_finite",
    "regime_transition_probs_finite",
    "schrodinger_potential",
    "transition_density",
    "TanhDriftError",
    "ValidationError",
    "DataError",
    "ToleranceError",
    "InsufficientData",
    "DegeneratePrices",
    "NonPositiveValue",
    "EmptyResult",
    "UniverseTooSmall",
    "TooFewNames",
    "NoOverlap",
    "TooFewPriceDays",
    "__version__",
]
