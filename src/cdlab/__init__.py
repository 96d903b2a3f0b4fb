"""Numerical laboratory for demand models and their potential-outcome
counterparts: share maps, inversion, unit-level counterfactuals,
homogeneity diagnostics, extrapolation rules, and micro-data parallel
trends, plus a CSV/SVG-emitting CLI."""

from .demand import (
    Integration,
    ShareMap,
    gauss_hermite,
    mixed_logit,
    monte_carlo,
    plain_logit,
)
from .errors import (
    CdlabError,
    ConfigError,
    InsufficientData,
    IntegrationFailure,
    InversionFailure,
    NoConvergence,
    NonUnique,
    NotIdentified,
    RootNotBracketed,
    SimplexViolation,
)
from .inversion import InversionConfig
from .population import Population, PopulationSpec, sample_population
from .types import (
    Bundle,
    MixingSpec,
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
)

__version__ = "0.1.0"

__all__ = [
    "Bundle",
    "CdlabError",
    "ConfigError",
    "InsufficientData",
    "Integration",
    "IntegrationFailure",
    "InversionConfig",
    "InversionFailure",
    "MixingSpec",
    "NoConvergence",
    "NonUnique",
    "NotIdentified",
    "Population",
    "PopulationSpec",
    "RootNotBracketed",
    "ShareMap",
    "SimplexViolation",
    "bundle",
    "degenerate",
    "finite_mixture",
    "gauss_hermite",
    "lognormal_mixing",
    "mixed_logit",
    "monte_carlo",
    "normal_mixing",
    "plain_logit",
    "sample_population",
]
