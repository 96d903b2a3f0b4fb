"""Constructed data-generating processes for targeted diagnostics.

These deliberately sit outside `PopulationSpec`: they break homogeneity in
controlled ways (e.g. a type-specific response to the special
characteristic) to exercise the negative branches of the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .demand import expit
from .errors import ConfigError
from .population import Population
from .streams import market_streams
from .types import Bundles, validate_share_rows


@dataclass(frozen=True)
class ScaledX1Spec:
    """Single-product two-type logit DGP sharing the price map but not the
    x1 response: Y = Lambda(c_type * x1 - alpha p + xi).

    All types share alpha, so transporting outcomes along prices is
    type-free; transporting along x1 is not.
    """

    market_count: int
    alpha: float = 1.0
    c_by_type: tuple = (1.0, 2.0)
    type_probabilities: tuple = (0.5, 0.5)
    price_law: laws.Law = field(default_factory=lambda: laws.uniform(0.5, 3.0))
    x1_law: laws.Law = field(default_factory=lambda: laws.uniform(-1.0, 1.0))
    xi_law: laws.Law = field(default_factory=lambda: laws.normal(0.0, 0.5))
    seed: int = 0

    def __post_init__(self):
        # The type draw searches these probabilities' CDF without the checks
        # rng.choice makes, so a vector that is no distribution stops here.
        probs = np.asarray(self.type_probabilities, dtype=float)
        if (len(probs) != len(self.c_by_type) or np.any(probs < 0)
                or abs(probs.sum() - 1.0) > 1e-10):
            raise ConfigError(f"type_probabilities {self.type_probabilities} must be a "
                              f"distribution over the {len(self.c_by_type)} types")

    def outcomes(self, zeta, x1, p, xi) -> np.ndarray:
        """Validated outcomes (n, 1) of n markets with types zeta (n,) and
        x1, p and shocks xi (n,)."""
        c = np.asarray(self.c_by_type, dtype=float)[np.asarray(zeta, dtype=int)]
        return validate_share_rows(expit(c * x1 - self.alpha * p + xi)[:, None])

    def truth(self, pop: Population, a: Bundles) -> np.ndarray:
        """Potential outcomes (n, 1) of the sampled markets pop at their
        bundles a, one row each, from their stored types and shocks."""
        return self.outcomes(pop.zeta, a.x1[:, 0], a.p[:, 0], pop.xi[:, 0])


def sample_scaled_x1_population(spec: ScaledX1Spec) -> Population:
    """Market i's type, shock, x1 and price from its own substream, all
    markets' in one batch; the outcomes of all markets at once."""
    n = spec.market_count
    rng = market_streams(spec.seed, np.arange(n))
    zeta = laws.categorical(spec.type_probabilities)(rng)
    xi, x1, p = np.empty((n, 1)), np.empty((n, 1)), np.empty((n, 1))
    xi[:] = spec.xi_law.sample(rng, 1)  # a constant law gives one row for all
    x1[:] = spec.x1_law.sample(rng, 1)
    p[:] = spec.price_law.sample(rng, 1)
    return Population.frozen(zeta, xi, spec.outcomes(zeta, x1[:, 0], p[:, 0], xi[:, 0]),
                             Bundles(x1, p, np.zeros((n, 1, 0))), p.copy())
