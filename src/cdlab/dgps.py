"""Constructed data-generating processes for targeted diagnostics.

These deliberately sit outside `PopulationSpec`: they break homogeneity in
controlled ways (e.g. a type-specific response to the special
characteristic) to exercise the negative branches of the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import laws
from .population import market_rng
from .types import Bundle, Bundles, MarketDraw, validate_share_rows, validate_shares


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

    def outcome(self, zeta: int, x1: float, p: float, xi: float) -> float:
        return float(expit(self.c_by_type[zeta] * x1 - self.alpha * p + xi))

    def truth(self, draws, a: Bundles) -> np.ndarray:
        """Potential outcomes (n, 1) of the markets `draws` at their bundles
        a, one row each, from their stored types and shocks."""
        c = np.array([self.c_by_type[d.zeta] for d in draws])
        xi = np.array([d.xi[0] for d in draws])
        return validate_share_rows(expit(c * a.x1[:, 0] - self.alpha * a.p[:, 0] + xi)[:, None])


def sample_scaled_x1_population(spec: ScaledX1Spec) -> list[MarketDraw]:
    draws = []
    for i in range(spec.market_count):
        rng = market_rng(spec.seed, i)
        zeta = int(rng.choice(len(spec.c_by_type), p=spec.type_probabilities))
        xi = spec.xi_law.sample(rng, 1)
        x1 = spec.x1_law.sample(rng, 1)
        p = spec.price_law.sample(rng, 1)
        a = Bundle(x1, p, np.zeros((1, 0)))
        y = validate_shares([spec.outcome(zeta, x1[0], p[0], xi[0])])
        draws.append(MarketDraw(xi=xi, zeta=zeta, y=y, a=a, z=p.copy()))
    return draws
