"""Unit-level counterfactual engine and homogeneity checks.

`CounterfactualEngine.predict` routes an observed (Y, A) through the
share-map inversion to the target bundle, for one market or for stacked
markets in one call: the conversion map C_{a -> a'} of Theorem 1. The
equivalence report checks, market by market, that the theorem's three
formulations of homogeneity coincide on a simulated population for an
invertible outcome transform h and a baseline bundle a0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .demand import ShareMap, shares_array
from .inversion import DEFAULT_INVERSION, InversionConfig, invert_rows
from .transforms import Transform
from .types import Bundle, Bundles, MarketDraw, SharesVector, validate_share_rows

EQUIV_TOL = 1e-8


@dataclass(frozen=True)
class CounterfactualEngine:
    map: ShareMap
    inversion: InversionConfig = DEFAULT_INVERSION

    def predict(self, observed_y, observed_a, target_a):
        """Counterfactual shares at target_a implied by the observed market:
        one market's SharesVector under a Bundle, or the validated rows
        (n, J) of markets with shares observed_y (n, J) under Bundles,
        solved in one call.

        A deterministic function of (observed_y, observed_a, target_a)
        alone: markets agreeing on observables receive identical predictions.
        """
        if isinstance(observed_a, Bundle):
            return SharesVector(self.predict(observed_y.values[None],
                                             Bundles.repeat(observed_a, 1),
                                             Bundles.repeat(target_a, 1))[0])
        xi_hat = invert_rows(self.map, observed_y, observed_a, self.inversion) - observed_a.x1
        return validate_share_rows(shares_array(self.map, target_a.x1 + xi_hat, target_a))


@dataclass
class EquivalenceReport:
    """Max deviations, over markets and grid bundles, of the three
    formulations of the homogeneity restriction."""

    max_index_model: float  # Y(a) vs h^{-1}(x1 + xi, a)
    max_inverse_model: float  # x1 + xi vs h(Y(a), a)
    max_transformed_shift: float  # h(Y(a),a) - h(Y(a0),a0) vs x1 - x10
    tol: float = EQUIV_TOL

    @property
    def passed(self) -> bool:
        return max(self.max_index_model, self.max_inverse_model,
                   self.max_transformed_shift) <= self.tol

    def rows(self):
        return [
            ("index_model", self.max_index_model, self.max_index_model <= self.tol),
            ("inverse_model", self.max_inverse_model, self.max_inverse_model <= self.tol),
            ("transformed_shift", self.max_transformed_shift,
             self.max_transformed_shift <= self.tol),
        ]


def verify_theorem1(h: Transform, a0: Bundle, grid: Sequence[Bundle],
                    population: Sequence[MarketDraw],
                    truth: Callable[[Sequence[MarketDraw], Bundle], np.ndarray],
                    tol: float = EQUIV_TOL) -> EquivalenceReport:
    """Check the three equivalent homogeneity formulations numerically for
    the outcome transform h with baseline bundle a0.

    `truth(population, a)` evaluates the markets' potential outcomes (n, J)
    at bundle a from their stored latent states. Each bundle takes one truth
    call and one `apply` and one `invert` of h on the stacked markets. On a
    population whose DGP satisfies homogeneity with the given (h, a0), all
    three maxima should be at solver tolerance; on a heterogeneous
    (multi-type) population the transformed-shift check fails for any
    single (h, a0).
    """
    m1 = m2 = m3 = 0.0
    h0 = h.apply(truth(population, a0), a0)
    xi = h0 - a0.x1  # phi^{-1}(Y(a0)), phi the baseline map of (h, a0)
    for a in grid:
        ya = truth(population, a)
        ha = h.apply(ya, a)
        pred = h.invert(a.x1 + xi, a)
        m1 = max(m1, float(np.max(np.abs(ya - pred), initial=0.0)))
        m2 = max(m2, float(np.max(np.abs(a.x1 + xi - ha), initial=0.0)))
        m3 = max(m3, float(np.max(np.abs(ha - h0 - (a.x1 - a0.x1)), initial=0.0)))
    return EquivalenceReport(m1, m2, m3, tol=tol)
