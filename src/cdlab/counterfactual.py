"""Unit-level counterfactuals and homogeneity checks.

`predict` routes observed (Y, A), stacked one market per row, through the
share-map inversion to the target bundles in one call: the conversion map
C_{a -> a'}(Y) = sigma(sigma^{-1}(Y, a) - x1 + x1', a') of Theorem 1, whose
outcome transform h is the inverse share map sigma^{-1}(., a). The
equivalence report checks, market by market, that the theorem's three
formulations of homogeneity coincide on a simulated population for a share
map and a baseline bundle a0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .demand import ShareMap, shares_array
from .errors import ConfigError
from .inversion import invert_rows
from .population import Population
from .types import Bundle, Bundles, validate_share_rows

EQUIV_TOL = 1e-8


def predict(m: ShareMap, observed_y, observed_a: Bundles, target_a: Bundles) -> np.ndarray:
    """Counterfactual shares at target_a implied by the observed markets:
    the validated rows (n, J) of markets with shares observed_y (n, J)
    under Bundles, solved in one call.

    A deterministic function of (observed_y, observed_a, target_a)
    alone: markets agreeing on observables receive identical predictions.
    """
    xi_hat = invert_rows(m, observed_y, observed_a) - observed_a.x1
    return validate_share_rows(shares_array(m, target_a.x1 + xi_hat, target_a))


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


def verify_theorem1(m: ShareMap, a0: Bundle, grid: Sequence[Bundle],
                    population: Population,
                    truth: Callable[[Population, Bundle], np.ndarray],
                    tol: float = EQUIV_TOL) -> EquivalenceReport:
    """Check the three equivalent homogeneity formulations numerically for
    the outcome transform h = sigma^{-1}(., a) of the share map m, with
    baseline bundle a0.

    `truth(population, a)` evaluates the markets' potential outcomes (n, J)
    at bundle a from their stored latent states. Each bundle takes one truth
    call, one `invert_rows` and one `shares_array` on the stacked markets.
    On a population whose DGP satisfies homogeneity with the given (m, a0),
    all three maxima should be at solver tolerance; on a heterogeneous
    (multi-type) population the transformed-shift check fails for any
    single (m, a0). No markets is a ConfigError, not a vacuous pass.
    """
    n = len(population)
    if not n:
        raise ConfigError("theorem 1 check needs at least 1 market, got 0")
    m1 = m2 = m3 = 0.0
    h0 = invert_rows(m, truth(population, a0), Bundles.repeat(a0, n))
    xi = h0 - a0.x1  # phi^{-1}(Y(a0)), phi the baseline map of (m, a0)
    for a in grid:
        rows = Bundles.repeat(a, n)
        ya = truth(population, a)
        ha = invert_rows(m, ya, rows)
        pred = shares_array(m, a.x1 + xi, rows)
        m1 = max(m1, float(np.max(np.abs(ya - pred))))
        m2 = max(m2, float(np.max(np.abs(a.x1 + xi - ha))))
        m3 = max(m3, float(np.max(np.abs(ha - h0 - (a.x1 - a0.x1)))))
    return EquivalenceReport(m1, m2, m3, tol=tol)
