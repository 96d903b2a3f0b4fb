"""Unit-level counterfactuals and homogeneity checks.

`predict` routes observed (Y, A), stacked one market per row, through the
share-map inversion to the target bundles in one call: the conversion map
C_{a -> a'}(Y) = sigma(sigma^{-1}(Y, a) - x1 + x1', a') of Theorem 1, whose
outcome transform h is the inverse share map sigma^{-1}(., a).
`verify_theorem1` checks, market by market, that the theorem's three
formulations of homogeneity coincide on a simulated population for a share
map and a baseline bundle a0.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .demand import ShareMap, shares_array
from .errors import ConfigError
from .inversion import invert_rows
from .population import Population
from .types import Bundle, Bundles, Check, validate_share_rows

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


def stack_targets(population: Population,
                  targets: Sequence[Bundles]) -> tuple[Population, Bundles]:
    """The markets of `population` once per target, block after block, and
    the targets, each the Bundles of those n markets, stacked to match: k
    targets make k n rows, so one truth call, one `invert_rows` and one
    `shares_array` cover them all."""
    tiled = population[np.tile(np.arange(len(population)), len(targets))]
    return tiled, Bundles(*(np.concatenate([getattr(t, f) for t in targets])
                            for f in ("x1", "p", "x2")))


def verify_theorem1(m: ShareMap, a0: Bundle, grid: Sequence[Bundle],
                    population: Population,
                    truth: Callable[[Population, Bundles], np.ndarray]) -> list[Check]:
    """Check the three equivalent homogeneity formulations numerically for
    the outcome transform h = sigma^{-1}(., a) of the share map m, with
    baseline bundle a0: the largest deviation, over markets and grid
    bundles, of each formulation, as the Checks "index_model",
    "inverse_model" and "transformed_shift" at EQUIV_TOL. The inverse model
    compares h(Y(a), a) with the population's own index x1 + xi, so it does
    not share its arithmetic with the transformed shift, which uses only h.

    `truth(population, a)` evaluates the markets' potential outcomes (n, J)
    at Bundles a, one row each, from their stored latent states. a0 and the
    G grid bundles are stacked over the tiled markets (`stack_targets`), so
    the check makes one truth call, one `invert_rows` and one `shares_array`
    on (G + 1) n rows. On a population whose DGP satisfies homogeneity with
    the given (m, a0), all three maxima should be at solver tolerance; on a
    heterogeneous (multi-type) population the transformed-shift check fails
    for any single (m, a0). No markets, or an empty grid, is a ConfigError,
    not a vacuous pass.
    """
    n = len(population)
    if not n:
        raise ConfigError("theorem 1 check needs at least 1 market, got 0")
    if not len(grid):
        raise ConfigError("theorem 1 check needs a grid of at least 1 bundle, got none")
    bundles = [a0, *grid]
    pop, rows = stack_targets(population, [Bundles.repeat(a, n) for a in bundles])
    y = truth(pop, rows)
    h = invert_rows(m, y, rows, ids=np.tile(np.arange(n), len(bundles)))
    h = h.reshape(len(bundles), n, -1)
    xi = h[0] - a0.x1  # phi^{-1}(Y(a0)), phi the baseline map of (m, a0)
    x1 = np.array([a.x1 for a in grid])[:, None]  # (G, 1, J)
    pred = shares_array(m, (x1 + xi).reshape(len(grid) * n, -1), rows[n:])
    return [Check(name, float(np.max(np.abs(gap))), EQUIV_TOL, "<=") for name, gap in (
        ("index_model", y[n:] - pred),  # Y(a) vs h^{-1}(x1 + xi, a)
        ("inverse_model", x1 + population.xi - h[1:]),  # the DGP's x1 + xi vs h(Y(a), a)
        ("transformed_shift", h[1:] - h[0] - (x1 - a0.x1)),  # h(Y(a),a) - h(Y(a0),a0) vs x1 - x10
    )]
