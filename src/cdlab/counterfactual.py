"""Unit-level counterfactual engine and homogeneity checks.

`predict` routes an observed (Y, A) through the share-map inversion to the
target bundle, for one market or for stacked markets in one call.
`convert` does the same through an explicit transformed-outcome
representation (h, phi, a0); the two agree whenever h is the inverse of the
share map. The equivalence report checks, market by market, that the three
formulations coincide on a simulated population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .demand import ShareMap, shares_array
from .errors import InversionFailure
from .inversion import DEFAULT_INVERSION, InversionConfig, invert_rows
from .transforms import FD_STEP, Phi, Transform
from .types import (Bundle, Bundles, MarketDraw, SharesVector, validate_share_rows,
                    validate_shares)

EQUIV_TOL = 1e-8


@dataclass(frozen=True)
class CounterfactualEngine:
    map: ShareMap
    inversion: InversionConfig = DEFAULT_INVERSION

    def predict(self, observed_y, observed_a, target_a):
        return predict(self, observed_y, observed_a, target_a)


def predict(engine: CounterfactualEngine, observed_y, observed_a, target_a):
    """Counterfactual shares at target_a implied by the observed market: one
    market's SharesVector under a Bundle, or the validated rows (n, J) of
    markets with shares observed_y (n, J) under Bundles, solved in one call.

    A deterministic function of (observed_y, observed_a, target_a) alone:
    markets agreeing on observables receive identical predictions.
    """
    if isinstance(observed_a, Bundle):
        return SharesVector(predict(engine, observed_y.values[None],
                                    Bundles.repeat(observed_a, 1),
                                    Bundles.repeat(target_a, 1))[0])
    xi_hat = invert_rows(engine.map, observed_y, observed_a, engine.inversion) - observed_a.x1
    return validate_share_rows(shares_array(engine.map, target_a.x1 + xi_hat, target_a))


@dataclass
class HomTriple:
    """An invertible outcome transform h, its baseline bundle a0, and the
    derived baseline map phi with phi^{-1}(y) = h(y, p0, x20) - x10."""

    h: Transform
    a0: Bundle
    phi: Phi = field(default=None)

    def __post_init__(self):
        if self.phi is None:
            self.phi = Phi(self.h, self.a0)


def convert(triple: HomTriple, y: SharesVector, a: Bundle, a_prime: Bundle) -> SharesVector:
    """Convert the outcome at bundle a into the outcome at a_prime:
    h^{-1}(h(y, p, x2) - x1 + x1', p', x2')."""
    v = triple.h.apply_bundle(y.values, a)
    out = triple.h.invert_bundle(v - a.x1 + a_prime.x1, a_prime)
    try:
        return validate_shares(out)
    except Exception as exc:
        raise InversionFailure(f"conversion left the simplex: {out}") from exc


@dataclass
class EquivalenceReport:
    """Max deviations, over markets and grid bundles, of the three
    formulations of the homogeneity restriction."""

    max_index_model: float  # Y(a) vs h^{-1}(x1 + xi, p, x2)
    max_inverse_model: float  # x1 + xi vs h(Y(a), p, x2)
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


def verify_theorem1(triple: HomTriple, grid: Sequence[Bundle],
                    population: Sequence[MarketDraw],
                    truth: Callable[[Sequence[MarketDraw], Bundle], np.ndarray],
                    tol: float = EQUIV_TOL) -> EquivalenceReport:
    """Check the three equivalent homogeneity formulations numerically.

    `truth(population, a)` evaluates the markets' potential outcomes (n, J)
    at bundle a from their stored latent states. Each bundle takes one truth
    call and one `apply` and one `invert` of h on the stacked markets. On a
    population whose DGP satisfies homogeneity with the given triple, all
    three maxima should be at solver tolerance; on a heterogeneous
    (multi-type) population the transformed-shift check fails for any
    single triple.
    """
    m1 = m2 = m3 = 0.0
    a0 = triple.a0
    h0 = triple.h.apply_bundle(truth(population, a0), a0)
    xi = h0 - a0.x1  # phi^{-1}(Y(a0))
    for a in grid:
        ya = truth(population, a)
        ha = triple.h.apply_bundle(ya, a)
        pred = triple.h.invert_bundle(a.x1 + xi, a)
        m1 = max(m1, float(np.max(np.abs(ya - pred), initial=0.0)))
        m2 = max(m2, float(np.max(np.abs(a.x1 + xi - ha), initial=0.0)))
        m3 = max(m3, float(np.max(np.abs(ha - h0 - (a.x1 - a0.x1)), initial=0.0)))
    return EquivalenceReport(m1, m2, m3, tol=tol)


@dataclass
class JacobianReport:
    max_dev_x1: float
    max_dev_px2: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_x1, self.max_dev_px2)


def jacobian_identity_check(triple: HomTriple, y: SharesVector, a: Bundle,
                            step: float = FD_STEP) -> JacobianReport:
    """Compare finite differences of `convert` in the target bundle against
    the implicit-function Jacobians (dh/dy)^{-1} and -(dh/dy)^{-1} dh/d(p,x2)."""
    J = a.J
    hy = triple.h.jac_y(y.values, a.p, a.x2)
    hy_inv = np.linalg.inv(hy)

    def conv(target: Bundle) -> np.ndarray:
        return convert(triple, y, a, target).values

    # d convert / d x1 should equal (dh/dy)^{-1}
    fd_x1 = np.empty((J, J))
    for k in range(J):
        e = np.zeros(J)
        e[k] = step
        fd_x1[:, k] = (conv(a.replace(x1=a.x1 + e)) - conv(a.replace(x1=a.x1 - e))) / (2 * step)
    dev_x1 = float(np.max(np.abs(fd_x1 - hy_inv)))

    # d convert / d (p, x2) should equal -(dh/dy)^{-1} dh/d(p, x2)
    dev_px2 = 0.0
    for k in range(J):
        e = np.zeros(J)
        e[k] = step
        fd = (conv(a.replace(p=a.p + e)) - conv(a.replace(p=a.p - e))) / (2 * step)
        dh = (triple.h.apply(y.values, a.p + e, a.x2)
              - triple.h.apply(y.values, a.p - e, a.x2)) / (2 * step)
        dev_px2 = max(dev_px2, float(np.max(np.abs(fd + hy_inv @ dh))))
    for k in range(a.x2.shape[1]):
        for j in range(J):
            e = np.zeros_like(np.array(a.x2))
            e[j, k] = step
            fd = (conv(a.replace(x2=a.x2 + e)) - conv(a.replace(x2=a.x2 - e))) / (2 * step)
            dh = (triple.h.apply(y.values, a.p, a.x2 + e)
                  - triple.h.apply(y.values, a.p, a.x2 - e)) / (2 * step)
            dev_px2 = max(dev_px2, float(np.max(np.abs(fd + hy_inv @ dh))))
    return JacobianReport(dev_x1, dev_px2)
