"""Homogeneity diagnostics: zero-conditional-variance estimation and
demand-curve-crossing detection on a two-type single-product population."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .demand import gauss_hermite, mixed_logit, share_curve_1d, share_curve_slope_1d
from .errors import InsufficientData, RootNotBracketed
from .inversion import invert
from .population import PopulationSpec, true_counterfactual
from .types import (Bundle, MarketDraw, MixingSpec, bundle, lognormal_mixing,
                    validate_shares)

CURVE_POINT_TOL = 1e-8


@dataclass(frozen=True)
class Fig1Spec:
    """Two-type single-product population with crossing demand curves.

    Both types have a positive random price coefficient; the second type is
    markedly more price sensitive in the tail. The price assignment law is
    explicit config, not hard-coded.
    """

    blue: MixingSpec = field(default_factory=lambda: lognormal_mixing(0.0, 0.5))
    orange: MixingSpec = field(default_factory=lambda: lognormal_mixing(-0.5, 2.0))
    type_probabilities: tuple = (0.5, 0.5)
    price_law: laws.Law = field(default_factory=lambda: laws.uniform(0.5, 3.0))
    xi_law: laws.Law = field(default_factory=lambda: laws.normal(0.0, 1.0))
    market_count: int = 2000
    seed: int = 0
    curve_grid: tuple = tuple(np.round(np.linspace(0.25, 3.25, 61), 10))
    quad_nodes: int = 32

    def population_spec(self) -> PopulationSpec:
        return PopulationSpec(
            J=1, market_count=self.market_count,
            mixing_by_type=(self.blue, self.orange),
            type_probabilities=self.type_probabilities,
            price_law=self.price_law, xi_law=self.xi_law, seed=self.seed,
        )

    def mixing(self, zeta: int) -> MixingSpec:
        return (self.blue, self.orange)[zeta]


def _partition(values: np.ndarray, bins: int) -> list:
    """Equal-count bins on a scalar, or recursive median splits for vectors."""
    n, J = values.shape
    if J == 1:
        order = np.argsort(values[:, 0], kind="stable")
        return [chunk for chunk in np.array_split(order, bins) if len(chunk)]
    # k-d style: halve on cycling coordinates until the leaf count is reached
    depth = max(1, int(np.ceil(np.log2(bins))))
    leaves = [np.arange(n)]
    for level in range(depth):
        axis = level % J
        nxt = []
        for idx in leaves:
            if len(idx) <= 1 or len(leaves) >= bins:
                nxt.append(idx)
                continue
            order = idx[np.argsort(values[idx, axis], kind="stable")]
            half = len(order) // 2
            nxt.extend([order[:half], order[half:]])
        leaves = nxt
    return [leaf for leaf in leaves if len(leaf)]


def conditional_variance(population: list[MarketDraw], spec: PopulationSpec,
                         a: Bundle, a_prime: Bundle, bins: int) -> float:
    """Estimate max-over-bins conditional variance of Y(a') given Y(a).

    True per-market counterfactuals come from the stored latent state. Bins
    partition Y(a) into equal-count groups; within each bin the variance of
    Y(a') is taken around a local polynomial fit in Y(a), which removes the
    bin-width component and isolates genuine cross-market heterogeneity.
    """
    if len(population) < 2:
        raise InsufficientData(f"need at least 2 markets, got {len(population)}")
    ya = np.array([true_counterfactual(spec, d, a).values for d in population])
    yap = np.array([true_counterfactual(spec, d, a_prime).values for d in population])
    groups = _partition(ya, bins)
    worst = 0.0
    for idx in groups:
        if len(idx) < 2:
            raise InsufficientData(f"bin with {len(idx)} markets; reduce bin count")
        # Quintic polynomial regressors in each coordinate of Y(a); centered
        # and scaled per bin to keep the design well conditioned. Degree 5
        # pushes the smooth-map residual well below the 1e-10 floor even in
        # wide tail bins.
        centered = ya[idx] - ya[idx].mean(axis=0)
        scale = np.maximum(np.abs(centered).max(axis=0), 1e-300)
        u = centered / scale
        X = np.column_stack([np.ones(len(idx))] + [u**k for k in range(1, 6)])
        if len(idx) <= X.shape[1]:
            resid = yap[idx] - yap[idx].mean(axis=0)
        else:
            beta, *_ = np.linalg.lstsq(X, yap[idx], rcond=None)
            resid = yap[idx] - X @ beta
        worst = max(worst, float(np.max(np.mean(resid**2, axis=0))))
    return worst


def _invert_curve_xi(mixing: MixingSpec, price: float, target: float,
                     nodes: int) -> float:
    """The xi with share(xi, price) = target: a J = 1 share inversion."""
    if not 0.0 < target < 1.0:
        raise RootNotBracketed(f"share {target} unreachable at price {price}")
    m = mixed_logit(mixing, integration=gauss_hermite(nodes))
    return float(invert(m, validate_shares([target]), bundle(0.0, price))[0])


@dataclass
class CurvePair:
    """Own and opposite-type demand curves through one market's (P, Y)."""

    grid: np.ndarray
    own: np.ndarray
    opposite: np.ndarray
    own_slope: float  # d share / d price at the observed price
    opposite_slope: float
    xi_opposite: float


def crossing_curve(spec: Fig1Spec, market: MarketDraw) -> CurvePair:
    """Single-product price curves through the observed point.

    The own curve uses the market's stored latent state; the opposite-type
    curve uses the xi that makes the other mixing distribution pass through
    (P, Y) exactly.
    """
    if market.a.J != 1:
        raise ValueError("crossing curves are defined for J = 1")
    price = float(market.a.p[0])
    y_obs = float(market.y.values[0])
    grid = np.asarray(spec.curve_grid, dtype=float)
    own_mix = spec.mixing(market.zeta)
    opp_mix = spec.mixing(1 - market.zeta)
    delta_own = float(market.a.x1[0] + market.xi[0])
    xi_opp = _invert_curve_xi(opp_mix, price, y_obs, spec.quad_nodes)
    own = share_curve_1d(own_mix, np.full_like(grid, delta_own), grid, spec.quad_nodes)
    opp = share_curve_1d(opp_mix, np.full_like(grid, xi_opp), grid, spec.quad_nodes)
    own_slope = float(share_curve_slope_1d(own_mix, np.array(delta_own),
                                           np.array(price), spec.quad_nodes))
    opp_slope = float(share_curve_slope_1d(opp_mix, np.array(xi_opp),
                                           np.array(price), spec.quad_nodes))
    return CurvePair(grid, own, opp, own_slope, opp_slope, xi_opp)


def demand_curves_identical_or_disjoint(curve_a: np.ndarray, curve_b: np.ndarray,
                                        tol: float = CURVE_POINT_TOL) -> bool:
    """True iff the curves agree everywhere or nowhere on their common grid.

    False marks a proper crossing: a homogeneity-violation witness.
    """
    gap = np.abs(np.asarray(curve_a) - np.asarray(curve_b))
    return bool(np.max(gap) <= tol or np.min(gap) > tol)
