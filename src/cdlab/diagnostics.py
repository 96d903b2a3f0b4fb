"""Homogeneity diagnostics: zero-conditional-variance estimation and
demand-curve-crossing detection on a two-type single-product population."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .demand import curve_offsets, share_curve_1d, share_curve_slope_1d
from .errors import InsufficientData, RootNotBracketed
from .inversion import solve_share_curve
from .population import PopulationSpec, true_counterfactuals
from .types import Bundle, MarketDraw, MixingSpec, lognormal_mixing


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
    xi = np.array([d.xi for d in population])
    zeta = np.array([d.zeta for d in population])
    ya = true_counterfactuals(spec, xi, zeta, a)
    yap = true_counterfactuals(spec, xi, zeta, a_prime)
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


def _invert_curve_xi(mixing: MixingSpec, price, target, nodes: int) -> np.ndarray:
    """The xi with share(xi, price) = target: J = 1 share inversions, one per
    element of the broadcast price and target, in one solver call."""
    price, target = np.broadcast_arrays(np.asarray(price, dtype=float),
                                        np.asarray(target, dtype=float))
    unreachable = ~((0.0 < target) & (target < 1.0))
    if unreachable.any():
        i = int(np.argmax(unreachable))
        raise RootNotBracketed(f"share {target.flat[i]} unreachable at price {price.flat[i]}")
    return solve_share_curve(*curve_offsets(mixing, price, nodes), target)


@dataclass
class CurvePair:
    """Own and opposite-type demand curves through one market's (P, Y)."""

    grid: np.ndarray
    own: np.ndarray
    opposite: np.ndarray
    own_slope: float  # d share / d price at the observed price
    opposite_slope: float
    xi_opposite: float


def crossing_curves(spec: Fig1Spec, markets: list[MarketDraw]) -> list:
    """Single-product price curves through each market's observed point.

    The own curve uses the market's stored latent state; the opposite-type
    curve uses the xi that makes the other mixing distribution pass through
    (P, Y) exactly. Per mixing type, one inversion solves the markets that
    have it as their opposite type, and one curve and one slope evaluation
    each serve its own and its opposite curves. A market whose observed
    share no curve can reach gets None in place of its pair.
    """
    if any(d.a.J != 1 for d in markets):
        raise ValueError("crossing curves are defined for J = 1")
    grid = np.asarray(spec.curve_grid, dtype=float)
    zeta = np.array([d.zeta for d in markets], dtype=int)
    price = np.array([d.a.p[0] for d in markets], dtype=float)
    y_obs = np.array([d.y.values[0] for d in markets], dtype=float)
    delta = np.array([d.a.x1[0] + d.xi[0] for d in markets], dtype=float)
    n, reachable = len(markets), (0.0 < y_obs) & (y_obs < 1.0)
    xi_opp = np.full(n, np.nan)
    own, opp = np.empty((n, len(grid))), np.full((n, len(grid)), np.nan)
    own_slope, opp_slope = np.empty(n), np.full(n, np.nan)
    for t in (0, 1):
        mix = spec.mixing(t)
        mine = np.flatnonzero(zeta == t)
        other = np.flatnonzero((zeta != t) & reachable)
        if len(other):
            xi_opp[other] = _invert_curve_xi(mix, price[other], y_obs[other], spec.quad_nodes)
        for rows, d, curves, slopes in ((mine, delta, own, own_slope),
                                        (other, xi_opp, opp, opp_slope)):
            curves[rows] = share_curve_1d(mix, d[rows, None], grid, spec.quad_nodes)
            slopes[rows] = share_curve_slope_1d(mix, d[rows], price[rows], spec.quad_nodes)
    return [CurvePair(grid, own[i], opp[i], float(own_slope[i]), float(opp_slope[i]),
                      float(xi_opp[i])) if reachable[i] else None for i in range(n)]


def crossing_curve(spec: Fig1Spec, market: MarketDraw) -> CurvePair:
    """:func:`crossing_curves` for one market; RootNotBracketed when the
    opposite type cannot reach its observed share."""
    pair = crossing_curves(spec, [market])[0]
    if pair is None:
        raise RootNotBracketed(f"share {market.y.values[0]} unreachable at price "
                               f"{market.a.p[0]}")
    return pair

