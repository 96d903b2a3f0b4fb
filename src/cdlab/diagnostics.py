"""Homogeneity diagnostics: zero-conditional-variance estimation and
demand-curve-crossing detection on a two-type single-product population."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .demand import gauss_hermite, mixed_logit, share_curve_1d, share_curve_slope_1d
from .errors import InsufficientData
from .inversion import invert_rows
from .population import Population, PopulationSpec, true_counterfactuals
from .types import Bundle, MixingSpec, lognormal_mixing


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


def conditional_variance(population: Population, spec: PopulationSpec,
                         a: Bundle, a_prime: Bundle, bins: int) -> float:
    """Estimate max-over-bins conditional variance of Y(a') given Y(a).

    True per-market counterfactuals come from the stored latent state. Bins
    partition Y(a) into equal-count groups; within each bin the variance of
    Y(a') is taken around a local polynomial fit in Y(a), which removes the
    bin-width component and isolates genuine cross-market heterogeneity.
    A bin of fewer than 2 markets is InsufficientData, raised before any
    fit; a bin with no more markets than regressors takes the variance
    around its mean.

    The bins of one size are fitted together, by one stacked SVD of their
    designs at the rank cutoff of `lstsq(rcond=None)`: a bin whose Y(a) are
    all equal (a rank-1 design) gets the minimum-norm fit, its mean, and
    every residual agrees with a per-bin `lstsq` to rounding.
    """
    if len(population) < 2:
        raise InsufficientData(f"need at least 2 markets, got {len(population)}")
    xi, zeta = population.xi, population.zeta
    ya = true_counterfactuals(spec, xi, zeta, a)
    yap = true_counterfactuals(spec, xi, zeta, a_prime)
    groups = _partition(ya, bins)
    fewest = min(map(len, groups))
    if fewest < 2:
        raise InsufficientData(f"bin with {fewest} markets; reduce bin count")
    worst = 0.0
    for size in sorted(set(map(len, groups))):
        idx = np.array([g for g in groups if len(g) == size])  # (b, size)
        Ya, Yap = ya[idx], yap[idx]  # (b, size, J)
        # Quintic polynomial regressors in each coordinate of Y(a); centered
        # and scaled per bin to keep the design well conditioned. Degree 5
        # pushes the smooth-map residual well below the 1e-10 floor even in
        # wide tail bins.
        centered = Ya - Ya.mean(axis=1, keepdims=True)
        scale = np.maximum(np.abs(centered).max(axis=1, keepdims=True), 1e-300)
        u = centered / scale
        X = np.concatenate([np.ones(idx.shape + (1,))] + [u**k for k in range(1, 6)], axis=-1)
        if size <= X.shape[-1]:
            resid = Yap - Yap.mean(axis=1, keepdims=True)
        else:
            # The least-squares residual: Y(a') less its projection on the
            # singular vectors that lstsq(rcond=None) keeps.
            U, sv, _ = np.linalg.svd(X, full_matrices=False)
            keep = sv > max(X.shape[-2:]) * np.finfo(float).eps * sv[..., :1]
            resid = Yap - U @ ((np.swapaxes(U, -1, -2) @ Yap) * keep[..., None])
        worst = max(worst, float(np.max(np.mean(resid**2, axis=1))))
    return worst


@dataclass
class CurvePair:
    """Own and opposite-type demand curves through one market's (P, Y)."""

    grid: np.ndarray
    own: np.ndarray
    opposite: np.ndarray
    own_slope: float  # d share / d price at the observed price
    opposite_slope: float
    xi_opposite: float


def crossing_curves(spec: Fig1Spec, markets: Population) -> list:
    """Single-product price curves through each market's observed point.

    The own curve uses the market's stored latent state; the opposite-type
    curve uses the xi that makes the other mixing distribution pass through
    (P, Y) exactly. Per mixing type, one `invert_rows` call under its share
    map solves the markets that have it as their opposite type, and one
    curve and one slope evaluation each serve its own and its opposite
    curves. A market whose observed share no curve can reach gets None in
    place of its pair, and is not inverted.
    """
    if markets.y.shape[1] != 1:
        raise ValueError("crossing curves are defined for J = 1")
    grid = np.asarray(spec.curve_grid, dtype=float)
    zeta, price, y_obs = markets.zeta, markets.a.p[:, 0], markets.y[:, 0]
    delta = markets.a.x1[:, 0] + markets.xi[:, 0]
    n, reachable = len(markets), (0.0 < y_obs) & (y_obs < 1.0)
    xi_opp = np.full(n, np.nan)
    own, opp = np.empty((n, len(grid))), np.full((n, len(grid)), np.nan)
    own_slope, opp_slope = np.empty(n), np.full(n, np.nan)
    for t in (0, 1):
        mix = spec.mixing(t)
        mine = np.flatnonzero(zeta == t)
        other = np.flatnonzero((zeta != t) & reachable)
        if len(other):
            m = mixed_logit(mix, integration=gauss_hermite(spec.quad_nodes))
            xi_opp[other] = invert_rows(m, markets.y[other], markets.a[other])[:, 0]
        for rows, d, curves, slopes in ((mine, delta, own, own_slope),
                                        (other, xi_opp, opp, opp_slope)):
            curves[rows] = share_curve_1d(mix, d[rows, None], grid, spec.quad_nodes)
            slopes[rows] = share_curve_slope_1d(mix, d[rows], price[rows], spec.quad_nodes)
    return [CurvePair(grid, own[i], opp[i], float(own_slope[i]), float(opp_slope[i]),
                      float(xi_opp[i])) if reachable[i] else None for i in range(n)]

