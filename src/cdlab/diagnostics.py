"""Homogeneity diagnostics: zero-conditional-variance estimation and
demand-curve-crossing detection on a two-type single-product population."""

from __future__ import annotations

import numpy as np

from .demand import expit_mixture, mixing_nodes, node_offsets
from .errors import ConfigError, InsufficientData
from .inversion import invert_rows
from .population import Population, PopulationSpec, true_counterfactuals
from .types import Bundle, Bundles

#: The prices at which `crossing_curves` draws each curve.
CURVE_GRID = np.round(np.linspace(0.25, 3.25, 61), 10)
CURVE_GRID.setflags(write=False)
_GRID_BUNDLES = Bundles(np.zeros((len(CURVE_GRID), 1)), CURVE_GRID[:, None],
                        np.zeros((len(CURVE_GRID), 1, 0)))


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


def crossing_curves(spec: PopulationSpec, markets: Population):
    """Single-product price curves through each market's observed point, on
    the prices CURVE_GRID: own and opposite curves (n, G), own and opposite
    slopes d share / d price at the observed price (n,), and the opposite
    type's xi (n,).

    spec is a J = 1 population of two types and no x2, and markets a sample
    of it; another spec, or a market of a type other than 0 and 1, is a
    ConfigError. The own curve uses the market's stored latent state; the
    opposite-type curve uses the xi that makes the other type's share map
    pass through (P, Y) exactly. Per type, one `invert_rows` call under its
    share map solves the markets that have it as their opposite type, and
    one curve and one slope evaluation each serve its own and its opposite
    curves. A market whose observed share no curve can reach is not
    inverted, and gets NaN in every output.
    """
    if (spec.J, spec.n_types, spec.x2_dim) != (1, 2, 0):
        raise ConfigError(f"crossing curves need a J = 1 population of 2 types and no x2, "
                          f"got J = {spec.J}, {spec.n_types} types, x2_dim = {spec.x2_dim}")
    zeta, y_obs = markets.zeta, markets.y[:, 0]
    strange = (zeta != 0) & (zeta != 1)
    if strange.any():
        i = int(np.argmax(strange))
        raise ConfigError(f"market {i} has type {zeta[i]}; crossing curves know types 0 and 1")
    delta = markets.a.x1[:, 0] + markets.xi[:, 0]
    n, reachable = len(markets), (0.0 < y_obs) & (y_obs < 1.0)
    xi_opp, own_slope, opp_slope = np.full((3, n), np.nan)
    own, opp = np.full((2, n, len(CURVE_GRID)), np.nan)
    for t in (0, 1):
        m = spec.share_map(t)
        B, w = mixing_nodes(m.mixing, m.integration)
        at_grid = node_offsets(m, _GRID_BUNDLES)[0]
        mine = np.flatnonzero((zeta == t) & reachable)
        other = np.flatnonzero((zeta != t) & reachable)
        if len(other):
            xi_opp[other] = invert_rows(m, markets.y[other], markets.a[other])[:, 0]
        for rows, d, curves, slopes in ((mine, delta, own, own_slope),
                                        (other, xi_opp, opp, opp_slope)):
            curves[rows] = expit_mixture(d[rows, None], at_grid, w)
            # node m's index moves with the price at -B[m, 0]
            slopes[rows] = expit_mixture(d[rows], node_offsets(m, markets.a[rows])[0], w,
                                         slope_weights=-B[:, 0] * w)[1]
    return own, opp, own_slope, opp_slope, xi_opp
