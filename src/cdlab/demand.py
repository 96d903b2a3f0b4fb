"""Share maps: plain logit and random-coefficient (mixed) logit.

Shares are computed from a J-vector index delta (the part of utility that
the inversion module recovers) plus a non-random index in (p, x2) and, for
mixed logit, random coefficients integrated by Gauss-Hermite quadrature or
Monte Carlo. All logit ratios go through log-sum-exp, so large indices do
not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .errors import ConfigError, IntegrationFailure
from .types import Bundle, MixingSpec, SharesVector, validate_shares

DEFAULT_GH_NODES = 32
MAX_GH_NODES = 2**20  # tensor-product grids grow as nodes ** dim


@dataclass(frozen=True)
class Integration:
    """How to integrate over the random-coefficient distribution."""

    kind: str  # "gauss-hermite" | "monte-carlo"
    nodes: int = DEFAULT_GH_NODES  # gauss-hermite
    draws: int = 1000  # monte-carlo
    seed: int = 0  # monte-carlo

    def __post_init__(self):
        if self.kind not in ("gauss-hermite", "monte-carlo"):
            raise ConfigError(f"unknown integration kind: {self.kind!r}")
        if self.nodes < 1 or self.draws < 1:
            raise ConfigError("nodes and draws must be >= 1")


def gauss_hermite(nodes: int = DEFAULT_GH_NODES) -> Integration:
    return Integration("gauss-hermite", nodes=nodes)


def monte_carlo(draws: int, seed: int = 0) -> Integration:
    return Integration("monte-carlo", draws=draws, seed=seed)


@dataclass(frozen=True)
class ShareMap:
    """A market share map.

    plain-logit: share_j = exp(delta_j + g(a_j)) / (1 + sum_k exp(...)),
    with non-random index g(a_j) = -alpha p_j + x2_j . gamma.

    mixed-logit: the price coefficient (and optionally leading x2
    coefficients) is random with distribution `mixing`; gamma stays fixed.
    Degenerate mixing at beta0 reproduces plain logit with alpha = beta0.
    """

    kind: str  # "plain-logit" | "mixed-logit"
    alpha: float = 0.0
    gamma: tuple = ()
    mixing: MixingSpec | None = None
    integration: Integration = gauss_hermite()

    def __post_init__(self):
        if self.kind not in ("plain-logit", "mixed-logit"):
            raise ConfigError(f"unknown share map kind: {self.kind!r}")
        if self.kind == "mixed-logit" and self.mixing is None:
            raise ConfigError("mixed-logit requires a mixing spec")
        object.__setattr__(self, "gamma", tuple(float(g) for g in np.atleast_1d(self.gamma))
                           if np.size(self.gamma) else ())


def plain_logit(alpha: float = 0.0, gamma=()) -> ShareMap:
    return ShareMap("plain-logit", alpha=alpha, gamma=gamma)


def mixed_logit(mixing: MixingSpec, gamma=(), integration: Integration | None = None) -> ShareMap:
    return ShareMap("mixed-logit", gamma=gamma, mixing=mixing,
                    integration=integration or gauss_hermite())


@lru_cache(maxsize=64)
def _hermgauss(n: int):
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w / np.sqrt(np.pi)


def mixing_nodes(mixing: MixingSpec, integration: Integration):
    """Return (B, w): node matrix (M, dim) and weights (M,) summing to 1."""
    if integration.kind == "monte-carlo":
        return _mc_nodes_cached(mixing, integration)
    return _gh_nodes_cached(mixing, integration.nodes)


def _read_only(b: np.ndarray, w: np.ndarray):
    b.setflags(write=False)
    w.setflags(write=False)
    return b, w


@lru_cache(maxsize=256)
def _gh_nodes_cached(mixing: MixingSpec, n: int):
    return _read_only(*_gh_nodes(mixing, n))


@lru_cache(maxsize=16)
def _mc_nodes_cached(mixing: MixingSpec, integration: Integration):
    """The draws are a pure function of (mixing, integration), so they are
    drawn once rather than on every share evaluation."""
    rng = np.random.Generator(np.random.Philox(integration.seed))
    return _read_only(*_mc_nodes(mixing, integration.draws, rng))


def _gh_nodes(mixing: MixingSpec, n: int):
    if mixing.kind == "degenerate":
        return np.array([mixing.loc]), np.array([1.0])
    if mixing.kind == "finite-mixture":
        blocks, weights = [], []
        for wgt, comp in zip(mixing.weights, mixing.components):
            b, w = _gh_nodes(comp, n)
            blocks.append(b)
            weights.append(wgt * w)
        return np.vstack(blocks), np.concatenate(weights)
    dim = mixing.dim
    if n**dim > MAX_GH_NODES:
        raise ConfigError(f"Gauss-Hermite grid of {n}^{dim} nodes exceeds {MAX_GH_NODES}")
    x, w = _hermgauss(n)
    loc = np.asarray(mixing.loc)
    scale = np.asarray(mixing.scale)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)  # (n^dim, dim)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    b = loc + np.sqrt(2.0) * scale * z
    if mixing.kind == "lognormal":
        b = np.exp(b)
    return b, wts


def _mc_nodes(mixing: MixingSpec, draws: int, rng):
    if mixing.kind == "degenerate":
        return np.tile(mixing.loc, (draws, 1)), np.full(draws, 1.0 / draws)
    if mixing.kind == "finite-mixture":
        counts = rng.multinomial(draws, mixing.weights)
        blocks = [_mc_nodes(c, max(int(k), 1), rng)[0][:k]
                  for k, c in zip(counts, mixing.components) if k > 0]
        b = np.vstack(blocks)
        return b, np.full(len(b), 1.0 / len(b))
    z = rng.standard_normal((draws, mixing.dim))
    b = np.asarray(mixing.loc) + np.asarray(mixing.scale) * z
    if mixing.kind == "lognormal":
        b = np.exp(b)
    return b, np.full(draws, 1.0 / draws)


def _fixed_index(m: ShareMap, a: Bundle) -> np.ndarray:
    g = np.zeros(a.J)
    if m.kind == "plain-logit":
        g -= m.alpha * a.p
    if m.gamma:
        k = min(len(m.gamma), a.x2.shape[1])
        g += a.x2[:, :k] @ np.asarray(m.gamma[:k])
    return g


def _random_index(B: np.ndarray, a: Bundle) -> np.ndarray:
    """Per-node utility from random coefficients: (M, J)."""
    out = -np.outer(B[:, 0], a.p)
    extra = B.shape[1] - 1
    if extra:
        k = min(extra, a.x2.shape[1])
        out += B[:, 1:1 + k] @ a.x2[:, :k].T
    return out


def _node_shares(T: np.ndarray) -> np.ndarray:
    """Row-wise logit shares with an outside option, via log-sum-exp."""
    peak = np.maximum(T.max(axis=-1, keepdims=True), 0.0)
    lse = peak + np.log(np.exp(-peak) + np.exp(T - peak).sum(axis=-1, keepdims=True))
    return np.exp(T - lse)


def _weighted_node_shares(m: ShareMap, delta: np.ndarray, a: Bundle):
    B, w = mixing_nodes(m.mixing, m.integration)
    T = delta[None, :] + _fixed_index(m, a)[None, :] + _random_index(B, a)
    S = _node_shares(T)
    if not np.all(np.isfinite(S)):
        raise IntegrationFailure("non-finite node shares")
    return S, w


def shares(m: ShareMap, delta, a: Bundle) -> SharesVector:
    """Market shares at index delta under bundle a."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (a.J,):
        raise ConfigError(f"delta shape {delta.shape} does not match J={a.J}")
    if not np.all(np.isfinite(delta)):
        raise IntegrationFailure(f"non-finite delta: {delta}")
    if m.kind == "plain-logit":
        s = _node_shares(delta + _fixed_index(m, a))
    else:
        S, w = _weighted_node_shares(m, delta, a)
        s = w @ S
    if not np.all(np.isfinite(s)):
        raise IntegrationFailure("integration produced non-finite shares")
    return validate_shares(s)


def shares_array(m: ShareMap, delta, a: Bundle) -> np.ndarray:
    """Like :func:`shares` but returns the raw array without validation.

    Used by inner solver loops where intermediate iterates may graze the
    simplex boundary.
    """
    delta = np.asarray(delta, dtype=float)
    if m.kind == "plain-logit":
        return _node_shares(delta + _fixed_index(m, a))
    S, w = _weighted_node_shares(m, delta, a)
    return w @ S


def share_jacobian(m: ShareMap, delta, a: Bundle) -> np.ndarray:
    """J x J matrix of d share_j / d delta_k.

    For plain logit this is diag(s) - s s'; for mixed logit the node-wise
    version averaged over the mixing distribution.
    """
    delta = np.asarray(delta, dtype=float)
    if m.kind == "plain-logit":
        s = _node_shares(delta + _fixed_index(m, a))
        return np.diag(s) - np.outer(s, s)
    S, w = _weighted_node_shares(m, delta, a)
    jac = np.diag(w @ S) - np.einsum("m,mj,mk->jk", w, S, S)
    if not np.all(np.isfinite(jac)):
        raise IntegrationFailure("integration produced non-finite jacobian")
    return jac


def share_curve_1d(mixing: MixingSpec, delta, p, nodes: int = DEFAULT_GH_NODES):
    """Single-product mixed-logit shares integral(Lambda(delta - beta p)) dG.

    `delta` and `p` broadcast; returns an array of the broadcast shape.
    Vectorized across many markets or grid points at once.
    """
    B, w = _gh_nodes(mixing, nodes)
    delta = np.asarray(delta, dtype=float)
    p = np.asarray(p, dtype=float)
    t = delta[..., None] - p[..., None] * B[:, 0]
    return expit(t) @ w


def share_curve_slope_1d(mixing: MixingSpec, delta, p, nodes: int = DEFAULT_GH_NODES):
    """d/dp of :func:`share_curve_1d` at (delta, p)."""
    B, w = _gh_nodes(mixing, nodes)
    delta = np.asarray(delta, dtype=float)
    p = np.asarray(p, dtype=float)
    t = delta[..., None] - p[..., None] * B[:, 0]
    lam = expit(t)
    return (lam * (1.0 - lam) * (-B[:, 0])) @ w
