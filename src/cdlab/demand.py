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

from .errors import ConfigError, IntegrationFailure
from .laws import categorical
from .streams import market_streams
from .types import Bundle, Bundles, MixingSpec

DEFAULT_GH_NODES = 32
MAX_GH_NODES = 2**20  # tensor-product grids grow as nodes ** dim
MAX_BLOCK_ELEMENTS = 2**19  # markets x nodes x products per node-share block (4 MB)
#: The fewest terms numpy's float sum adds pairwise rather than in order.
PAIRWISE_MIN = 8
#: The most products at which an index operation runs one ufunc call per
#: product slice (`_by_product`). At 2 products the slices were faster at
#: 40, 440 and 4,000 rows of 32 nodes; at 3 and 4 they lost at 40 or 4,000
#: rows, where broadcasting is fast enough or the strided slices cost memory
#: traffic (CHANGES.md has the table).
SLICE_MAX = 2


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
    drawn once rather than on every share evaluation, from substream (0,) of
    the integration seed."""
    rng = market_streams(integration.seed, [0])
    return _read_only(*_mc_nodes(mixing, integration.draws, rng))


@lru_cache(maxsize=64)
def hermite_grid(dim: int, n: int):
    """Tensor-product Gauss-Hermite abscissae z (n^dim, dim) and weights summing
    to 1: loc + sqrt(2) * scale * z are the nodes of N(loc, diag(scale^2))."""
    if n**dim > MAX_GH_NODES:
        raise ConfigError(f"Gauss-Hermite grid of {n}^{dim} nodes exceeds {MAX_GH_NODES}")
    x, w = np.polynomial.hermite.hermgauss(n)
    w = w / np.sqrt(np.pi)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return _read_only(z, wts)


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
    z, wts = hermite_grid(mixing.dim, n)
    b = np.asarray(mixing.loc) + np.sqrt(2.0) * np.asarray(mixing.scale) * z
    if mixing.kind == "lognormal":
        b = np.exp(b)
    return b, wts


def _mc_nodes(mixing: MixingSpec, draws: int, rng):
    """Monte Carlo nodes (draws, dim) and equal weights from rng, a batch of
    one `streams.MarketStreams`: a finite mixture's component counts are
    those of draws categorical draws."""
    if mixing.kind == "degenerate":
        return np.tile(mixing.loc, (draws, 1)), np.full(draws, 1.0 / draws)
    if mixing.kind == "finite-mixture":
        counts = np.bincount(categorical(mixing.weights)(rng, draws)[0],
                             minlength=len(mixing.weights))
        blocks = [_mc_nodes(c, max(int(k), 1), rng)[0][:k]
                  for k, c in zip(counts, mixing.components) if k > 0]
        b = np.vstack(blocks)
        return b, np.full(len(b), 1.0 / len(b))
    z = rng.standard_normal(draws * mixing.dim)[0].reshape(draws, mixing.dim)
    b = np.asarray(mixing.loc) + np.asarray(mixing.scale) * z
    if mixing.kind == "lognormal":
        b = np.exp(b)
    return b, np.full(draws, 1.0 / draws)


def _fixed_index(m: ShareMap, a: Bundle | Bundles) -> np.ndarray:
    """Non-random index g(a): (..., J) for p (..., J)."""
    g = np.zeros(np.shape(a.p))
    if m.kind == "plain-logit":
        g -= m.alpha * a.p
    if m.gamma:
        k = min(len(m.gamma), a.x2.shape[-1])
        for i in range(k):  # elementwise, so no row's bits depend on the layout
            g += a.x2[..., i] * m.gamma[i]
    return g


def _random_index(B: np.ndarray, a: Bundle | Bundles) -> np.ndarray:
    """Per-node utility from random coefficients: (..., M, J), the
    elementwise -(B0 p) plus each B_i x2_i."""
    p = a.p[..., None, :]
    out = np.empty(p.shape[:-2] + (len(B), p.shape[-1]))
    np.negative(_by_product(np.multiply, B[:, :1], p, out), out=out)
    extra = B.shape[1] - 1
    if extra:
        term = np.empty(out.shape)
        for i in range(min(extra, a.x2.shape[-1])):
            out += _by_product(np.multiply, B[:, 1 + i, None], a.x2[..., None, :, i], term)
    return out


def _by_product(ufunc, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc(x, y) into out (..., J), which x and y broadcast to, with one
    call per product slice at 2 to SLICE_MAX products. A last axis of 1 in x
    or y broadcasts to every slice. Broadcasting along a short last axis
    runs numpy's inner loop once per row; a slice runs it along the node
    axis. Each element is the same operation on the same operands, so the
    bits are those of the broadcast call."""
    J = out.shape[-1]
    if not 1 < J <= SLICE_MAX:
        return ufunc(x, y, out=out)
    per_x, per_y = x.shape[-1] > 1, y.shape[-1] > 1
    for j in range(J):
        ufunc(x[..., j * per_x], y[..., j * per_y], out=out[..., j])
    return out


def _node_shares(T: np.ndarray, outside: bool = False) -> np.ndarray:
    """Row-wise logit shares with an outside option, via log-sum-exp. With
    `outside`, the outside good's share exp(-lse) is appended as a last
    column: accurate to rounding where 1 - sum(shares) is not.

    The peak and the sum over the J products take one elementwise ufunc
    call per product slice. numpy's reduction along a short last axis runs
    its loop once per row, which made `max` and `sum` cost 10-30x an `exp`
    of the same array at J = 2. A max is exact in any order. Below
    PAIRWISE_MIN terms numpy sums in order, so the slice sum gives the same
    bits; from there on it sums pairwise, and `.sum` is both what it was and
    faster than J slice additions. The subtractions `T - peak` and
    `T - lse` broadcast along the product axis, so up to SLICE_MAX products
    they run by product slice too (`_by_product`), with the same bits.
    """
    J = T.shape[-1]
    peak = np.maximum(T[..., 0], 0.0)
    for j in range(1, J):
        np.maximum(peak, T[..., j], out=peak)
    peak = peak[..., None]
    lse = peak + np.log(np.exp(-peak) + _sum_exp(_by_product(np.subtract, T, peak,
                                                             np.empty(T.shape))))
    if not outside:
        x = _by_product(np.subtract, T, lse, np.empty(T.shape))
        return np.exp(x, out=x)
    out = np.empty(T.shape[:-1] + (J + 1,))
    _by_product(np.subtract, T, lse, out[..., :J])
    np.negative(lse, out=out[..., J:])
    return np.exp(out, out=out)


def _sum_exp(x: np.ndarray) -> np.ndarray:
    """The sum of exp(x) over the last axis, kept as an axis of 1, computed
    in x's own memory: below PAIRWISE_MIN products the slices are added into
    the first column."""
    np.exp(x, out=x)
    if x.shape[-1] >= PAIRWISE_MIN:
        return x.sum(axis=-1, keepdims=True)
    total = x[..., :1]
    for j in range(1, x.shape[-1]):
        total += x[..., j:j + 1]
    return total


def _weighted_node_shares(m: ShareMap, delta: np.ndarray, a: Bundle | Bundles,
                          outside: bool = False):
    """Node shares S (..., M, J) at delta (..., J), and the node weights;
    with `outside`, (..., M, J + 1) with the outside good last."""
    B, w = mixing_nodes(m.mixing, m.integration)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        R = _random_index(B, a)
        T = _by_product(np.add, (delta + _fixed_index(m, a))[..., None, :], R, R)
    # A finite index gives finite shares: _node_shares shifts it by its peak.
    if not np.all(np.isfinite(T)):
        raise IntegrationFailure("non-finite utility index: delta or a price term "
                                 "overflows or is NaN")
    return _node_shares(T, outside), w


def node_jacobian(P: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Share Jacobians d s / d delta (k, J + 1, J) of k markets from their
    node shares P (k, M, J + 1) and shares s = w @ P (k, J + 1), the outside
    good last."""
    J = P.shape[-1] - 1
    # d s_j / d delta_k = sum_m w_m P_mj (1[j = k] - P_mk); no 1[j = k] for
    # the outside good.
    jac = -np.matmul(np.swapaxes(P * w[:, None], 1, 2), P[..., :J])
    jac[:, np.arange(J), np.arange(J)] += s[:, :J]
    return jac


def shares_array(m: ShareMap, delta, a: Bundles) -> np.ndarray:
    """Market shares (n, J) at index delta (n, J) under Bundles a of n
    rows, unvalidated: the callers validate all rows at once
    (`types.validate_share_rows`). Mixed-logit rows go in blocks of at most
    MAX_BLOCK_ELEMENTS node shares, so the temporaries do not grow with n.
    A delta that is not (n, J), or whose J is not the bundles', is a
    ConfigError.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2:
        raise ConfigError(f"delta shape {delta.shape} is not (markets, J)")
    if delta.shape[-1:] != np.shape(a.p)[-1:]:
        raise ConfigError(f"delta shape {delta.shape} does not match J={np.shape(a.p)[-1]}")
    if m.kind == "plain-logit":
        return _node_shares(delta + _fixed_index(m, a))
    n, J = delta.shape
    step = max(1, MAX_BLOCK_ELEMENTS // (len(mixing_nodes(m.mixing, m.integration)[1]) * J))
    out = np.empty((n, J))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        S, w = _weighted_node_shares(m, delta[rows], a[rows])
        out[rows] = node_average(w, S)
    return out


def node_average(w: np.ndarray, S: np.ndarray) -> np.ndarray:
    """sum_m w_m S[..., m, :] of node values S (..., M, J) under weights w
    (M,), by numpy's own loop over a C-ordered S, so that each row's bits
    depend on that row alone. A BLAS gemv (w @ S) rounds a row by its place
    in the batch and by the layout of S."""
    return np.einsum("m,...mj->...j", w, np.ascontiguousarray(S))


def node_sum(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m w_m x[..., m] over the last axis of x (..., M), row by row as
    :func:`node_average` sums."""
    return np.einsum("...m,m->...", np.ascontiguousarray(x), w)


def expit(x, out=None):
    """The logistic function 1 / (1 + exp(-x)), elementwise, into `out` when
    given (which may be x itself). It is 0 and 1 in the far tails, with no
    overflow warning."""
    with np.errstate(over="ignore"):
        if out is None:
            return 1.0 / (1.0 + np.exp(np.negative(x)))
        np.exp(np.negative(x, out=out), out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def logit(y):
    """log(y / (1 - y)), elementwise: -inf at 0 and inf at 1, with no divide
    warning."""
    with np.errstate(divide="ignore"):
        return np.log(y / (1.0 - np.asarray(y)))


def expit_mixture(delta, offsets, weights, slope_weights=None):
    """Single-product shares s = sum_m w_m expit(delta + o_m), with delta (...)
    against node offsets (..., M). Given `slope_weights` v_m = w_m r_m, also
    the derivative of s when each delta + o_m moves at rate r_m: v = w gives
    ds/ddelta."""
    lam = np.asarray(delta, dtype=float)[..., None] + offsets
    expit(lam, out=lam)  # in place: one (..., M) temporary, not two
    if slope_weights is None:
        return node_sum(lam, weights)
    return node_sum(lam, weights), node_sum(lam * (1.0 - lam), slope_weights)


def node_offsets(m: ShareMap, a: Bundle | Bundles):
    """Node offsets o (..., M) of a single-product mixed logit at the bundles
    a, whose p is (..., 1), and the node weights w: its share at delta (...)
    is expit_mixture(delta, o, w), and node m's offset moves with the price
    at rate -B[m, 0] of the nodes B."""
    B, w = mixing_nodes(m.mixing, m.integration)
    return _fixed_index(m, a) + _random_index(B, a)[..., 0], w
