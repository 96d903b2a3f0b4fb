"""Demographic-indexed market share profiles.

Markets report shares separately for each demographic point w on a common
grid. The share map has demographic-shifted mean utilities Pi w plus a
market shock, with Gaussian random coefficients on the product intercepts.
A candidate transform h is accepted when it makes the transformed profiles
parallel across markets up to market-specific vertical shifts; instruments
then pin down the remaining per-treatment levels.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import laws
from .demand import MAX_BLOCK_ELEMENTS, _node_shares, expit_mixture, hermite_grid, node_average
from .errors import (ConfigError, IntegrationFailure, NoConvergence, NonUnique, NotIdentified,
                     RootNotBracketed)
from .inversion import InversionConfig, _solve_log_shares, solve_share_curve
from .streams import block_keys, market_streams
from .types import Bundle, Check, validate_share_rows

PARALLEL_TOL = 1e-8
DEFAULT_NU_NODES = 16


@dataclass(frozen=True)
class Profile:
    """Market shares at each demographic grid point (common grid); the
    baseline w0 is the first grid point."""

    w_grid: np.ndarray  # (G, J)
    shares: np.ndarray  # (G, J)

    def __post_init__(self):
        s = np.asarray(self.shares, dtype=float)
        s = validate_share_rows(s[:, None] if s.ndim == 1 else s)
        w = _w_matrix(self.w_grid, s.shape[1])
        if w.shape[0] != s.shape[0]:
            raise ConfigError("w_grid and shares must align")
        object.__setattr__(self, "w_grid", w)
        object.__setattr__(self, "shares", s)

    @classmethod
    def _around(cls, w_grid: np.ndarray, shares: np.ndarray) -> "Profile":
        """A profile around a read-only (G, J) grid and a block of share rows
        that `validate_share_rows` has passed, without validating again."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "w_grid", w_grid)
        object.__setattr__(profile, "shares", shares)
        return profile


@dataclass(frozen=True)
class MicroDgp:
    """Mixed logit with demographic index Pi w and intercept random
    coefficients nu ~ N(0, diag(sigma^2))."""

    Pi: np.ndarray  # (J, J)
    sigma: np.ndarray  # (J,) random-coefficient standard deviations
    alpha: float  # price coefficient
    xi_law: laws.Law = field(default_factory=lambda: laws.normal(0.0, 1.0))
    nu_nodes: int = DEFAULT_NU_NODES
    sigma_w_slope: float = 0.0  # J = 1 only; nonzero breaks the index structure

    def __post_init__(self):
        Pi = np.atleast_2d(np.asarray(self.Pi, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if Pi.shape[0] != Pi.shape[1] or Pi.shape[0] != len(sigma):
            raise ConfigError("Pi must be J x J with matching sigma length")
        if np.linalg.cond(Pi) > 1e8:
            raise ConfigError("Pi is rank deficient (condition number > 1e8)")
        if np.any(sigma < 0):
            raise ConfigError("sigma must be nonnegative")
        if self.sigma_w_slope != 0.0 and len(sigma) != 1:
            raise ConfigError(f"sigma_w_slope = {self.sigma_w_slope} needs J = 1, "
                              f"got J = {len(sigma)}")
        Pi.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "sigma", sigma)

    @property
    def J(self) -> int:
        return self.Pi.shape[0]

    def with_coefficients(self, sigma, alpha: float) -> "MicroDgp":
        """This DGP with other random-coefficient scales and price
        coefficient. Pi is not checked again: that check is an SVD, and a
        candidate search builds one DGP per objective evaluation."""
        sigma = np.array(sigma, dtype=float)
        if sigma.shape != self.sigma.shape or np.any(sigma < 0):
            raise ConfigError(f"sigma must be {self.J} nonnegative scales, got {sigma}")
        sigma.setflags(write=False)
        out = copy.copy(self)
        object.__setattr__(out, "sigma", sigma)
        object.__setattr__(out, "alpha", alpha)
        return out


def _nu_nodes(sigma: np.ndarray, n: int):
    """Product Gauss-Hermite nodes for nu ~ N(0, diag(sigma^2)): the nodes
    of the nonzero-scale coordinates, zero elsewhere."""
    active = sigma > 0
    k = np.count_nonzero(active)
    if k == 0:
        return np.zeros((1, len(sigma))), np.array([1.0])
    z, wts = hermite_grid(k, n)
    if k == len(sigma):
        return np.sqrt(2.0) * sigma * z, wts
    nu = np.zeros((len(z), len(sigma)))
    nu[:, active] = np.sqrt(2.0) * sigma[active] * z
    return nu, wts


def micro_shares(dgp: MicroDgp, delta, p, sigma_scale=None) -> np.ndarray:
    """sigma(delta, p): shares (..., J) at mean utility delta and prices p,
    both (..., J) and broadcasting over the leading axes, with the
    random-coefficient scales sigma scaled by `sigma_scale` c (...) when
    given. At J = 1 this is the share curve of `expit_mixture` at node
    offsets c nu - alpha p; at J >= 2 the node average of the logit shares,
    where non-finite shares are an IntegrationFailure."""
    delta, p = np.asarray(delta, dtype=float), np.asarray(p, dtype=float)
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)
    if sigma_scale is not None:
        nu = np.asarray(sigma_scale, dtype=float)[..., None, None] * nu
    if dgp.J == 1:
        return expit_mixture(delta[..., 0], nu[..., 0] - dgp.alpha * p, w)[..., None]
    T = delta[..., None, :] + nu - dgp.alpha * p[..., None, :]
    s = node_average(w, _node_shares(T))
    if not np.all(np.isfinite(s)):
        raise IntegrationFailure("non-finite micro shares")
    return s


def micro_invert(dgp: MicroDgp, y, p, tol: float = 1e-12,
                 max_iter: int = 10_000) -> np.ndarray:
    """Solve sigma(delta, p) = y for shares y (..., J) at prices p that
    broadcast against them, all rows in one solver call; returns delta of
    y's shape. Each row starts at the logit inverse at the mean index,
    log y - log y0 + alpha p (the nodes nu have mean 0). At J = 1 this is the
    bracketed share-curve solver of :mod:`cdlab.inversion`; at J >= 2 its
    safeguarded Newton inversion."""
    y, p = np.asarray(y, dtype=float), np.asarray(p, dtype=float)
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)
    cfg = InversionConfig(tol=tol, max_iter=max_iter)
    if dgp.J == 1:
        return solve_share_curve(nu[:, 0] - dgp.alpha * p, w, y[..., 0], cfg)[..., None]
    rows = y.reshape(-1, dgp.J)
    p = np.broadcast_to(p, y.shape).reshape(rows.shape)
    delta = _solve_log_shares(
        lambda d, k: _node_shares(d[:, None, :] + nu - dgp.alpha * p[k, None, :], outside=True),
        w, rows, dgp.alpha * p, cfg)
    return delta.reshape(y.shape)


@dataclass(frozen=True)
class MicroPopulationSpec:
    """Finite-support treatment assignment for micro markets.

    Instruments pick a level uniformly; `endogeneity` shifts the realized
    level index with the market shock, keeping Z exogenous while making A
    selected.
    """

    market_count: int
    price_levels: tuple  # scalar price per level (J = 1) or tuples (J > 1)
    w_grid: tuple
    seed: int = 0
    endogeneity: float = 0.0
    assignment: str = "iid"  # "iid" or "stratified"

    def __post_init__(self):
        if self.assignment not in ("iid", "stratified"):
            raise ConfigError(f"unknown assignment scheme: {self.assignment!r}")
        if self.assignment == "stratified" and self.endogeneity != 0.0:
            raise ConfigError("stratified assignment is randomized by construction")
        if not len(self.price_levels):
            raise ConfigError(f"price_levels must hold at least 1 level, "
                              f"got {self.price_levels!r}")
        w = np.asarray(self.w_grid, dtype=float)
        if len(w) < 2 or np.all(w == w[0]):  # parallel paths over one point are vacuous
            raise ConfigError(f"w_grid must hold at least 2 distinct points, got {self.w_grid!r}")

    def level_bundle(self, dgp: MicroDgp, k: int) -> Bundle:
        p = np.atleast_1d(np.asarray(self.price_levels[k], dtype=float))
        return Bundle(np.zeros(dgp.J), p, np.zeros((dgp.J, 0)))


@dataclass(frozen=True)
class MicroMarket:
    profile: Profile
    a: Bundle
    z: np.ndarray
    xi: np.ndarray
    level: int
    z_level: int


def _w_matrix(w_grid, J: int) -> np.ndarray:
    """The demographic grid as a read-only (G, J) matrix; a 1-d grid only when
    J = 1. A read-only grid is used as it is, so profiles built on one grid
    share its array."""
    w = np.asarray(w_grid, dtype=float)
    if w.flags.writeable:  # never freeze the caller's array
        w = w.copy()
        w.setflags(write=False)
    if w.ndim == 1 and J == 1:
        w = w[:, None]
    if w.ndim != 2 or w.shape[1] != J:
        raise ConfigError(f"w_grid must be (G, {J}), or 1-d when J = 1; got shape {w.shape}")
    return w


def _profile_shares(dgp: MicroDgp, xi: np.ndarray, p: np.ndarray,
                    W: np.ndarray) -> np.ndarray:
    """Shares (n, G, J) on the grid W (G, J) of n markets with shocks xi (n, J)
    at prices p (n, J): one share-map call per block of markets with at
    most MAX_BLOCK_ELEMENTS node shares, so the temporaries do not grow with n."""
    n, (G, J) = len(xi), W.shape
    index = W @ dgp.Pi.T
    scale = 1.0 + dgp.sigma_w_slope * W[:, 0]  # each grid point's scale on sigma
    nodes = len(_nu_nodes(dgp.sigma, dgp.nu_nodes)[1])
    step = max(1, MAX_BLOCK_ELEMENTS // (G * nodes * J))
    out = np.empty((n, G, J))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        out[rows] = micro_shares(dgp, index + xi[rows, None, :], p[rows, None, :], scale)
    return out


def true_profile(dgp: MicroDgp, xi: np.ndarray, a: Bundle, w_grid) -> Profile:
    """The market's potential profile at bundle a from its stored shock."""
    W = _w_matrix(w_grid, dgp.J)
    s = _profile_shares(dgp, np.asarray(xi, dtype=float)[None], a.p[None], W)
    return Profile(W, s[0])


class _GridPoints:
    """Names row r of stacked (G, J) profiles by its market and grid point."""

    def __init__(self, G: int):
        self.G = G

    def __getitem__(self, r: int) -> str:
        return f"{r // self.G} at grid point {r % self.G}"


def simulate_micro(dgp: MicroDgp, spec: MicroPopulationSpec) -> list[MicroMarket]:
    """Deterministic in the seed: market i depends only on (seed, i).

    Under stratified assignment, markets come in blocks of K sharing one
    market shock, with each treatment level appearing exactly once per
    block: the shock distribution is balanced across cells by construction.
    The profiles come from the batched profile kernel and share one grid
    array. Their shares are validated once, stacked, and a share outside the
    open simplex is a SimplexViolation naming the market and grid point.
    """
    n, K = spec.market_count, len(spec.price_levels)
    xi = np.empty((n, dgp.J))
    if spec.assignment == "stratified":
        # block b's shock and permutation come from substreams (b, 1), (b, 2)
        blocks = np.arange(-(-n // K))
        shock = np.empty((len(blocks), dgp.J))
        shock[:] = dgp.xi_law.sample(market_streams(spec.seed, block_keys(blocks, 1)), dgp.J)
        xi[:] = np.repeat(shock, K, axis=0)[:n]
        level = market_streams(spec.seed, block_keys(blocks, 2)).permutation(K).reshape(-1)[:n]
        z_level = level  # randomized: each market's instrument is its level
    else:
        rng = market_streams(spec.seed, np.arange(n))
        z_level = rng.integers(K)
        xi[:] = dgp.xi_law.sample(rng, dgp.J)
        shift = np.round(spec.endogeneity * xi.mean(axis=1)).astype(int)
        level = np.clip(z_level + shift, 0, K - 1)
    xi.setflags(write=False)  # each market holds a view of its row
    W = _w_matrix(spec.w_grid, dgp.J)
    G = len(W)
    bundles = [spec.level_bundle(dgp, k) for k in range(K)]
    S = _profile_shares(dgp, xi, np.array([b.p for b in bundles])[level], W)
    S = validate_share_rows(S.reshape(n * G, dgp.J), ids=_GridPoints(G)).reshape(S.shape)
    return [MicroMarket(profile=Profile._around(W, s), a=bundles[k], z=np.array([float(zk)]),
                        xi=x, level=k, z_level=zk)
            for s, x, k, zk in zip(S, xi, level.tolist(), z_level.tolist())]


# --- candidate transforms and parallelism ----------------------------------

@dataclass(frozen=True)
class Candidate:
    """A candidate transform h(y, a), row by row on a (G, J) share matrix,
    with its forward map: the shares(v, a) whose transform is v."""

    h: Callable
    shares: Callable

    def __call__(self, shares_matrix: np.ndarray, a: Bundle) -> np.ndarray:
        return self.h(shares_matrix, a)


def truth_candidate(dgp: MicroDgp) -> Candidate:
    """h = sigma^{-1}(., a) of the DGP itself; its forward map is sigma."""
    return Candidate(lambda shares_matrix, a: micro_invert(dgp, shares_matrix, a.p),
                     lambda v, a: micro_shares(dgp, v, a.p))


def identity_candidate() -> Candidate:
    def same(m, a):
        return np.array(m, dtype=float)

    return Candidate(same, same)


@dataclass
class CandidateFamily:
    """One-parameter family of candidate transforms for the parallelism
    search: `build` makes the member at a (1,) parameter array in `bounds`."""

    build: Callable[[np.ndarray], Candidate]
    bounds: tuple  # (lo, hi)


def sigma_family(template: MicroDgp, alpha_fixed: float = 0.0) -> CandidateFamily:
    """Candidates sigma^{-1} with unknown sigma at a fixed price coefficient.

    Within a single treatment level the price coefficient only moves the
    transform by a constant, so parallelism cannot see it; fixing it leaves
    a family whose one flat direction is exactly a vertical shift. The true
    price coefficient reappears later in the identified level constants.
    """

    def build(params: np.ndarray) -> Candidate:
        sigma = np.full(template.J, abs(params[0]))
        return truth_candidate(template.with_coefficients(sigma, alpha_fixed))

    return CandidateFamily(build=build, bounds=(0.0, 4.0))


def _common_grid(profiles: Sequence[Profile]) -> np.ndarray:
    """The demographic grid all profiles share; ConfigError when they differ."""
    W = profiles[0].w_grid
    for p in profiles[1:]:
        if p.w_grid is not W and not np.array_equal(p.w_grid, W):
            raise ConfigError("profiles must share one demographic grid")
    return W


def _stacked_increments(candidate_h: Callable, profiles: Sequence[Profile],
                        a: Bundle) -> np.ndarray:
    """Transformed profile increments H - H[w0] (n, G, J), from one candidate
    call on the rows of all profiles stacked."""
    G, J = _common_grid(profiles).shape
    H = candidate_h(np.concatenate([p.shares for p in profiles]), a).reshape(-1, G, J)
    return H - H[:, :1]


def parallel_residual(candidate_h: Callable, profiles: Sequence[Profile],
                      a: Bundle) -> float:
    """Max deviation of transformed profile increments from their
    cross-market median; zero iff the transformed paths are parallel.
    ConfigError unless the profiles share one demographic grid."""
    if len(profiles) < 2:
        warnings.warn("single profile is vacuously parallel", stacklevel=2)
        return 0.0
    D = _stacked_increments(candidate_h, profiles, a)
    return float(np.max(np.abs(D - _median_rows(D))))


def _median_rows(D: np.ndarray) -> np.ndarray:
    """`np.median(D, axis=0)` by one sort: the middle row, or the mean of the
    two middle rows; a column that holds a NaN is NaN."""
    S = np.sort(D, axis=0)  # NaNs sort last
    n = len(S)
    med = S[n // 2] if n % 2 else (S[n // 2 - 1] + S[n // 2]) / 2.0
    return np.where(np.isnan(S[-1]), S[-1], med)


@dataclass
class MicroCandidate:
    """An accepted transform with its recovered demographic index."""

    h: Candidate  # normalized: h(y0, a) = 0 at the stored baseline
    g_hat: np.ndarray  # (G, J) on the grid, g_hat(w0) = 0
    w_grid: np.ndarray
    params: np.ndarray
    residual: float
    scale: np.ndarray  # affine reparameterization enforcing dg/dw(w0) = I
    # Objective evaluations of the search that raised NoConvergence or
    # FloatingPointError and were scored 1e6.
    swallowed_failures: int = 0

    def h_inverse(self, vals: np.ndarray, a: Bundle) -> np.ndarray:
        """The shares y with h(y, a) = vals, by the forward map; RootNotBracketed
        when a row's image leaves the open simplex."""
        vals = np.atleast_2d(vals)
        y = self.h.shares(vals, a)
        inside = np.all(y > 0.0, axis=1) & (y.sum(axis=1) < 1.0)  # False for nan
        if not inside.all():
            i = int(np.argmin(inside))
            raise RootNotBracketed(
                f"candidate transform cannot reach value {', '.join(map(str, vals[i]))} "
                f"(image {y[i].tolist()} outside the open simplex)")
        return y


def _latin_hypercube_1d(n: int, seed: int) -> np.ndarray:
    """n points in [0, 1), one uniform draw in each of n equal strata, in
    shuffled order: (k - u) / n, from one draw of 2 n uniforms of substream
    (0,) of the seed, u the first n and the strata k the stable argsort of
    the other n, plus 1."""
    v = market_streams(seed, [0]).random(2 * n)[0]
    return (np.argsort(v[n:], kind="stable") + 1 - v[:n]) / n


def _brent(func: Callable[[float], float], a: float, b: float, x: float | None = None,
           maxiter: int = 500) -> tuple[float, float]:
    """Brent's method (Brent, 1973, ch. 5) on [a, b]: the minimizer found and
    its value.

    From a start x, a < x < b with f(x) < f(a) and f(x) < f(b), this is a
    line-for-line port of SciPy 1.17's `optimize.Brent.optimize` on the
    bracket (a, x, b) at `xtol=1e-10` (BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc., 2003 SciPy Developers), with its comparisons, operation
    order and evaluations, so it returns the same point after the same calls.
    With no start it evaluates only the golden point a + 0.3819660 (b - a),
    as Brent's localmin does, and runs the same loop.
    """
    tol, _mintol, _cg = 1e-10, 1.0e-11, 0.3819660
    if x is None:
        x = a + _cg * (b - a)
        fx = func(x)
    else:
        _, fx, _ = func(a), func(x), func(b)  # SciPy evaluates the whole bracket
    w = v = x
    fw = fv = fx
    deltax = 0.0
    for _ in range(maxiter):
        tol1 = tol * np.abs(x) + _mintol
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if np.abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if np.abs(deltax) <= tol1:  # golden-section step
            deltax = a - x if x >= xmid else b - x
            rat = _cg * deltax
        else:  # parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = np.abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if ((p > tmp2 * (a - x)) and (p < tmp2 * (b - x))
                    and (np.abs(p) < np.abs(0.5 * tmp2 * dx_temp))):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:  # the parabola is no use: golden-section step
                deltax = a - x if x >= xmid else b - x
                rat = _cg * deltax
        if np.abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = func(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v, w, fv, fw = w, u, fw, fu
            elif (fu <= fv) or (v == x) or (v == w):
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
    return x, fx


def identify_h_and_g(family: CandidateFamily, profiles: Sequence[Profile],
                     a: Bundle, y0: np.ndarray | None = None,
                     starts: int = 8, seed: int = 0,
                     tol: float = PARALLEL_TOL) -> MicroCandidate:
    """Minimize the parallelism residual over a one-parameter candidate family.

    Scan: the residual at both bounds and at the `starts` points a Latin
    hypercube seeded with `seed` draws between them, in increasing order.
    NotIdentified test, on the scan: scan points whose residual is within
    `tol` of the scan minimum must give candidates that agree with the best
    one up to a vertical shift. A flat family ties the whole scan, so it is
    caught here, before a refinement that needs a strict bracket.
    Refinement: Brent's method between the best scan point's two neighbours,
    started at the scan point when it is strictly below both, and at the
    golden point when it is a bound or ties a neighbour. The scan point is
    kept unless the refinement finds a lower residual.
    """
    if len(profiles) < 2:
        raise ConfigError("need at least 2 markets")
    lo, hi = (float(b) for b in family.bounds)

    failures = 0
    seen: dict[float, float] = {}  # the refinement re-evaluates its bracket

    def objective(x):
        nonlocal failures
        x = float(x)
        if x not in seen:
            try:
                seen[x] = parallel_residual(family.build(np.array([x])), profiles, a)
            except (NoConvergence, FloatingPointError):
                failures += 1
                seen[x] = 1e6
        return seen[x]

    draws = lo + (hi - lo) * _latin_hypercube_1d(starts, seed)
    xs = np.concatenate([[lo], np.sort(draws), [hi]])
    rs = np.array([objective(x) for x in xs])
    i = int(np.argmin(rs))

    # Near-optimal scan points must agree with the best one up to a vertical shift.
    near = [j for j in np.flatnonzero(rs <= rs[i] + tol) if j != i]
    if near:
        probe = profiles[0].shares
        ref = family.build(xs[i:i + 1])(probe, a)
        for j in near:
            other = family.build(xs[j:j + 1])(probe, a)
            aligned = (other - other[0]) - (ref - ref[0])
            if np.max(np.abs(aligned)) > 100 * tol:
                raise NotIdentified("near-optimal candidates differ beyond a vertical shift",
                                    candidates=[xs[i:i + 1], xs[j:j + 1]])

    j, k = max(i - 1, 0), min(i + 1, len(xs) - 1)
    strict = j < i < k and rs[i] < rs[j] and rs[i] < rs[k]
    x, fun = _brent(objective, xs[j], xs[k], xs[i] if strict else None)
    best_x, best_res = (float(x), float(fun)) if fun < rs[i] else (xs[i], rs[i])
    best_params = np.array([best_x])
    return _normalize_candidate(family.build(best_params), best_params, best_res,
                                profiles, a, y0, failures)


def _normalize_candidate(h_raw: Candidate, params, residual,
                         profiles: Sequence[Profile], a: Bundle,
                         y0: np.ndarray | None, failures: int) -> MicroCandidate:
    W = profiles[0].w_grid
    J = W.shape[1]
    if y0 is None:
        y0 = _median_rows(np.array([p.shares[0] for p in profiles]))
    y0 = np.asarray(y0, dtype=float)

    base = h_raw(y0[None, :], a)[0]
    g_raw = _median_rows(_stacked_increments(h_raw, profiles, a))  # (G, J), zero at w0

    # dg/dw at w0 by least squares on nearby grid points
    order = np.argsort(np.linalg.norm(W - W[0], axis=1))
    near = order[1:1 + max(2 * J, 3)]
    dW = W[near] - W[0]
    dG = g_raw[near] - g_raw[0]
    M, *_ = np.linalg.lstsq(dW, dG, rcond=None)  # g ~ w M, so dg/dw = M.T
    M = M.T
    if np.linalg.matrix_rank(M) < J:
        raise ConfigError(f"w_grid: dg/dw fitted on the {len(near)} points nearest w0 = "
                          f"{W[0].tolist()} has rank below J = {J}, got w_grid {W.tolist()}")
    Minv = np.linalg.inv(M)

    def h(y_matrix: np.ndarray, bundle: Bundle) -> np.ndarray:
        return (h_raw(np.atleast_2d(y_matrix), bundle) - base) @ Minv.T

    def shares(vals: np.ndarray, bundle: Bundle) -> np.ndarray:
        return h_raw.shares(np.atleast_2d(vals) @ M.T + base, bundle)

    g_hat = g_raw @ Minv.T
    return MicroCandidate(h=Candidate(h, shares), g_hat=g_hat, w_grid=W,
                          params=np.asarray(params, dtype=float),
                          residual=float(residual), scale=M,
                          swallowed_failures=failures)


# --- instrument step and completion -----------------------------------------

@dataclass
class CompletedMicroModel:
    """Per-level candidates plus identified level constants c_k = h(y0, a_k)."""

    dgp_levels: tuple  # bundles, one per treatment level
    candidates: tuple  # MicroCandidate per level (normalized at common y0)
    levels_c: np.ndarray  # (K, J)

    def h_full(self, y_matrix: np.ndarray, level: int) -> np.ndarray:
        cand = self.candidates[level]
        return cand.h(y_matrix, self.dgp_levels[level]) + self.levels_c[level]

    def predict_profile(self, market: MicroMarket, target_level: int) -> np.ndarray:
        """Counterfactual profile at a treatment level, from observables only."""
        cand_obs = self.candidates[market.level]
        g = cand_obs.g_hat
        xi_hat = self.h_full(market.profile.shares[:1], market.level)[0]
        cand_t = self.candidates[target_level]
        vals = g + xi_hat - self.levels_c[target_level]
        return cand_t.h_inverse(vals, self.dgp_levels[target_level])


def price_coefficient_from_levels(model: CompletedMicroModel) -> float:
    """Slope of the identified level constants in the level prices (J = 1).

    When per-level candidates are fitted with the price coefficient pinned
    at zero, the constants satisfy c_k = alpha (p_k - p_0) / scale, so the
    regression slope times the recovered index scale is alpha.
    """
    p = np.array([float(b.p[0]) for b in model.dgp_levels])
    dp = p - p[0]
    if not dp @ dp > 0:  # also when the squares underflow
        raise ConfigError(f"price_levels must hold at least 2 distinct prices to fit "
                          f"the price slope, got {p.tolist()}")
    slope = float(dp @ model.levels_c[:, 0] / (dp @ dp))
    return slope * float(model.candidates[0].scale[0, 0])


def instrument_step(candidates: Sequence[MicroCandidate],
                    data: Sequence[MicroMarket],
                    level_bundles: Sequence[Bundle]) -> CompletedMicroModel:
    """Recover the level function h(y0, .) over the finite treatment grid.

    Writes the parallel-trends-identified part as r_i = g(w0) - h(Y_i[w0], A_i)
    at the baseline grid point; the level constants then satisfy the
    linear moment E[(c_{A_i} - r_i) b(Z_i)] = const, solved with demeaned
    instrument dummies and the normalization c[0] = 0.
    """
    K = len(level_bundles)
    J = level_bundles[0].J
    n = len(data)
    level = np.array([mkt.level for mkt in data], dtype=int)
    D = np.zeros((n, K))
    D[np.arange(n), level] = 1.0
    r = np.empty((n, J))
    for k in np.unique(level):  # one candidate call per treatment level
        rows = np.flatnonzero(level == k)
        cand = candidates[k]
        Y = np.array([data[i].profile.shares[0] for i in rows])
        r[rows] = cand.g_hat[0] - cand.h(Y, level_bundles[k])
    zvals = np.array([mkt.z for mkt in data])
    uniq = np.unique(zvals, axis=0)
    B = np.column_stack([np.all(zvals == u, axis=1).astype(float) for u in uniq])
    B = B - B.mean(axis=0)  # constants drop from the moment
    free = range(1, K)
    G = B.T @ D[:, free] / n  # (n_basis, K-1)
    if np.linalg.matrix_rank(G, tol=1e-10) < len(free):
        raise NonUnique(f"rank-deficient level moment system ({len(free)} unknowns)")
    rhs = B.T @ (-r) / n  # moments: mean(b * (c_A + (-r))) = 0
    sol, *_ = np.linalg.lstsq(G, -rhs, rcond=None)
    c = np.zeros((K, J))
    c[free] = sol
    return CompletedMicroModel(dgp_levels=tuple(level_bundles),
                               candidates=tuple(candidates), levels_c=c)


# --- theorem 2 check --------------------------------------------------------

def verify_theorem2(dgp: MicroDgp, markets: Sequence[MicroMarket],
                    a0: Bundle) -> list[Check]:
    """Numerically check the three equivalent micro-data formulations using
    the DGP's own share map as the transform: the largest deviation of each,
    as the Checks "profile_conversion", "parallel_paths" and
    "transformed_shift" at PARALLEL_TOL.

    The markets share one demographic grid; markets of one treatment level
    share its bundle. The baseline profiles come from the batched profile
    kernel, and the transform runs once on them and once per treatment level.
    No markets is a ConfigError, not a vacuous pass.
    """
    if not markets:
        raise ConfigError("theorem 2 check needs at least 1 market, got 0")
    base = MicroDgp(Pi=dgp.Pi, sigma=dgp.sigma, alpha=dgp.alpha,
                    nu_nodes=dgp.nu_nodes)  # index-structure version of sigma
    h = truth_candidate(base)
    W = _common_grid([m.profile for m in markets])
    n, (G, J) = len(markets), W.shape
    prof_a0 = _profile_shares(dgp, np.array([m.xi for m in markets]),
                              np.broadcast_to(a0.p, (n, J)), W)
    # h of each observed profile at its own treatment
    level = np.array([m.level for m in markets])
    delta = np.empty((n, G, J))
    for k in np.unique(level):
        idx = np.flatnonzero(level == k)
        Y = np.concatenate([markets[i].profile.shares for i in idx])
        delta[idx] = h(Y, markets[idx[0]].a).reshape(len(idx), G, J)
    phi_vals = h(prof_a0.reshape(n * G, J), a0).reshape(n, G, J)
    phi_w0 = phi_vals[:, :1]
    g = (W - W[0]) @ base.Pi.T
    return [Check(name, float(np.max(np.abs(gap))), PARALLEL_TOL, "<=") for name, gap in (
        ("profile_conversion",  # sigma(sigma^{-1}(Y(a)[w]), a0) vs Y(a0)[w]
         h.shares(delta.reshape(n * G, J), a0).reshape(n, G, J) - prof_a0),
        ("parallel_paths", phi_vals - phi_w0 - g),  # transformed baseline increments vs g(w)
        ("transformed_shift", delta - phi_w0 - g),  # the combined form
    )]
