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
from .demand import MAX_BLOCK_ELEMENTS, _node_shares, expit_mixture, hermite_grid
from .errors import (ConfigError, IntegrationFailure, NoConvergence, NonUnique, NotIdentified,
                     RootNotBracketed)
from .inversion import InversionConfig, _solve_log_shares, solve_share_curve
from .population import market_rngs
from .types import Bundle, validate_share_rows

PARALLEL_TOL = 1e-8
DEFAULT_NU_NODES = 16


@dataclass(frozen=True)
class Profile:
    """Market shares at each demographic grid point (common grid)."""

    w_grid: np.ndarray  # (G, J)
    shares: np.ndarray  # (G, J)
    w0_index: int = 0

    def __post_init__(self):
        s = np.asarray(self.shares, dtype=float)
        s = validate_share_rows(s[:, None] if s.ndim == 1 else s)
        w = _w_matrix(self.w_grid, s.shape[1])
        if w.shape[0] != s.shape[0]:
            raise ConfigError("w_grid and shares must align")
        object.__setattr__(self, "w_grid", w)
        object.__setattr__(self, "shares", s)


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


def micro_shares(dgp: MicroDgp, delta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sigma(delta, p): shares at mean utility delta and prices p, both (..., J)
    and broadcasting over the leading axes."""
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)
    T = delta[..., None, :] + nu - dgp.alpha * p[..., None, :]
    s = w @ _node_shares(T)
    if not np.all(np.isfinite(s)):
        raise IntegrationFailure("non-finite micro shares")
    return s


def _curve_1d(dgp: MicroDgp, p, sigma_scale=None):
    """Node offsets c nu_m - alpha p (..., M), for sigma scaled by c, and weights
    of the J = 1 share curve; c and p broadcast."""
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)
    nu = nu[:, 0] if sigma_scale is None else np.asarray(sigma_scale)[..., None] * nu[:, 0]
    return nu - dgp.alpha * np.asarray(p, dtype=float)[..., None], w


def micro_shares_1d(dgp: MicroDgp, delta, p, sigma_scale=None) -> np.ndarray:
    """Vectorized J = 1 path: delta and p broadcast elementwise."""
    return expit_mixture(delta, *_curve_1d(dgp, p, sigma_scale))


def micro_invert_1d(dgp: MicroDgp, y, p, tol: float = 1e-12,
                    max_iter: int = 200) -> np.ndarray:
    """Solve sigma(delta, p) = y elementwise (J = 1) with the bracketed
    share-curve solver of :mod:`cdlab.inversion`."""
    return solve_share_curve(*_curve_1d(dgp, p), y,
                             InversionConfig(tol=tol, max_iter=max_iter))


def micro_invert(dgp: MicroDgp, y: np.ndarray, p: np.ndarray,
                 tol: float = 1e-12, max_iter: int = 10_000) -> np.ndarray:
    """Solve sigma(delta, p) = y for general J by the safeguarded Newton
    inversion of :mod:`cdlab.inversion`, from the plain-logit start: y is
    one share vector (J,) or rows (n, J), all solved in one call, and p
    (J,) or (n, J)."""
    if dgp.J == 1:
        return micro_invert_1d(dgp, np.atleast_1d(y), np.atleast_1d(p), tol)
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    p = np.broadcast_to(np.asarray(p, dtype=float), rows.shape)
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)
    start = np.log(rows) - np.log(1.0 - rows.sum(axis=1, keepdims=True)) + dgp.alpha * p
    delta = _solve_log_shares(
        lambda d, k: _node_shares(d[:, None, :] + nu - dgp.alpha * p[k, None, :], outside=True),
        w, rows, start, InversionConfig(tol=tol, max_iter=max_iter))
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
    at prices p (n, J): one share-kernel call per block of markets with at
    most MAX_BLOCK_ELEMENTS node shares, so the temporaries do not grow with n."""
    n, (G, J) = len(xi), W.shape
    index = W @ dgp.Pi.T
    nodes = len(_nu_nodes(dgp.sigma, dgp.nu_nodes)[1])
    step = max(1, MAX_BLOCK_ELEMENTS // (G * nodes * J))
    out = np.empty((n, G, J))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        delta = index + xi[rows, None, :]
        if J == 1:
            out[rows, :, 0] = micro_shares_1d(dgp, delta[..., 0], p[rows],
                                              sigma_scale=1.0 + dgp.sigma_w_slope * W[:, 0])
        else:
            out[rows] = micro_shares(dgp, delta, p[rows, None, :])
    return out


def true_profile(dgp: MicroDgp, xi: np.ndarray, a: Bundle, w_grid,
                 w0_index: int = 0) -> Profile:
    """The market's potential profile at bundle a from its stored shock."""
    W = _w_matrix(w_grid, dgp.J)
    s = _profile_shares(dgp, np.asarray(xi, dtype=float)[None], a.p[None], W)
    return Profile(W, s[0], w0_index)


def simulate_micro(dgp: MicroDgp, spec: MicroPopulationSpec,
                   w0_index: int = 0) -> list[MicroMarket]:
    """Deterministic in the seed: market i depends only on (seed, i).

    Under stratified assignment, markets come in blocks of K sharing one
    market shock, with each treatment level appearing exactly once per
    block: the shock distribution is balanced across cells by construction.
    The profiles come from the batched profile kernel and share one grid array.
    """
    n, K = spec.market_count, len(spec.price_levels)
    xi, level = np.empty((n, dgp.J)), np.empty(n, dtype=int)
    z_level = level  # randomized: each market's instrument is its level
    if spec.assignment == "stratified":
        # block b's shock and permutation come from substreams (b, 1), (b, 2)
        blocks = range(-(-n // K))
        shocks = market_rngs(spec.seed, [(b, 1) for b in blocks])
        perms = market_rngs(spec.seed, [(b, 2) for b in blocks])
        for b, shock_rng, perm_rng in zip(blocks, shocks, perms):
            xi[b * K:(b + 1) * K] = dgp.xi_law.sample(shock_rng, dgp.J)
            level[b * K:(b + 1) * K] = perm_rng.permutation(K)[:n - b * K]
    else:
        z_level = np.empty(n, dtype=int)
        for i, rng in enumerate(market_rngs(spec.seed, range(n))):
            z_level[i] = rng.integers(K)
            xi[i] = dgp.xi_law.sample(rng, dgp.J)
            shift = int(np.round(spec.endogeneity * float(np.mean(xi[i]))))
            level[i] = np.clip(z_level[i] + shift, 0, K - 1)
    xi.setflags(write=False)  # each market holds a view of its row
    W = _w_matrix(spec.w_grid, dgp.J)
    bundles = [spec.level_bundle(dgp, k) for k in range(K)]
    S = _profile_shares(dgp, xi, np.array([b.p for b in bundles])[level], W)
    return [MicroMarket(profile=Profile(W, s, w0_index), a=bundles[k], z=np.array([float(zk)]),
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

    def h(shares_matrix: np.ndarray, a: Bundle) -> np.ndarray:
        if dgp.J == 1:
            return micro_invert_1d(dgp, shares_matrix[:, 0], a.p[0])[:, None]
        return micro_invert(dgp, shares_matrix, a.p)

    def shares(v: np.ndarray, a: Bundle) -> np.ndarray:
        if dgp.J == 1:
            return micro_shares_1d(dgp, v[:, 0], a.p[0])[:, None]
        return micro_shares(dgp, v, a.p)

    return Candidate(h, shares)


def identity_candidate() -> Candidate:
    def same(m, a):
        return np.array(m, dtype=float)

    return Candidate(same, same)


@dataclass
class CandidateFamily:
    """Parametric family of candidate transforms for the parallelism search."""

    build: Callable[[np.ndarray], Candidate]
    bounds: tuple  # ((lo, hi), ...) per parameter
    name: str = "candidate"


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

    return CandidateFamily(build=build, bounds=((0.0, 4.0),), name="sigma-only")


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
    n = len(profiles)
    H = candidate_h(np.concatenate([p.shares for p in profiles]), a).reshape(n, G, J)
    w0 = [p.w0_index for p in profiles]
    return H - H[np.arange(n), w0][:, None, :]


def parallel_residual(candidate_h: Callable, profiles: Sequence[Profile],
                      a: Bundle) -> float:
    """Max deviation of transformed profile increments from their
    cross-market median; zero iff the transformed paths are parallel.
    ConfigError unless the profiles share one demographic grid."""
    if len(profiles) < 2:
        warnings.warn("single profile is vacuously parallel", stacklevel=2)
        return 0.0
    D = _stacked_increments(candidate_h, profiles, a)
    med = np.median(D, axis=0)
    return float(np.max(np.abs(D - med)))


@dataclass
class MicroCandidate:
    """An accepted transform with its recovered demographic index."""

    h: Candidate  # normalized: h(y0, a) = 0 at the stored baseline
    g_hat: np.ndarray  # (G, J) on the grid, g_hat(w0) = 0
    w_grid: np.ndarray
    w0_index: int
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
    shuffled order: the stream and arithmetic of scipy's
    `qmc.LatinHypercube(d=1, seed=seed).random(n)[:, 0]`."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, 1))[:, 0]
    perm = np.arange(1, n + 1)
    rng.shuffle(perm)
    return (perm - u) / n


def _brent(func: Callable[[float], float], xa: float, xb: float, xc: float,
           maxiter: int = 500) -> tuple[float, float]:
    """Brent's method (Brent, 1973, ch. 5) from the strict bracket xa < xb < xc
    with f(xb) < f(xa) and f(xb) < f(xc): the minimizer found and its value.

    A line-for-line port of SciPy 1.17's `optimize.Brent.optimize` on a
    3-point bracket at `xtol=1e-10` (BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc., 2003 SciPy Developers), with its comparisons, operation
    order and evaluations, so it returns the same point after the same calls.
    """
    _, fb, _ = func(xa), func(xb), func(xc)  # SciPy evaluates the whole bracket
    tol, _mintol, _cg = 1e-10, 1.0e-11, 0.3819660
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
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


def _fminbound(func: Callable[[float], float], x1: float, x2: float,
               maxfun: int = 500) -> tuple[float, float]:
    """Brent's bounded minimization on [x1, x2] (golden section plus parabolic
    steps): the minimizer found and its value.

    A line-for-line port of SciPy 1.17's `_minimize_scalar_bounded` at
    `xatol=1e-10` (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc.,
    2003 SciPy Developers), with its comparisons, operation order and
    evaluations.
    """
    xatol, sqrt_eps = 1e-10, np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if np.abs(e) > tol1:  # try a parabolic fit
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:  # golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


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
    Refinement: Brent's method on the bracket formed by the best scan point
    and its two neighbours; when the best scan point is a bound, or ties a
    neighbour so that the bracket is not strict, a bounded search between
    its neighbours. The scan point is kept unless the refinement finds a
    lower residual. A family with more than one parameter is a ConfigError.
    """
    if len(profiles) < 2:
        raise ConfigError("need at least 2 markets")
    if len(family.bounds) != 1:
        raise ConfigError(f"candidate family {family.name!r} has {len(family.bounds)} "
                          "parameters; the search takes one")
    lo, hi = (float(b) for b in family.bounds[0])

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

    if 0 < i < len(xs) - 1 and rs[i] < rs[i - 1] and rs[i] < rs[i + 1]:
        x, fun = _brent(objective, xs[i - 1], xs[i], xs[i + 1])
    else:
        x, fun = _fminbound(objective, xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)])
    best_x, best_res = (float(x), float(fun)) if fun < rs[i] else (xs[i], rs[i])
    best_params = np.array([best_x])
    return _normalize_candidate(family.build(best_params), best_params, best_res,
                                profiles, a, y0, failures)


def _normalize_candidate(h_raw: Candidate, params, residual,
                         profiles: Sequence[Profile], a: Bundle,
                         y0: np.ndarray | None, failures: int) -> MicroCandidate:
    W = profiles[0].w_grid
    w0 = profiles[0].w0_index
    J = W.shape[1]
    if y0 is None:
        y0 = np.median(np.array([p.shares[w0] for p in profiles]), axis=0)
    y0 = np.asarray(y0, dtype=float)

    base = h_raw(y0[None, :], a)[0]
    g_raw = np.median(_stacked_increments(h_raw, profiles, a), axis=0)  # (G, J), zero at w0

    # dg/dw at w0 by least squares on nearby grid points
    order = np.argsort(np.linalg.norm(W - W[w0], axis=1))
    near = order[1:1 + max(2 * J, 3)]
    dW = W[near] - W[w0]
    dG = g_raw[near] - g_raw[w0]
    M, *_ = np.linalg.lstsq(dW, dG, rcond=None)  # g ~ w M, so dg/dw = M.T
    M = M.T
    if np.linalg.matrix_rank(M) < J:
        raise ConfigError(f"w_grid: dg/dw fitted on the {len(near)} points nearest w0 = "
                          f"{W[w0].tolist()} has rank below J = {J}, got w_grid {W.tolist()}")
    Minv = np.linalg.inv(M)

    def h(y_matrix: np.ndarray, bundle: Bundle) -> np.ndarray:
        return (h_raw(np.atleast_2d(y_matrix), bundle) - base) @ Minv.T

    def shares(vals: np.ndarray, bundle: Bundle) -> np.ndarray:
        return h_raw.shares(np.atleast_2d(vals) @ M.T + base, bundle)

    g_hat = g_raw @ Minv.T
    return MicroCandidate(h=Candidate(h, shares), g_hat=g_hat, w_grid=W, w0_index=w0,
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
        w0 = cand_obs.w0_index
        xi_hat = self.h_full(market.profile.shares[w0][None, :], market.level)[0]
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
                    level_bundles: Sequence[Bundle],
                    w_index: int | None = None,
                    baseline_level: int = 0) -> CompletedMicroModel:
    """Recover the level function h(y0, .) over the finite treatment grid.

    Writes the parallel-trends-identified part as r_i = g(w) - h(Y_i[w], A_i)
    at a fixed demographic point; the level constants then satisfy the
    linear moment E[(c_{A_i} - r_i) b(Z_i)] = const, solved with demeaned
    instrument dummies and the normalization c[baseline] = 0.
    """
    K = len(level_bundles)
    J = level_bundles[0].J
    if w_index is None:
        w_index = candidates[0].w0_index
    n = len(data)
    level = np.array([mkt.level for mkt in data], dtype=int)
    D = np.zeros((n, K))
    D[np.arange(n), level] = 1.0
    r = np.empty((n, J))
    for k in np.unique(level):  # one candidate call per treatment level
        rows = np.flatnonzero(level == k)
        cand = candidates[k]
        Y = np.array([data[i].profile.shares[w_index] for i in rows])
        r[rows] = cand.g_hat[w_index] - cand.h(Y, level_bundles[k])
    zvals = np.array([mkt.z for mkt in data])
    uniq = np.unique(zvals, axis=0)
    B = np.column_stack([np.all(zvals == u, axis=1).astype(float) for u in uniq])
    B = B - B.mean(axis=0)  # constants drop from the moment
    free = [k for k in range(K) if k != baseline_level]
    G = B.T @ D[:, free] / n  # (n_basis, K-1)
    if np.linalg.matrix_rank(G, tol=1e-10) < len(free):
        raise NonUnique(f"rank-deficient level moment system ({len(free)} unknowns)")
    rhs = B.T @ (-r) / n  # moments: mean(b * (c_A + (-r))) = 0
    sol, *_ = np.linalg.lstsq(G, -rhs, rcond=None)
    c = np.zeros((K, J))
    for idx, k in enumerate(free):
        c[k] = sol[idx]
    return CompletedMicroModel(dgp_levels=tuple(level_bundles),
                               candidates=tuple(candidates), levels_c=c)


# --- equivalence report ------------------------------------------------------

@dataclass
class MicroEquivalenceReport:
    max_profile_conversion: float  # sigma(sigma^{-1}(Y(a)[w]), a0) vs Y(a0)[w]
    max_parallel_paths: float  # phi increments vs g(w)
    max_transformed_shift: float  # combined form
    tol: float = PARALLEL_TOL

    @property
    def passed(self) -> bool:
        return max(self.max_profile_conversion, self.max_parallel_paths,
                   self.max_transformed_shift) <= self.tol


def verify_theorem2(dgp: MicroDgp, markets: Sequence[MicroMarket],
                    a0: Bundle, tol: float = PARALLEL_TOL) -> MicroEquivalenceReport:
    """Numerically check the three equivalent micro-data formulations using
    the DGP's own share map as the transform.

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
    w0 = np.array([m.profile.w0_index for m in markets])
    prof_a0 = _profile_shares(dgp, np.array([m.xi for m in markets]),
                              np.broadcast_to(a0.p, (n, J)), W)
    # h of each observed profile at its own treatment
    level = np.array([m.level for m in markets])
    delta = np.empty((n, G, J))
    for k in np.unique(level):
        idx = np.flatnonzero(level == k)
        Y = np.concatenate([markets[i].profile.shares for i in idx])
        delta[idx] = h(Y, markets[idx[0]].a).reshape(len(idx), G, J)
    # (i) profile conversion through the baseline treatment
    m1 = np.max(np.abs(h.shares(delta.reshape(n * G, J), a0).reshape(n, G, J) - prof_a0))
    # (ii) parallel paths of the transformed baseline profile
    phi_vals = h(prof_a0.reshape(n * G, J), a0).reshape(n, G, J)
    phi_w0 = phi_vals[np.arange(n), w0][:, None, :]
    g = (W - W[w0][:, None, :]) @ base.Pi.T
    m2 = np.max(np.abs(phi_vals - phi_w0 - g))
    # (iii) combined transformed-shift form
    m3 = np.max(np.abs(delta - phi_w0 - g))
    return MicroEquivalenceReport(float(m1), float(m2), float(m3), tol=tol)
