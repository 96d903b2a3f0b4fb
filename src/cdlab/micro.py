"""Demographic-indexed market share profiles.

Markets report shares separately for each demographic point w on a common
grid. The share map has demographic-shifted mean utilities Pi w plus a
market shock, with Gaussian random coefficients on the product intercepts.
A candidate transform h is accepted when it makes the transformed profiles
parallel across markets up to market-specific vertical shifts; instruments
then pin down the remaining per-treatment levels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, logit

from . import laws
from .demand import _node_shares, expit_mixture, hermite_grid
from .errors import (ConfigError, IntegrationFailure, NoConvergence, NonUnique, NotIdentified,
                     RootNotBracketed)
from .inversion import InversionConfig, _solve_log_shares, solve_share_curve
from .population import market_rng
from .types import Bundle, validate_shares

PARALLEL_TOL = 1e-8
DEFAULT_NU_NODES = 16


@dataclass(frozen=True)
class Profile:
    """Market shares at each demographic grid point (common grid)."""

    w_grid: np.ndarray  # (G, J)
    shares: np.ndarray  # (G, J)
    w0_index: int = 0

    def __post_init__(self):
        s = np.array(self.shares, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        w = _w_matrix(self.w_grid, s.shape[1])
        if w.shape[0] != s.shape[0]:
            raise ConfigError("w_grid and shares must align")
        for row in s:
            validate_shares(row)
        w.setflags(write=False)
        s.setflags(write=False)
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
    sigma_w_slope: float = 0.0  # nonzero breaks the index structure

    def __post_init__(self):
        Pi = np.atleast_2d(np.asarray(self.Pi, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if Pi.shape[0] != Pi.shape[1] or Pi.shape[0] != len(sigma):
            raise ConfigError("Pi must be J x J with matching sigma length")
        if np.linalg.cond(Pi) > 1e8:
            raise ConfigError("Pi is rank deficient (condition number > 1e8)")
        if np.any(sigma < 0):
            raise ConfigError("sigma must be nonnegative")
        Pi.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "sigma", sigma)

    @property
    def J(self) -> int:
        return self.Pi.shape[0]


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
    """sigma(delta, p): shares at mean utility delta and prices p."""
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)
    T = delta[None, :] + nu - dgp.alpha * p[None, :]
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
    inversion of :mod:`cdlab.inversion`, from the plain-logit start."""
    if dgp.J == 1:
        return micro_invert_1d(dgp, np.atleast_1d(y), np.atleast_1d(p), tol)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    nu, w = _nu_nodes(dgp.sigma, dgp.nu_nodes)

    def node_shares(delta):
        return _node_shares(delta[None, :] + nu - dgp.alpha * p[None, :])

    def jac(delta):
        S = node_shares(delta)
        return np.diag(w @ S) - np.einsum("m,mj,mk->jk", w, S, S)

    start = np.log(y) - np.log(1.0 - y.sum()) + dgp.alpha * p
    return _solve_log_shares(lambda d: w @ node_shares(d), jac, y, start,
                             InversionConfig(tol=tol, max_iter=max_iter))


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
    """The demographic grid as a (G, J) matrix; a 1-d grid only when J = 1."""
    w = np.array(w_grid, dtype=float)
    if w.ndim == 1 and J == 1:
        w = w[:, None]
    if w.ndim != 2 or w.shape[1] != J:
        raise ConfigError(f"w_grid must be (G, {J}), or 1-d when J = 1; got shape {w.shape}")
    return w


def true_profile(dgp: MicroDgp, xi: np.ndarray, a: Bundle, w_grid,
                 w0_index: int = 0) -> Profile:
    """The market's potential profile at bundle a from its stored shock."""
    W = _w_matrix(w_grid, dgp.J)
    if dgp.J == 1:
        s = micro_shares_1d(dgp, dgp.Pi[0, 0] * W[:, 0] + xi[0], a.p[0],
                            sigma_scale=1.0 + dgp.sigma_w_slope * W[:, 0])
        return Profile(W, s[:, None], w0_index)
    rows = np.array([micro_shares(dgp, dgp.Pi @ wv + xi, a.p) for wv in W])
    return Profile(W, rows, w0_index)


def simulate_micro(dgp: MicroDgp, spec: MicroPopulationSpec,
                   w0_index: int = 0) -> list[MicroMarket]:
    """Deterministic in the seed: market i depends only on (seed, i).

    Under stratified assignment, markets come in blocks of K sharing one
    market shock, with each treatment level appearing exactly once per
    block: the shock distribution is balanced across cells by construction.
    """
    K = len(spec.price_levels)
    markets = []
    for i in range(spec.market_count):
        if spec.assignment == "stratified":
            block, pos = divmod(i, K)
            xi = dgp.xi_law.sample(market_rng(spec.seed, block, 1), dgp.J)
            perm = market_rng(spec.seed, block, 2).permutation(K)
            z_level = level = int(perm[pos])
        else:
            rng = market_rng(spec.seed, i)
            z_level = int(rng.integers(K))
            xi = dgp.xi_law.sample(rng, dgp.J)
            shift = int(np.round(spec.endogeneity * float(np.mean(xi))))
            level = int(np.clip(z_level + shift, 0, K - 1))
        a = spec.level_bundle(dgp, level)
        prof = true_profile(dgp, xi, a, spec.w_grid, w0_index)
        markets.append(MicroMarket(profile=prof, a=a,
                                   z=np.array([float(z_level)]), xi=xi,
                                   level=level, z_level=z_level))
    return markets


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
        return np.array([micro_invert(dgp, row, a.p) for row in shares_matrix])

    def shares(v: np.ndarray, a: Bundle) -> np.ndarray:
        if dgp.J == 1:
            return micro_shares_1d(dgp, v[:, 0], a.p[0])[:, None]
        return np.array([micro_shares(dgp, row, a.p) for row in v])

    return Candidate(h, shares)


def identity_candidate() -> Candidate:
    def same(m, a):
        return np.array(m, dtype=float)

    return Candidate(same, same)


def logit_candidate() -> Candidate:
    return Candidate(lambda m, a: logit(np.array(m, dtype=float)),
                     lambda v, a: expit(np.asarray(v, dtype=float)))


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
        cand = MicroDgp(Pi=template.Pi, sigma=np.full(template.J, abs(params[0])),
                        alpha=alpha_fixed, nu_nodes=template.nu_nodes)
        return truth_candidate(cand)

    return CandidateFamily(build=build, bounds=((0.0, 4.0),), name="sigma-only")


def scaled_logit_family() -> CandidateFamily:
    """Candidates theta * logit(y): on a plain-logit DGP every member is
    parallel, and members differ by more than a vertical shift."""

    def build(params: np.ndarray) -> Candidate:
        theta = float(params[0])
        return Candidate(lambda m, a: theta * logit(np.asarray(m, dtype=float)),
                         lambda v, a: expit(np.asarray(v, dtype=float) / theta))

    return CandidateFamily(build=build, bounds=((0.5, 3.0),), name="scaled-logit")


def parallel_residual(candidate_h: Callable, profiles: Sequence[Profile],
                      a: Bundle) -> float:
    """Max deviation of transformed profile increments from their
    cross-market median; zero iff the transformed paths are parallel."""
    if len(profiles) < 2:
        warnings.warn("single profile is vacuously parallel", stacklevel=2)
        return 0.0
    devs = []
    for prof in profiles:
        H = candidate_h(prof.shares, a)
        devs.append(H - H[prof.w0_index])
    D = np.array(devs)  # (n, G, J)
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


def identify_h_and_g(family: CandidateFamily, profiles: Sequence[Profile],
                     a: Bundle, y0: np.ndarray | None = None,
                     starts: int = 8, seed: int = 0,
                     tol: float = PARALLEL_TOL) -> MicroCandidate:
    """Minimize the parallelism residual over the candidate family.

    Raises NotIdentified when two near-optimal candidates differ by more
    than a vertical shift.
    """
    from scipy.optimize import minimize
    from scipy.stats import qmc

    if len(profiles) < 2:
        raise ConfigError("need at least 2 markets")
    bounds = np.asarray(family.bounds, dtype=float)
    dim = len(bounds)

    def objective(params):
        try:
            return parallel_residual(family.build(params), profiles, a)
        except (NoConvergence, FloatingPointError):
            return 1e6

    sampler = qmc.LatinHypercube(d=dim, seed=seed)
    pts = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * sampler.random(starts)
    sols = []
    for s in pts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 600})
        sols.append((float(res.fun), res.x))
    sols.sort(key=lambda t: (t[0], tuple(t[1])))
    best_res, best_params = sols[0]

    # Distinct near-optimal candidates must agree up to a vertical shift.
    probe = profiles[0].shares
    h_best = family.build(best_params)
    ref = h_best(probe, a)
    for r, params in sols[1:]:
        if r > best_res + tol:
            continue
        other = family.build(params)(probe, a)
        aligned = (other - other[0]) - (ref - ref[0])
        if np.max(np.abs(aligned)) > 100 * tol:
            raise NotIdentified("near-optimal candidates differ beyond a vertical shift",
                                candidates=[best_params, params])

    return _normalize_candidate(h_best, best_params, best_res, profiles, a, y0)


def _normalize_candidate(h_raw: Candidate, params, residual,
                         profiles: Sequence[Profile], a: Bundle,
                         y0: np.ndarray | None) -> MicroCandidate:
    W = profiles[0].w_grid
    w0 = profiles[0].w0_index
    J = W.shape[1]
    if y0 is None:
        y0 = np.median(np.array([p.shares[w0] for p in profiles]), axis=0)
    y0 = np.asarray(y0, dtype=float)

    base = h_raw(y0[None, :], a)[0]
    diffs = np.array([h_raw(p.shares, a) - h_raw(p.shares, a)[p.w0_index]
                      for p in profiles])
    g_raw = np.median(diffs, axis=0)  # (G, J), zero at w0

    # dg/dw at w0 by least squares on nearby grid points
    order = np.argsort(np.linalg.norm(W - W[w0], axis=1))
    near = order[1:1 + max(2 * J, 3)]
    dW = W[near] - W[w0]
    dG = g_raw[near] - g_raw[w0]
    M, *_ = np.linalg.lstsq(dW, dG, rcond=None)  # g ~ w M, so dg/dw = M.T
    M = M.T
    Minv = np.linalg.inv(M)

    def h(y_matrix: np.ndarray, bundle: Bundle) -> np.ndarray:
        return (h_raw(np.atleast_2d(y_matrix), bundle) - base) @ Minv.T

    def shares(vals: np.ndarray, bundle: Bundle) -> np.ndarray:
        return h_raw.shares(np.atleast_2d(vals) @ M.T + base, bundle)

    g_hat = g_raw @ Minv.T
    return MicroCandidate(h=Candidate(h, shares), g_hat=g_hat, w_grid=W, w0_index=w0,
                          params=np.asarray(params, dtype=float),
                          residual=float(residual), scale=M)


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
    r = np.empty((n, J))
    D = np.zeros((n, K))
    for i, mkt in enumerate(data):
        cand = candidates[mkt.level]
        h_val = cand.h(mkt.profile.shares[w_index][None, :], level_bundles[mkt.level])[0]
        r[i] = cand.g_hat[w_index] - h_val
        D[i, mkt.level] = 1.0
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
    the DGP's own share map as the transform."""
    base = MicroDgp(Pi=dgp.Pi, sigma=dgp.sigma, alpha=dgp.alpha,
                    nu_nodes=dgp.nu_nodes)  # index-structure version of sigma
    h = truth_candidate(base)
    m1 = m2 = m3 = 0.0
    for mkt in markets:
        W = mkt.profile.w_grid
        w0 = mkt.profile.w0_index
        prof_a0 = true_profile(dgp, mkt.xi, a0, W, w0).shares
        # (i) profile conversion through the baseline treatment
        delta = h(mkt.profile.shares, mkt.a)
        m1 = max(m1, float(np.max(np.abs(h.shares(delta, a0) - prof_a0))))
        # (ii) parallel paths of the transformed baseline profile
        phi_vals = h(prof_a0, a0)
        g = (W - W[w0]) @ base.Pi.T
        m2 = max(m2, float(np.max(np.abs(phi_vals - phi_vals[w0] - g))))
        # (iii) combined transformed-shift form
        m3 = max(m3, float(np.max(np.abs(delta - phi_vals[w0] - g))))
    return MicroEquivalenceReport(m1, m2, m3, tol=tol)
