"""Extrapolation-from-averages: rule families, the instrument-orthogonality
GMM solve, unit-level prediction, and correctness diagnostics.

A rule family is a finite-dimensionally parameterized class of outcome
transformations H(y, a), invertible in y. Instrument orthogonality selects
one member; predictions then act as if the selected transformed outcome
has zero individual treatment effects.

Observations are one `ObsSet` of stacked arrays, and rules act on arrays:
`H`, `H_inverse` and `extrapolate` take one observation or a batch (an
array of outcomes with an array of treatment levels, or the J = 1 shares of
stacked markets under `Bundles`). `check_prop32` makes one extrapolation
and one structural prediction per target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .counterfactual import predict, stack_targets
from .demand import ShareMap, expit, logit, plain_logit, shares_array
from .errors import ConfigError, InversionFailure, NonUnique
from .inversion import invert_rows
from .population import Population
from .types import Bundle, Bundles


@dataclass(frozen=True)
class ObsSet:
    """n observations as stacked arrays: outcomes y (n,), treatments a and
    instruments z (n, k). a is an (n,) array of levels, or the Bundles of
    J = 1 markets whose inside share is y. ``obs[rows]`` takes rows as
    Population does; ``obs[i]`` is observation i's outcome, treatment and
    (k,) instruments."""

    y: np.ndarray
    a: np.ndarray | Bundles
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "ObsSet":
        return ObsSet(self.y[rows], self.a[rows], self.z[rows])


# --- scalar monotone transforms for the demeaned family ---------------------

_F_TRANSFORMS = {
    "identity": (lambda y: y, lambda v: v),
    "log": (np.log, np.exp),
    "logit": (logit, expit),
}


@dataclass(frozen=True)
class RuleFamily:
    """A parameterized class of invertible outcome transformations.

    kinds:
      demeaned-transform      H(y, a) = f(y) - mu(a), mu free per treatment
                              level over a finite support
      quantile-rank           H(y, a) = smoothed empirical CDF of Y given
                              A = a (scalar outcomes)
      partially-linear-index  H(y, a) = logit(y) + alpha p - x2 gamma - x1,
                              coefficients (alpha, gamma) = param_map theta
    """

    kind: str
    f: str = "identity"  # demeaned kind
    param_map: tuple = ()  # partially-linear: rows of the theta -> coeff map
    theta: tuple | None = None  # fitted parameters
    levels: tuple = ()  # demeaned/quantile: treatment support
    samples: tuple = ()  # quantile: per-level sorted outcome samples
    n_params: int = 1  # partially-linear without a param_map: len(theta)

    def __post_init__(self):
        kinds = ("demeaned-transform", "quantile-rank", "partially-linear-index")
        if self.kind not in kinds:
            raise ConfigError(f"unknown rule family kind: {self.kind!r}")
        if self.kind == "demeaned-transform" and self.f not in _F_TRANSFORMS:
            raise ConfigError(f"unknown transform f: {self.f!r}")

    @property
    def fitted(self) -> bool:
        return self.theta is not None or bool(self.samples)

    # -- transformed outcome and its inverse --------------------------------
    #
    # For the demeaned and quantile families y is an outcome or an array of
    # outcomes and a a treatment level or an array of levels; for the
    # partially linear family y is the inside share of J = 1 markets (a
    # float or an (n,) array) under a Bundle or Bundles. A scalar input
    # gives a float.

    def _level_index(self, a) -> np.ndarray:
        """Position in `levels` of each treatment level in a."""
        a = np.asarray(a)
        hit = a[..., None] == np.asarray(self.levels)
        found = hit.any(axis=-1)
        if not found.all():
            bad = np.atleast_1d(a)[~np.atleast_1d(found)][0].item()
            raise ConfigError(f"treatment level {bad!r} outside the fitted support")
        return hit.argmax(axis=-1)

    def _mu(self, a) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)[self._level_index(a)]

    def _by_level(self, fn, x, a) -> np.ndarray:
        """fn(sorted sample of level k, entries of x at level k), for each k."""
        idx = self._level_index(a)
        x, idx = np.broadcast_arrays(np.asarray(x, dtype=float), idx)
        out = np.empty(x.shape)
        for k in np.unique(idx):
            rows = idx == k
            out[rows] = fn(np.asarray(self.samples[k]), x[rows])
        return out

    def _pl_coeffs(self) -> np.ndarray:
        M = np.atleast_2d(np.asarray(self.param_map, dtype=float)) if self.param_map \
            else np.eye(len(self.theta))
        return M @ np.asarray(self.theta, dtype=float)

    def _pl_index(self, a: Bundle | Bundles):
        """alpha, and p, x2 gamma and x1 of the J = 1 markets at a."""
        coeffs = self._pl_coeffs()
        d2 = a.x2.shape[-1]
        x2term = a.x2[..., 0, :] @ coeffs[1:1 + d2] if d2 else 0.0
        return coeffs[0], a.p[..., 0], x2term, a.x1[..., 0]

    def H(self, y, a):
        """Transformed outcome at (y, a)."""
        if self.kind == "demeaned-transform":
            fwd, _ = _F_TRANSFORMS[self.f]
            return _scalar(fwd(np.asarray(y, dtype=float)) - self._mu(a))
        if self.kind == "quantile-rank":
            return _scalar(self._by_level(_cdf_interp, y, a))
        alpha, p, x2term, x1 = self._pl_index(a)
        return _scalar(logit(np.asarray(y, dtype=float)) + alpha * p - x2term - x1)

    def H_inverse(self, v, a):
        """The outcome y with H(y, a) = v."""
        v = np.asarray(v, dtype=float)
        if self.kind == "demeaned-transform":
            _, inv = _F_TRANSFORMS[self.f]
            return _scalar(inv(v + self._mu(a)))
        if self.kind == "quantile-rank":
            return _scalar(self._by_level(_quantile_interp, v, a))
        alpha, p, x2term, x1 = self._pl_index(a)
        out = expit(v - alpha * p + x2term + x1)
        inside = (0.0 < out) & (out < 1.0)
        if not inside.all():
            bad = np.atleast_1d(out)[~np.atleast_1d(inside)][0]
            raise InversionFailure(f"inverse left the outcome space: {bad}")
        return _scalar(out)


def _scalar(x):
    """A 0-d result as a float; arrays as they are."""
    return float(x) if np.ndim(x) == 0 else x


def demeaned_family(f: str = "identity") -> RuleFamily:
    return RuleFamily("demeaned-transform", f=f)


def quantile_family() -> RuleFamily:
    return RuleFamily("quantile-rank")


def partially_linear_family(n_params: int = 1, param_map=()) -> RuleFamily:
    return RuleFamily("partially-linear-index", n_params=n_params,
                      param_map=tuple(tuple(row) for row in param_map))


def _ranks(m: int) -> np.ndarray:
    return (np.arange(1, m + 1) - 0.5) / m


def interp_extrap(t, xs, ys):
    """Piecewise-linear interpolation through (xs, ys), xs increasing,
    extended linearly beyond both ends with the end segments' slopes."""
    out = np.interp(t, xs, ys)
    s0 = (ys[1] - ys[0]) / (xs[1] - xs[0])
    s1 = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    out = np.where(t < xs[0], ys[0] + s0 * (t - xs[0]), out)
    out = np.where(t > xs[-1], ys[-1] + s1 * (t - xs[-1]), out)
    return out


def _cdf_interp(sorted_sample: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotone piecewise-linear empirical CDF with linear tails."""
    return interp_extrap(y, sorted_sample, _ranks(len(sorted_sample)))


def _quantile_interp(sorted_sample: np.ndarray, u: np.ndarray) -> np.ndarray:
    return interp_extrap(u, _ranks(len(sorted_sample)), sorted_sample)


# --- instrument basis -------------------------------------------------------

def instrument_basis(data: ObsSet) -> np.ndarray:
    """b(Z) design: finite-support dummies when Z takes at most 12 values,
    else the quadratic polynomial (constant, each Z_k and each product
    Z_k Z_l with k <= l). The dummies follow Z's distinct rows in sorted
    order; a one-column Z sorts as plain values, not as rows, which is the
    same order and far faster."""
    Z = data.z
    uniq = np.unique(Z[:, 0])[:, None] if Z.shape[1] == 1 else np.unique(Z, axis=0)
    if len(uniq) <= 12:
        cols = [np.all(Z == u, axis=1).astype(float) for u in uniq]
        return np.column_stack(cols)
    cols = [np.ones(len(Z))]
    d = Z.shape[1]
    for k in range(d):
        cols.append(Z[:, k])
    for k in range(d):
        for l in range(k, d):
            cols.append(Z[:, k] * Z[:, l])
    return np.column_stack(cols)


# --- GMM solve --------------------------------------------------------------

@dataclass
class FitReport:
    theta: np.ndarray
    criterion: float


def _two_step_weight(contrib: np.ndarray) -> np.ndarray:
    S = np.cov(contrib, rowvar=False, bias=True)
    S = np.atleast_2d(S)
    ridge = 1e-10 * max(np.trace(S) / len(S), 1e-30)
    return np.linalg.pinv(S + ridge * np.eye(len(S)))


def solve_orthogonality(family: RuleFamily,
                        data: ObsSet) -> tuple[RuleFamily, FitReport]:
    """Select the family member orthogonal to the instruments.

    Two-step GMM on the mean-independence moments E[H_theta(Y, A) b(Z)] = 0.
    They are linear in theta for the demeaned and partially linear
    families, so both are solved in closed form; raises NonUnique when the
    moment system is rank deficient.
    """
    if not len(data):
        raise ConfigError("no observations to fit the rule family on")
    if family.kind == "quantile-rank":
        return _fit_quantile(family, data)
    if family.kind == "demeaned-transform":
        return _fit_demeaned(family, data)
    return _fit_partially_linear(family, data)


def _require_size(n: int, dim: int):
    if n < 10 * dim:
        raise ConfigError(f"need at least {10 * dim} observations for {dim} parameters, got {n}")


def _fit_quantile(family: RuleFamily, data: ObsSet) -> tuple[RuleFamily, FitReport]:
    y, a = data.y, data.a
    levels = sorted(set(a.tolist()))
    samples = tuple(tuple(np.sort(y[a == lev]).tolist()) for lev in levels)
    if any(len(s) < 2 for s in samples):
        raise ConfigError("each treatment level needs at least 2 outcomes")
    return replace(family, levels=tuple(levels), samples=samples), FitReport(np.array([]), 0.0)


def _fit_demeaned(family: RuleFamily, data: ObsSet) -> tuple[RuleFamily, FitReport]:
    y, a = data.y, data.a
    levels = sorted(set(a.tolist()))
    _require_size(len(data), len(levels))
    fwd, _ = _F_TRANSFORMS[family.f]
    D = (a[:, None] == np.array(levels)).astype(float)
    report = _fit_linear(fwd(y), D, instrument_basis(data))
    return replace(family, theta=tuple(report.theta), levels=tuple(levels)), report


def _fit_partially_linear(family: RuleFamily, data: ObsSet) -> tuple[RuleFamily, FitReport]:
    M = np.atleast_2d(np.asarray(family.param_map, dtype=float)) if family.param_map \
        else np.eye(family.n_params)
    _require_size(len(data), M.shape[1])
    y, a = data.y, data.a
    # H = logit(y) - x1 + (p, -x2) M theta
    X = np.column_stack([a.p[:, 0], -a.x2[:, 0]])
    report = _fit_linear(logit(y) - a.x1[:, 0], -X @ M[:X.shape[1]], instrument_basis(data))
    return replace(family, theta=tuple(report.theta)), report


def _fit_linear(u: np.ndarray, D: np.ndarray, B: np.ndarray) -> FitReport:
    """Two-step GMM on the moments mean(b (u - D theta)) = 0, in closed form.

    Raises NonUnique when G = mean(b D') has rank below dim(theta); its
    candidates are the least-squares theta and theta plus a null-space
    vector of G, which attain the same criterion.
    """
    G = B.T @ D / len(u)
    c = B.T @ u / len(u)
    rank = np.linalg.matrix_rank(G, tol=1e-10)
    if rank < D.shape[1]:
        theta, *_ = np.linalg.lstsq(G, c, rcond=None)
        null = np.linalg.svd(G)[2][-1]
        raise NonUnique(f"moment system rank {rank} < {D.shape[1]} parameters",
                        candidates=[theta, theta + null])
    theta = _linear_gmm(G, c, lambda th: (u - D @ th)[:, None] * B)
    crit = float(np.sum((c - G @ theta) ** 2))
    return FitReport(theta, crit)


def _linear_gmm(G: np.ndarray, c: np.ndarray, contrib_fn) -> np.ndarray:
    theta1, *_ = np.linalg.lstsq(G, c, rcond=None)
    W = _two_step_weight(contrib_fn(theta1))
    A = G.T @ W @ G
    return np.linalg.solve(A, G.T @ W @ c)


def extrapolate(fitted: RuleFamily, y, a, target_a):
    """Predicted outcome at target_a: H^{-1}(H(y, a), target_a).

    y and a are one observation or a batch (see `RuleFamily.H`); target_a
    is one treatment for every row or one per row. Rows whose target equals
    their treatment return y exactly, and y itself when all of them do.
    """
    if not fitted.fitted:
        raise ConfigError("family must be fitted by solve_orthogonality first")
    same = _same_treatment(a, target_a)
    if same.all():
        return y
    out = fitted.H_inverse(fitted.H(y, a), target_a)
    return np.where(same, y, out) if same.any() else out


def _same_treatment(a, b) -> np.ndarray:
    """Whether treatments a and b are equal, row by row: levels as values,
    bundles on x1, p and x2."""
    if isinstance(a, (Bundle, Bundles)):
        return ((a.x1 == b.x1).all(axis=-1) & (a.p == b.p).all(axis=-1)
                & (a.x2 == b.x2).all(axis=(-2, -1)))
    return np.asarray(a) == np.asarray(b)


@dataclass
class Prop32Report:
    max_gap: float
    tol: float = 1e-10

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.tol


def check_prop32(fitted: RuleFamily, data: ObsSet, targets) -> Prop32Report:
    """Agreement between rule-based extrapolation and the structural model
    constructed from the fitted rule, on every market and target: one
    extrapolation and one structural prediction of all markets per target.
    The targets are treatment levels, or Bundles whose rows are the target
    bundles.

    For the partially linear family the structural route is
    `counterfactual.predict` on the plain-logit share map of the fitted
    coefficients, an independent code path; for the demeaned family the
    structural conversion map is composed explicitly.
    """
    y, a = data.y, data.a
    gap = 0.0
    for t in targets:
        tilde = extrapolate(fitted, y, a, t)
        structural = _structural_predict(fitted, y, a, t)
        gap = max(gap, float(np.max(np.abs(tilde - structural))))
    return Prop32Report(gap)


def _structural_predict(fitted: RuleFamily, y: np.ndarray, a, target_a) -> np.ndarray:
    """Structural predictions at target_a of the stacked observations (y, a)."""
    if fitted.kind == "partially-linear-index":
        coeffs = fitted._pl_coeffs()
        m = plain_logit(alpha=float(coeffs[0]), gamma=tuple(coeffs[1:]))
        if target_a.x1.ndim == 1:  # one bundle for every row
            target_a = Bundles.repeat(target_a, len(y))
        return predict(m, y[:, None], a, target_a)[:, 0]
    if fitted.kind == "demeaned-transform":
        # conversion to the baseline level and back, composed explicitly
        fwd, inv = _F_TRANSFORMS[fitted.f]
        base = fitted.levels[0]
        y0 = inv(fwd(y) - fitted._mu(a) + fitted._mu(base))
        return inv(fwd(y0) - fitted._mu(base) + fitted._mu(target_a))
    # quantile-rank: via the baseline-level quantile scale
    base = fitted.levels[0]
    y0 = fitted.H_inverse(fitted.H(y, a), base)
    return fitted.H_inverse(fitted.H(y0, base), target_a)


@dataclass
class PriceCcsReport:
    """Price-transport correctness vs characteristic-transport failure."""

    max_price_error: float
    x1_error_by_type: dict
    price_tol: float = 1e-8

    @property
    def price_correct(self) -> bool:
        return self.max_price_error <= self.price_tol


def price_ccs_check(m: ShareMap, population: Population, truth: Callable,
                    price_grid: Sequence[float]) -> PriceCcsReport:
    """On a population homogeneous in price response but heterogeneous in
    the x1 response, the price counterfactuals of the share map m should
    match the truth while x1 counterfactuals err for at least one type.

    `truth(population, bundles)` evaluates the stored potential outcomes
    (n, J) of the markets at Bundles, one row each. The check makes one
    `invert_rows` of the observed shares, then stacks the price targets and
    the x1 target over the tiled markets (`stack_targets`) for one
    `shares_array` and one truth call. No markets, or an empty price grid,
    is a ConfigError.
    """
    n = len(population)
    if not n:
        raise ConfigError("the price-CCS check needs at least 1 market, got 0")
    if not len(price_grid):
        raise ConfigError("the price-CCS check needs a price_grid of at least 1 price, got none")
    y, a = population.y, population.a
    v = invert_rows(m, y, a)
    x1_target = a.replace(x1=a.x1 + 1.0)
    targets = [a.replace(p=np.full(a.p.shape, float(pp))) for pp in price_grid]
    pop, rows = stack_targets(population, targets + [x1_target])
    # A price move leaves x1, and so v, unchanged.
    delta = np.concatenate([np.tile(v, (len(targets), 1)), v - a.x1 + x1_target.x1])
    err = np.abs(shares_array(m, delta, rows) - truth(pop, rows))
    max_price = float(err[:-n].max())
    err = err[-n:].max(axis=1)
    zeta = population.zeta
    x1_err = {z: float(err[zeta == z].max()) for z in dict.fromkeys(zeta.tolist())}
    return PriceCcsReport(max_price, x1_err)
