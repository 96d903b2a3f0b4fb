"""Extrapolation-from-averages: three outcome rules fitted by instrument
orthogonality, unit-level prediction, and correctness diagnostics.

A rule is an outcome transformation H(y, a), invertible in y, from a
finite-dimensional class: `DemeanedRule`, `QuantileRule` or
`PartiallyLinearRule`. Each class's `fit(data)` selects the member whose
H(Y, A) is mean-independent of the instruments; predictions then act as if
the transformed outcome has zero individual treatment effects.

Observations are one `ObsSet` of stacked arrays, and rules act on arrays:
`H`, `H_inverse` and `extrapolate` take one observation or a batch (an
array of outcomes with an array of treatment levels, or the J = 1 shares of
stacked markets under `Bundles`). `check_prop32` makes one extrapolation
and one structural prediction per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .counterfactual import predict, stack_targets
from .demand import ShareMap, expit, logit, plain_logit, shares_array
from .errors import ConfigError, InversionFailure, NonUnique
from .inversion import invert_rows
from .population import Population
from .types import Bundle, Bundles, Check

#: The largest price counterfactual error `price_ccs_check` passes.
PRICE_CCS_TOL = 1e-8


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


# --- the three rules -------------------------------------------------------
#
# Each rule is built by its own `fit(data)`. For the demeaned and quantile
# rules y is an outcome or an array of outcomes and a a treatment level or
# an array of levels; for the partially linear rule y is the inside share
# of J = 1 markets (a float or an (n,) array) under a Bundle or Bundles.

def _support(data: ObsSet) -> tuple:
    """The sorted treatment levels of the observations; none is a ConfigError."""
    if not len(data):
        raise ConfigError("no observations to fit the rule on")
    return tuple(sorted(set(data.a.tolist())))


def _level_index(levels: tuple, a) -> np.ndarray:
    """Position in `levels` of each treatment level in a."""
    a = np.asarray(a)
    hit = a[..., None] == np.asarray(levels)
    found = hit.any(axis=-1)
    if not found.all():
        bad = np.atleast_1d(a)[~np.atleast_1d(found)][0].item()
        raise ConfigError(f"treatment level {bad!r} outside the fitted support")
    return hit.argmax(axis=-1)


@dataclass(frozen=True)
class DemeanedRule:
    """H(y, a) = logit(y) - mu(a), with mu free per treatment level over the
    fitted support `levels`; `criterion` is the GMM criterion at mu."""

    levels: tuple
    mu: tuple
    criterion: float

    @classmethod
    def fit(cls, data: ObsSet) -> "DemeanedRule":
        """The mu orthogonal to the instruments, by closed-form two-step GMM."""
        levels = _support(data)
        D = (data.a[:, None] == np.array(levels)).astype(float)
        mu, crit = _fit_linear(logit(data.y), D, instrument_basis(data))
        return cls(levels, tuple(mu.tolist()), crit)

    def _mu(self, a) -> np.ndarray:
        return np.asarray(self.mu)[_level_index(self.levels, a)]

    def H(self, y, a):
        """Transformed outcome at (y, a)."""
        return logit(np.asarray(y, dtype=float)) - self._mu(a)

    def H_inverse(self, v, a):
        """The outcome y with H(y, a) = v."""
        return expit(np.asarray(v, dtype=float) + self._mu(a))


@dataclass(frozen=True)
class QuantileRule:
    """H(y, a) = smoothed empirical CDF of Y given A = a (Athey & Imbens,
    2006): `samples` holds the sorted outcomes of each level in `levels`."""

    levels: tuple
    samples: tuple

    @classmethod
    def fit(cls, data: ObsSet) -> "QuantileRule":
        levels = _support(data)
        samples = tuple(tuple(np.sort(data.y[data.a == lev]).tolist()) for lev in levels)
        if any(len(s) < 2 for s in samples):
            raise ConfigError("each treatment level needs at least 2 outcomes")
        return cls(levels, samples)

    def _by_level(self, fn, x, a) -> np.ndarray:
        """fn(sorted sample of level k, entries of x at level k), for each k."""
        idx = _level_index(self.levels, a)
        x, idx = np.broadcast_arrays(np.asarray(x, dtype=float), idx)
        out = np.empty(x.shape)
        for k in np.unique(idx):
            rows = idx == k
            out[rows] = fn(np.asarray(self.samples[k]), x[rows])
        return out

    def H(self, y, a):
        """Transformed outcome at (y, a)."""
        return self._by_level(_cdf_interp, y, a)

    def H_inverse(self, v, a):
        """The outcome y with H(y, a) = v."""
        return self._by_level(_quantile_interp, v, a)


@dataclass(frozen=True)
class PartiallyLinearRule:
    """H(y, a) = logit(y) + alpha p - x2 gamma - x1 of J = 1 markets, with
    theta = (alpha, gamma): one coefficient for the price and one per x2
    column; `criterion` is the GMM criterion at theta."""

    theta: tuple
    criterion: float

    @classmethod
    def fit(cls, data: ObsSet) -> "PartiallyLinearRule":
        """The theta orthogonal to the instruments, by closed-form two-step GMM."""
        a = data.a
        X = np.column_stack([a.p[:, 0], -a.x2[:, 0]])  # H = logit(y) - x1 + X theta
        theta, crit = _fit_linear(logit(data.y) - a.x1[:, 0], -X, instrument_basis(data))
        return cls(tuple(theta.tolist()), crit)

    def _index(self, a: Bundle | Bundles):
        """alpha, and p, x2 gamma and x1 of the J = 1 markets at a."""
        x2term = a.x2[..., 0, :] @ np.asarray(self.theta[1:])
        return self.theta[0], a.p[..., 0], x2term, a.x1[..., 0]

    def H(self, y, a):
        """Transformed outcome at (y, a)."""
        alpha, p, x2term, x1 = self._index(a)
        return logit(np.asarray(y, dtype=float)) + alpha * p - x2term - x1

    def H_inverse(self, v, a):
        """The outcome y with H(y, a) = v."""
        alpha, p, x2term, x1 = self._index(a)
        out = expit(np.asarray(v, dtype=float) - alpha * p + x2term + x1)
        inside = (0.0 < out) & (out < 1.0)
        if not inside.all():
            bad = np.atleast_1d(out)[~np.atleast_1d(inside)][0]
            raise InversionFailure(f"inverse left the outcome space: {bad}")
        return out


Rule = DemeanedRule | QuantileRule | PartiallyLinearRule


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

def _two_step_weight(contrib: np.ndarray) -> np.ndarray:
    S = np.atleast_2d(np.cov(contrib, rowvar=False, bias=True))
    ridge = 1e-10 * max(np.trace(S) / len(S), 1e-30)
    return np.linalg.pinv(S + ridge * np.eye(len(S)))


def _fit_linear(u: np.ndarray, D: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """Two-step GMM on the mean-independence moments mean(b (u - D theta)) = 0,
    in closed form: theta and its criterion.

    Fewer than 10 observations per parameter is a ConfigError. Raises
    NonUnique when G = mean(b D') has rank below dim(theta); its candidates
    are the least-squares theta and theta plus a null-space vector of G,
    which attain the same criterion.
    """
    n, dim = D.shape
    if n < 10 * dim:
        raise ConfigError(f"need at least {10 * dim} observations for {dim} parameters, got {n}")
    G = B.T @ D / n
    c = B.T @ u / n
    theta1, *_ = np.linalg.lstsq(G, c, rcond=None)
    rank = np.linalg.matrix_rank(G, tol=1e-10)
    if rank < dim:
        raise NonUnique(f"moment system rank {rank} < {dim} parameters",
                        candidates=[theta1, theta1 + np.linalg.svd(G)[2][-1]])
    W = _two_step_weight((u - D @ theta1)[:, None] * B)
    theta = np.linalg.solve(G.T @ W @ G, G.T @ W @ c)
    return theta, float(np.sum((c - G @ theta) ** 2))


def extrapolate(rule: Rule, y, a, target_a):
    """Predicted outcome at target_a: H^{-1}(H(y, a), target_a).

    y and a are one observation or a batch (see the rules above); target_a
    is one treatment for every row or one per row. Rows whose target equals
    their treatment return y exactly, and y itself when all of them do.
    """
    same = _same_treatment(a, target_a)
    if same.all():
        return y
    out = rule.H_inverse(rule.H(y, a), target_a)
    return np.where(same, y, out) if same.any() else out


def _same_treatment(a, b) -> np.ndarray:
    """Whether treatments a and b are equal, row by row: levels as values,
    bundles on x1, p and x2."""
    if isinstance(a, (Bundle, Bundles)):
        return ((a.x1 == b.x1).all(axis=-1) & (a.p == b.p).all(axis=-1)
                & (a.x2 == b.x2).all(axis=(-2, -1)))
    return np.asarray(a) == np.asarray(b)


def check_prop32(rule: Rule, data: ObsSet, targets) -> float:
    """Largest gap between rule-based extrapolation and the structural model
    constructed from the fitted rule, over every market and target: one
    extrapolation and one structural prediction of all markets per target.
    The targets are treatment levels, or Bundles whose rows are the target
    bundles.

    For the partially linear rule the structural route is
    `counterfactual.predict` on the plain-logit share map of the fitted
    coefficients, an independent code path; for the other rules it is the
    conversion through the baseline level, the first of the support.
    """
    y, a = data.y, data.a
    gap = 0.0
    for t in targets:
        tilde = extrapolate(rule, y, a, t)
        structural = _structural_predict(rule, y, a, t)
        gap = max(gap, float(np.max(np.abs(tilde - structural))))
    return gap


def _structural_predict(rule: Rule, y: np.ndarray, a, target_a) -> np.ndarray:
    """Structural predictions at target_a of the stacked observations (y, a)."""
    if isinstance(rule, PartiallyLinearRule):
        m = plain_logit(alpha=rule.theta[0], gamma=rule.theta[1:])
        if target_a.x1.ndim == 1:  # one bundle for every row
            target_a = Bundles.repeat(target_a, len(y))
        return predict(m, y[:, None], a, target_a)[:, 0]
    base = rule.levels[0]
    y0 = rule.H_inverse(rule.H(y, a), base)
    return rule.H_inverse(rule.H(y0, base), target_a)


def price_ccs_check(m: ShareMap, population: Population, truth: Callable,
                    price_grid: Sequence[float]) -> tuple[Check, dict]:
    """On a population homogeneous in price response but heterogeneous in
    the x1 response, the price counterfactuals of the share map m should
    match the truth while x1 counterfactuals err for at least one type:
    the largest price counterfactual error, as the Check
    "price_counterfactual_error" at PRICE_CCS_TOL, and the largest x1
    counterfactual error of each type, by type.

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
    return Check("price_counterfactual_error", max_price, PRICE_CCS_TOL, "<="), x1_err
