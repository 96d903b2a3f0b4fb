"""Recover the index delta from observed shares.

Every solver here takes a batch of markets: shares y (n, J) under
`types.Bundles`, one market per row (:func:`invert_rows`); one market is
the batch of one. Plain logit has a closed form. A J = 1 mixed logit is one
increasing curve per market, solved by bracketed Newton
(:func:`solve_share_curve`). Mixed logit with J >= 2 runs a safeguarded
Newton iteration over all markets at once (:func:`_solve_log_shares`), from
the logit inverse at the mixing's mean coefficients (:func:`_mean_index`).
Near saturation the iteration count is set by how far the start is from
the root, and that start keeps the price and x2 terms that the
plain-logit start log y - log y0 drops: at a 2 % outside share and J = 25
it halves the node-share evaluations. Each iteration solves the stacked
J x J Newton systems of the rows still active in one call, and each
line-search trial evaluates the node shares of the rows still searching in
one call. Each row's step is halved until the sup-norm of its log-share
residual falls by an Armijo factor; a row whose trial point has unusable
shares (integration failure, non-positive or non-finite shares) is rejected
on its own, like one that does not descend. A row whose halvings run out, or
whose Jacobian is singular, takes one BLP contraction step
delta <- delta + log y - log sigma(delta) instead. The contraction is
globally stable but its modulus approaches 1 as the outside share shrinks
(Dube, Fox and Su, 2012), which is why it is the fallback rather than the
method. Converged rows leave the active set, and rows are solved in blocks
of at most MAX_BLOCK_ELEMENTS node shares.

Both root loops also match the outside share in logs. Near the simplex
boundary the inside shares say little about delta: at an outside share of
6e-12, inside shares within 1e-12 of their targets leave it 15 % off. Below
MIN_OUTSIDE_SHARE the shares, being doubles, do not determine delta, and
the loops raise SimplexViolation rather than iterate; so they do for an
inside share that is not positive, whose log is not finite, or subnormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .demand import (MAX_BLOCK_ELEMENTS, ShareMap, _fixed_index, _random_index,
                     _weighted_node_shares, logit, mixing_nodes,
                     node_average, node_jacobian, node_offsets, node_sum)
from .errors import ConfigError, IntegrationFailure, NoConvergence, SimplexViolation
from .types import Bundle, Bundles, validate_share_rows

ARMIJO = 1e-4  # required fractional decrease of max|F| per unit step length
MAX_HALVINGS = 6  # backtracking halvings before the contraction fallback
#: Delta moves one for one with the log outside share log y0, which the
#: inside shares fix only to J tol / y0. Both loops also match log y0 to
#: this tolerance, so that delta is recovered to about 1e-11 (criterion 1
#: asks for 1e-10) wherever y0 is; the inside tests alone meet it only
#: where J tol / y0 is below it.
OUTSIDE_TOL = 1e-11
#: y0 = 1 - sum(y) carries the rounding of the inside shares, about 1e-16:
#: below this floor that is more than 1e-6 in delta.
MIN_OUTSIDE_SHARE = 1e-10
_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class InversionConfig:
    tol: float = 1e-12  # sup-norm tolerance on shares(delta) - y
    max_iter: int = 10_000

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ConfigError("require tol > 0 and max_iter >= 1")


DEFAULT_INVERSION = InversionConfig()


def _check_shares(y, y0, ids=None) -> None:
    """Raise SimplexViolation naming the first market (by its entry in `ids`,
    default its row) whose inside share y is not finite; else the first whose
    inside share is not positive, so that its log and delta are not finite;
    else the first whose inside share is subnormal, too coarse for a
    log-share tolerance; else the first whose outside share y0 is below
    MIN_OUTSIDE_SHARE, which does not determine delta."""
    for kind, share, low, why in (
            ("inside", y, ~np.isfinite(np.ravel(y)), "is not finite"),
            ("inside", y, np.ravel(y) <= 0, "is not positive, so delta is not finite"),
            ("inside", y, np.ravel(y) < _SMALLEST_NORMAL,
             "is subnormal, so it does not determine delta"),
            ("outside", y0, np.ravel(y0) < MIN_OUTSIDE_SHARE,
             f"below {MIN_OUTSIDE_SHARE:g} does not determine delta")):
        if low.any():
            row = int(np.argmax(low))
            raise SimplexViolation(f"market {row if ids is None else ids[row]}: {kind} share "
                                   f"{np.ravel(share)[row]:.3e} {why}")


def logit_closed_form(m: ShareMap, y: np.ndarray, a: Bundle | Bundles) -> np.ndarray:
    """delta_j = log y_j - log(1 - sum y) - g(a_j) for plain logit, for
    shares y (..., J)."""
    return np.log(y) - np.log(1.0 - y.sum(axis=-1, keepdims=True)) - _fixed_index(m, a)


def _trial_node_shares(node_shares: Callable, delta: np.ndarray, rows: np.ndarray,
                       nodes: int) -> np.ndarray:
    """Node shares at the trial points delta of `rows`. When the batch raises
    IntegrationFailure, each row is evaluated on its own, and a row that
    raises gets NaN shares: it is rejected without rejecting the others."""
    try:
        return node_shares(delta, rows)
    except IntegrationFailure:
        if len(rows) == 1:
            return np.full((1, nodes, delta.shape[1] + 1), np.nan)
        return np.concatenate([_trial_node_shares(node_shares, delta[i:i + 1],
                                                  rows[i:i + 1], nodes)
                               for i in range(len(rows))])


def _newton_directions(P: np.ndarray, weights: np.ndarray, s: np.ndarray,
                       F: np.ndarray, odds: np.ndarray):
    """Newton steps of k rows on their inside log-share residuals F[:, :J],
    or, for the rows `odds`, on the log odds F_j - F_0 against the outside
    good, from the node shares P (k, M, J + 1) and shares s (k, J + 1), the
    outside good last. The log odds weight the outside share as the inside
    shares cannot: their sum fixes it only to rounding.

    All k systems are solved in one call. Returns the steps (k, J) and the
    mask of rows with a finite step; a singular row gets none.
    """
    J = F.shape[1] - 1
    jac = node_jacobian(P, weights, s)
    jac /= s[..., None]
    lhs, rhs = jac[:, :J], F[:, :J, None]
    if odds.any():
        lhs = np.where(odds[:, None, None], lhs - jac[:, J:], lhs)
        rhs = np.where(odds[:, None, None], rhs - F[:, J:, None], rhs)
    try:
        step = np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:  # some row is singular: solve each alone
        step = np.full(rhs.shape[:2], np.nan)
        for i in range(len(step)):
            try:
                step[i] = np.linalg.solve(lhs[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
    return step, np.isfinite(step).all(axis=1)


def _merit(F: np.ndarray, odds: np.ndarray) -> np.ndarray:
    """max|F| of each row over its inside goods, or over all J + 1 goods for
    the rows `odds`."""
    inside = np.abs(F[:, :-1]).max(axis=1)
    return np.where(odds, np.maximum(inside, np.abs(F[:, -1])), inside)


def _newton_steps(node_shares: Callable, weights: np.ndarray, log_target: np.ndarray,
                  delta: np.ndarray, active: np.ndarray, P: np.ndarray, s: np.ndarray,
                  F: np.ndarray, odds: np.ndarray) -> np.ndarray:
    """One backtracking Newton step for each active row.

    Updates delta (at the rows `active`), P and s in place for the rows whose
    trial lowers their merit by the Armijo factor within MAX_HALVINGS
    halvings, and returns their mask. Each halving evaluates the rows still
    pending in one call.
    """
    step, pending = _newton_directions(P, weights, s, F, odds)
    merit = _merit(F, odds)
    accepted = np.zeros(len(active), dtype=bool)
    pending = np.flatnonzero(pending)
    t = 1.0
    for _ in range(MAX_HALVINGS + 1):
        if not len(pending):
            break
        rows = active[pending]
        trial = delta[rows] + t * step[pending]
        P_trial = _trial_node_shares(node_shares, trial, rows, len(weights))
        s_trial = node_average(weights, P_trial)
        usable = np.isfinite(s_trial).all(axis=1) & (s_trial > 0.0).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            trial_merit = _merit(log_target[rows] - np.log(s_trial), odds[pending])
        good = usable & (trial_merit <= (1.0 - ARMIJO * t) * merit[pending])
        took = pending[good]
        delta[active[took]] = trial[good]
        P[took], s[took], accepted[took] = P_trial[good], s_trial[good], True
        pending = pending[~good]
        t *= 0.5
    return accepted


def _solve_block(node_shares: Callable, weights: np.ndarray, target: np.ndarray,
                 log_target: np.ndarray, delta: np.ndarray, rows: np.ndarray,
                 cfg: InversionConfig, ids) -> None:
    """Iterate the rows `rows` of delta in place until each has converged."""
    J = target.shape[1]
    active = rows
    P = node_shares(delta[active], active)
    s = node_average(weights, P)
    stale = np.zeros(len(active), dtype=bool)  # rows that took a contraction step
    odds = np.zeros(len(active), dtype=bool)  # rows on log-odds steps
    for _ in range(cfg.max_iter):
        if stale.any():
            P[stale] = node_shares(delta[active[stale]], active[stale])
            s[stale] = node_average(weights, P[stale])
        F = log_target[active] - np.log(s)
        residual = np.abs(s[:, :J] - target[active]).max(axis=1)
        inside = (residual <= cfg.tol) & (np.abs(F[:, :J]).max(axis=1) <= cfg.tol)
        outside = np.abs(F[:, J]) <= OUTSIDE_TOL
        done = inside & outside
        if done.any():
            keep = ~done
            active, P, s, F = active[keep], P[keep], s[keep], F[keep]
            residual, odds, inside = residual[keep], odds[keep], inside[keep]
            if not len(active):
                return
        odds |= inside  # the inside shares are matched, the outside one is not
        stale = ~_newton_steps(node_shares, weights, log_target, delta, active, P, s, F,
                               odds)
        delta[active[stale]] += F[stale, :J]  # contraction step
    row = int(active[0])
    raise NoConvergence(cfg.max_iter, float(residual[0]), row if ids is None else ids[row])


def _solve_log_shares(node_shares: Callable, weights: np.ndarray, target: np.ndarray,
                      shift, cfg: InversionConfig, ids=None) -> np.ndarray:
    """Solve weights @ node_shares = target for the markets of target (n, J),
    J >= 2, from the logit inverse log y - log y0 plus shift, which
    broadcasts against (n, J); returns the solutions (n, J).

    `node_shares(delta, rows)` returns the node shares (k, M, J + 1), the
    outside good last, of the markets `rows` (indices into target) at delta
    (k, J). The shares and the Jacobian at each accepted point both come
    from that one evaluation. A row has converged when max|s - y| and
    max|log y - log s| over the inside goods are both within cfg.tol (the
    share residual alone says little about delta when shares are tiny) and
    |log y0 - log s0| of the outside good within OUTSIDE_TOL. Raises
    SimplexViolation when an inside share is not positive or an outside
    share is below MIN_OUTSIDE_SHARE, and
    NoConvergence(iterations, residual, market), naming the first market
    that has not converged (its entry in `ids`, default its row), after
    cfg.max_iter iterations.
    """
    n, J = target.shape
    y0 = 1.0 - target.sum(axis=1)
    _check_shares(target.min(axis=1), y0, ids)
    log_target = np.log(np.column_stack([target, y0]))
    delta = log_target[:, :J] - log_target[:, J:] + shift
    block = max(1, MAX_BLOCK_ELEMENTS // (len(weights) * (J + 1)))
    for lo in range(0, n, block):
        _solve_block(node_shares, weights, target, log_target, delta,
                     np.arange(lo, min(n, lo + block)), cfg, ids)
    return delta


def solve_share_curve(offsets, weights, y,
                      cfg: InversionConfig = DEFAULT_INVERSION) -> np.ndarray:
    """Solve sum_m w_m expit(delta + o_m) = y elementwise for targets y (...)
    in (0, 1), node offsets (..., M) and weights summing to 1.

    A target whose outside share 1 - y is too small for the tests below to
    match it in logs within OUTSIDE_TOL (1 - y < cfg.tol / OUTSIDE_TOL) is
    solved through that share: 1 - s is the curve sum_m w_m expit(-delta -
    o_m), so the target 1 - y (exact in floating point) at offsets -o has
    the root -delta. s lies between
    expit(delta + min o) and expit(delta + max o), so the root lies in
    [logit(y) - max o, logit(y) - min o]. Newton on log y - log s from
    logit(y) - mean o; every evaluation narrows the bracket, and a step that
    leaves it or is not finite becomes its midpoint. A row stops moving once
    its share and log-share residuals are both within cfg.tol, so it is not
    moved on by the iterations that other rows of the batch still need.
    Raises SimplexViolation when some y is not finite or not positive or
    some 1 - y is below MIN_OUTSIDE_SHARE, and
    NoConvergence(iterations, residual) when some row has not converged
    after cfg.max_iter.

    The checks read the least and the largest y (1 - y falls as y rises),
    and scan the rows only to name a failing one. Each iteration evaluates
    the curve and its slope as `expit_mixture` does, in two (..., M) buffers
    made once.
    """
    y = np.asarray(y, dtype=float)
    least, largest = y.min(), y.max()
    if not (least >= _SMALLEST_NORMAL and 1.0 - largest >= MIN_OUTSIDE_SHARE):  # or a nan
        _check_shares(y, 1.0 - y)
    sign = 1.0
    if largest > 0.5 and 1.0 - largest < cfg.tol / OUTSIDE_TOL:
        mirror = (y > 0.5) & (1.0 - y < cfg.tol / OUTSIDE_TOL)
        sign = np.where(mirror, -1.0, 1.0)
        y = np.where(mirror, 1.0 - y, y)
        offsets = sign[..., None] * offsets
    log_y = np.log(y)
    z = logit(y)
    lo = z - offsets.max(axis=-1)
    hi = z - offsets.min(axis=-1)
    delta = z - node_sum(offsets, weights)
    lam = np.empty(np.broadcast_shapes(np.shape(delta) + (1,), offsets.shape))
    rate = np.empty_like(lam)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(cfg.max_iter):
            np.add(delta[..., None], offsets, out=lam)
            np.exp(np.negative(lam, out=lam), out=lam)  # expit(lam), in place
            lam += 1.0
            np.divide(1.0, lam, out=lam)
            np.multiply(lam, np.subtract(1.0, lam, out=rate), out=rate)
            s, slope = node_sum(lam, weights), node_sum(rate, weights)
            gap = log_y - np.log(s)
            gap_abs = abs(gap)
            done = None
            if gap_abs.min() <= cfg.tol:  # a row may have converged
                done = (abs(s - y) <= cfg.tol) & (gap_abs <= cfg.tol)
                if done.all():
                    return sign * delta
            below = s < y
            lo = np.where(below, delta, lo)
            hi = np.where(below, hi, delta)
            step = delta + gap * s / slope
            inside = (lo <= step) & (step <= hi)
            step = step if inside.all() else np.where(inside, step, 0.5 * (lo + hi))
            delta = step if done is None else np.where(done, delta, step)
    raise NoConvergence(cfg.max_iter, float(abs(s - y).max()))


def _mean_index(m: ShareMap, a: Bundles, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The non-random index plus the random index at the mean coefficients
    w @ B of the nodes (M, dim): (n, J) for the bundles a of n rows. Its
    negative shifts the logit inverse log y - log y0 to the J >= 2 start, as
    `solve_share_curve` starts at the mean node offset. It is elementwise
    per row and costs O(n J), not the (n, M, J) of the node indices."""
    mean = node_average(w, B)[None]  # one node at the mean coefficients
    return _fixed_index(m, a) + _random_index(mean, a)[..., 0, :]


def invert_rows(m: ShareMap, y, a: Bundles, cfg: InversionConfig = DEFAULT_INVERSION,
                ids=None) -> np.ndarray:
    """Solve shares_array(m, delta, a) = y for the markets of y (n, J) under
    the bundles a, one market per row; returns delta (n, J).

    y is validated by `validate_share_rows`. Errors name the failing market
    by its entry in `ids` (default: its row). NoConvergence(iterations,
    residual) when the iteration budget is exhausted is the operational
    signal of an invertibility failure or a tolerance that is too tight.
    """
    y = validate_share_rows(y, ids)
    if m.kind == "plain-logit":
        return logit_closed_form(m, y, a)
    if y.shape[1] == 1:
        return solve_share_curve(*node_offsets(m, a), y[:, 0], cfg)[:, None]
    B, w = mixing_nodes(m.mixing, m.integration)
    # Logit inverse at the mean coefficients: exact for a degenerate mixing.
    return _solve_log_shares(
        lambda d, rows: _weighted_node_shares(m, d, a[rows], outside=True)[0],
        w, y, -_mean_index(m, a, B, w), cfg, ids)
