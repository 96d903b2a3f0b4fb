"""Recover the index delta from observed shares.

Plain logit has a closed form. A J = 1 mixed logit is one increasing curve,
solved by bracketed Newton (:func:`solve_share_curve`). Mixed logit with
J >= 2 runs a safeguarded Newton iteration on the log-share residual
F(delta) = log y - log sigma(delta), from the plain-logit start. Each Newton
step is halved until the sup-norm of F falls by an Armijo factor; a trial
point whose shares are unusable (integration failure, non-positive or
non-finite shares) is rejected like one that does not descend. When the
halvings run out, or the Jacobian is singular, the iteration takes one BLP
contraction step delta <- delta + F(delta) instead. The contraction is
globally stable but its modulus approaches 1 as the outside share shrinks
(Dube, Fox and Su, 2012), which is why it is the fallback rather than the
method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logit

from .demand import (ShareMap, _fixed_index, _random_index, expit_mixture, mixing_nodes,
                     share_jacobian, shares_array)
from .errors import ConfigError, IntegrationFailure, NoConvergence
from .types import Bundle, SharesVector

ARMIJO = 1e-4  # required fractional decrease of max|F| per unit step length
MAX_HALVINGS = 6  # backtracking halvings before the contraction fallback


@dataclass(frozen=True)
class InversionConfig:
    tol: float = 1e-12  # sup-norm tolerance on shares(delta) - y
    max_iter: int = 10_000
    newton_polish: bool = True  # J >= 2; False: contraction only (the reference path)

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ConfigError("require tol > 0 and max_iter >= 1")


DEFAULT_INVERSION = InversionConfig()


def logit_closed_form(m: ShareMap, y: SharesVector, a: Bundle) -> np.ndarray:
    """delta_j = log y_j - log(1 - sum y) - g(a_j) for plain logit."""
    v = y.values
    return np.log(v) - np.log(y.outside) - _fixed_index(m, a)


def _trial_shares(share_fn: Callable, delta: np.ndarray):
    """Shares at a line-search trial point, or None when they are unusable."""
    try:
        s = share_fn(delta)
    except IntegrationFailure:
        return None
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        return None
    return s


def _newton_step(share_fn: Callable, jac_fn: Callable, log_target: np.ndarray,
                 delta: np.ndarray, s: np.ndarray, step_log: np.ndarray,
                 log_residual: float):
    """Backtracking Newton step on F = log y - log s(delta).

    Returns the accepted (delta, shares), or None when the Jacobian is
    singular or no trial within MAX_HALVINGS halvings lowers max|F| by the
    Armijo factor.
    """
    try:
        step = np.linalg.solve(jac_fn(delta) / s[:, None], step_log)
    except np.linalg.LinAlgError:
        return None
    t = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial = delta + t * step
        s_trial = _trial_shares(share_fn, trial)
        if s_trial is not None:
            trial_residual = float(np.max(np.abs(log_target - np.log(s_trial))))
            if trial_residual <= (1.0 - ARMIJO * t) * log_residual:
                return trial, s_trial
        t *= 0.5
    return None


def _solve_log_shares(share_fn: Callable, jac_fn: Callable, target: np.ndarray,
                      delta: np.ndarray, cfg: InversionConfig) -> np.ndarray:
    """Solve share_fn(delta) = target from the start `delta` (J >= 2).

    `share_fn(delta)` returns the J shares and `jac_fn(delta)` their J x J
    Jacobian in delta. Converged when both max|s - y| and max|log y - log s|
    are within cfg.tol: the share residual alone says little about delta
    when shares are tiny. Raises NoConvergence(iterations, residual) after
    cfg.max_iter iterations.
    """
    log_target = np.log(target)
    s = None
    residual = np.inf
    for _ in range(cfg.max_iter):
        if s is None:
            s = share_fn(delta)
        residual = float(np.max(np.abs(s - target)))
        step_log = log_target - np.log(s)
        log_residual = float(np.max(np.abs(step_log)))
        if residual <= cfg.tol and log_residual <= cfg.tol:
            return delta
        accepted = (_newton_step(share_fn, jac_fn, log_target, delta, s, step_log,
                                 log_residual) if cfg.newton_polish else None)
        if accepted is None:
            delta, s = delta + step_log, None  # contraction step
        else:
            delta, s = accepted
    raise NoConvergence(cfg.max_iter, residual)


def solve_share_curve(offsets, weights, y,
                      cfg: InversionConfig = DEFAULT_INVERSION) -> np.ndarray:
    """Solve sum_m w_m expit(delta + o_m) = y elementwise for targets y (...)
    in (0, 1), node offsets (..., M) and weights summing to 1.

    s lies between expit(delta + min o) and expit(delta + max o), so the root
    lies in [logit(y) - max o, logit(y) - min o]. Newton on log y - log s
    from logit(y) - mean o; every evaluation narrows the bracket, and a step
    that leaves it or is not finite becomes its midpoint. Converged when the
    share and log-share residuals of every row are within cfg.tol;
    NoConvergence(iterations, residual) after cfg.max_iter.
    """
    y = np.asarray(y, dtype=float)
    log_y = np.log(y)
    z = logit(y)
    lo = z - offsets.max(axis=-1)
    hi = z - offsets.min(axis=-1)
    delta = z - offsets @ weights
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(cfg.max_iter):
            s, slope = expit_mixture(delta, offsets, weights, weights)
            gap = log_y - np.log(s)
            residual = float(abs(s - y).max())
            if residual <= cfg.tol and abs(gap).max() <= cfg.tol:
                return delta
            below = s < y
            lo = np.where(below, delta, lo)
            hi = np.where(below, hi, delta)
            step = delta + gap * s / slope
            inside = (lo <= step) & (step <= hi)  # inclusive, so a converged row stays
            delta = step if inside.all() else np.where(inside, step, 0.5 * (lo + hi))
    raise NoConvergence(cfg.max_iter, residual)


def invert(m: ShareMap, y: SharesVector, a: Bundle,
           cfg: InversionConfig = DEFAULT_INVERSION) -> np.ndarray:
    """Solve shares(m, delta, a) = y for delta.

    Raises NoConvergence(iterations, residual) when the iteration budget is
    exhausted; this is the operational signal of an invertibility failure
    or a tolerance that is too tight.
    """
    if m.kind == "plain-logit":
        return logit_closed_form(m, y, a)
    target = y.values
    if a.J == 1:
        B, w = mixing_nodes(m.mixing, m.integration)
        offsets = _fixed_index(m, a) + _random_index(B, a)[:, 0]
        return solve_share_curve(offsets, w, target, cfg)
    # Plain-logit start ignoring the mixing and the fixed index.
    return _solve_log_shares(lambda d: shares_array(m, d, a),
                             lambda d: share_jacobian(m, d, a),
                             target, np.log(target) - np.log(y.outside), cfg)


def structural_shock(m: ShareMap, y: SharesVector, a: Bundle,
                     cfg: InversionConfig = DEFAULT_INVERSION) -> np.ndarray:
    """xi = invert(y) - x1: the latent demand shifter implied by (y, a)."""
    return invert(m, y, a, cfg) - a.x1
