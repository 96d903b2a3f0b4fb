"""Invertible outcome transformations h(y, p, x2).

Each transform maps a J-vector outcome to R^J, invertibly in y, possibly
depending on the rest of the bundle. `apply` and `invert` take one market,
y (J,) at p (J,) and x2 (J, d2); those of LogitInverse, MixedLogitInverse
and MonotoneSpline also take stacked markets, y (n, J) at one market's p and
x2 or at stacked p (n, J) and x2 (n, J, d2), and MixedLogitInverse inverts
all stacked rows in one call. Built-in families keep every
configuration serializable; fully general function classes are out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import ShareMap, plain_logit, shares_array
from .errors import ConfigError, InversionFailure
from .inversion import DEFAULT_INVERSION, InversionConfig, invert_rows
from .types import Bundle, Bundles

FD_STEP = 1e-5


class Transform:
    """Base class: h(y, p, x2) -> R^J, invertible in y."""

    def apply(self, y: np.ndarray, p: np.ndarray, x2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def invert(self, v: np.ndarray, p: np.ndarray, x2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_y(self, y: np.ndarray, p: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """dh/dy, central finite differences unless overridden."""
        J = len(y)
        out = np.empty((J, J))
        for k in range(J):
            e = np.zeros(J)
            e[k] = FD_STEP
            out[:, k] = (self.apply(y + e, p, x2) - self.apply(y - e, p, x2)) / (2 * FD_STEP)
        return out

    def apply_bundle(self, y, a: Bundle | Bundles) -> np.ndarray:
        return self.apply(np.asarray(y, dtype=float), a.p, a.x2)

    def invert_bundle(self, v, a: Bundle | Bundles) -> np.ndarray:
        return self.invert(np.asarray(v, dtype=float), a.p, a.x2)


def _bundles(y: np.ndarray, p, x2) -> Bundle | Bundles:
    """The bundle of y's markets as the share kernel reads it: a Bundle for
    one market y (J,), or Bundles of the rows of y (n, J), with p and x2
    either one market's or stacked."""
    if y.ndim == 1:
        return Bundle(np.zeros(len(y)), p, x2)
    x2 = np.asarray(x2, dtype=float)
    return Bundles(np.zeros(y.shape), np.broadcast_to(p, y.shape),
                   np.broadcast_to(x2, y.shape + x2.shape[-1:]))


@dataclass
class LogitInverse(Transform):
    """Inverse of the plain-logit share map: h = delta(y) + alpha p - x2 gamma."""

    alpha: float = 0.0
    gamma: tuple = ()

    @property
    def _map(self) -> ShareMap:
        return plain_logit(self.alpha, self.gamma)

    def apply(self, y, p, x2):
        from .demand import _fixed_index
        outside = 1.0 - y.sum(axis=-1, keepdims=True)
        if np.any(outside <= 0) or np.any(y <= 0):
            raise InversionFailure(f"shares outside the open simplex: {y}")
        return np.log(y) - np.log(outside) - _fixed_index(self._map, _bundles(y, p, x2))

    def invert(self, v, p, x2):
        return shares_array(self._map, v, _bundles(v, p, x2))

    def jac_y(self, y, p, x2):
        outside = 1.0 - y.sum()
        return np.diag(1.0 / y) + 1.0 / outside


@dataclass
class MixedLogitInverse(Transform):
    """Inverse of a mixed-logit share map, via the inversion module."""

    map: ShareMap
    inversion: InversionConfig = DEFAULT_INVERSION

    def apply(self, y, p, x2):
        rows = np.atleast_2d(y)
        delta = invert_rows(self.map, rows, _bundles(rows, p, x2), self.inversion)
        return delta if y.ndim == 2 else delta[0]

    def invert(self, v, p, x2):
        return shares_array(self.map, v, _bundles(v, p, x2))

    def jac_y(self, y, p, x2):
        from .demand import share_jacobian
        delta = self.apply(y, p, x2)
        return np.linalg.inv(share_jacobian(self.map, delta, _bundles(y, p, x2)))


@dataclass
class Affine(Transform):
    """h(y) = A y + b, independent of (p, x2)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if abs(np.linalg.det(self.A)) < 1e-12:
            raise ConfigError("affine transform requires invertible A")

    def apply(self, y, p, x2):
        return self.A @ y + self.b

    def invert(self, v, p, x2):
        return np.linalg.solve(self.A, v - self.b)

    def jac_y(self, y, p, x2):
        return self.A.copy()


@dataclass
class MonotoneSpline(Transform):
    """Coordinatewise monotone piecewise-linear map with linear tails."""

    knots: np.ndarray  # (K,) strictly increasing
    values: np.ndarray  # (K,) strictly increasing

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.knots) <= 0) or np.any(np.diff(self.values) <= 0):
            raise ConfigError("spline knots and values must be strictly increasing")

    def apply(self, y, p, x2):
        return interp_extrap(y, self.knots, self.values)

    def invert(self, v, p, x2):
        return interp_extrap(v, self.values, self.knots)


def interp_extrap(t, xs, ys):
    """Piecewise-linear interpolation through (xs, ys), xs increasing,
    extended linearly beyond both ends with the end segments' slopes."""
    out = np.interp(t, xs, ys)
    s0 = (ys[1] - ys[0]) / (xs[1] - xs[0])
    s1 = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    out = np.where(t < xs[0], ys[0] + s0 * (t - xs[0]), out)
    out = np.where(t > xs[-1], ys[-1] + s1 * (t - xs[-1]), out)
    return out


class Phi:
    """Invertible map R^J -> interior simplex, derived from (h, a0).

    phi^{-1}(y) = h(y, p0, x20) - x10, so phi(v) = h^{-1}(v + x10, p0, x20).
    """

    def __init__(self, h: Transform, a0: Bundle):
        self.h = h
        self.a0 = a0

    def apply(self, v) -> np.ndarray:
        return self.h.invert(np.asarray(v, dtype=float) + self.a0.x1, self.a0.p, self.a0.x2)

    def inverse(self, y) -> np.ndarray:
        return self.h.apply(np.asarray(y, dtype=float), self.a0.p, self.a0.x2) - self.a0.x1

