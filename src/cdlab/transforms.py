"""Invertible outcome transformations h(y, a).

Each transform maps a J-vector outcome to R^J, invertibly in y, possibly
depending on the rest of the bundle a. `apply` and `invert` take one market,
y (J,) under a Bundle, or stacked markets, y (n, J) under one Bundle for all
rows or under Bundles of n rows; MixedLogitInverse inverts all stacked rows
in one call. The kernels read a's price and other characteristics, never
its x1. Built-in families keep every configuration serializable; fully
general function classes are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import ShareMap, _fixed_index, plain_logit, shares_array
from .errors import InversionFailure
from .inversion import DEFAULT_INVERSION, InversionConfig, invert_rows
from .types import Bundle, Bundles


class Transform:
    """Base class: h(y, a) -> R^J, invertible in y."""

    def apply(self, y, a: Bundle | Bundles) -> np.ndarray:
        raise NotImplementedError

    def invert(self, v, a: Bundle | Bundles) -> np.ndarray:
        raise NotImplementedError


def _rows(y, a: Bundle | Bundles):
    """y as a float array, and a as the share kernel reads it for y: a
    Bundle for one market y (J,), Bundles for the rows of y (n, J), one
    Bundle repeated over them."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 2 and isinstance(a, Bundle):
        a = Bundles.repeat(a, len(y))
    return y, a


@dataclass
class LogitInverse(Transform):
    """Inverse of the plain-logit share map: h = delta(y) + alpha p - x2 gamma."""

    alpha: float = 0.0
    gamma: tuple = ()

    @property
    def _map(self) -> ShareMap:
        return plain_logit(self.alpha, self.gamma)

    def apply(self, y, a):
        y, a = _rows(y, a)
        outside = 1.0 - y.sum(axis=-1, keepdims=True)
        if np.any(outside <= 0) or np.any(y <= 0):
            raise InversionFailure(f"shares outside the open simplex: {y}")
        return np.log(y) - np.log(outside) - _fixed_index(self._map, a)

    def invert(self, v, a):
        return shares_array(self._map, *_rows(v, a))


@dataclass
class MixedLogitInverse(Transform):
    """Inverse of a mixed-logit share map, via the inversion module."""

    map: ShareMap
    inversion: InversionConfig = DEFAULT_INVERSION

    def apply(self, y, a):
        y = np.asarray(y, dtype=float)
        delta = invert_rows(self.map, *_rows(np.atleast_2d(y), a), self.inversion)
        return delta if y.ndim == 2 else delta[0]

    def invert(self, v, a):
        return shares_array(self.map, *_rows(v, a))
