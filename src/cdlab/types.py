"""Shared domain types and validation.

Markets are rows: the bundles of n markets are one `Bundles` of stacked
arrays, and their shares one (n, J) matrix, which `validate_share_rows`
checks against the open simplex. A `Bundle` is one bundle, applied to every
row or repeated over them. A `Check` is one measured value against its
threshold, as the equivalence checks and the acceptance gate report it.
Bundle and MixingSpec copy their inputs and mark the arrays read-only, so
instances are safe to share across threads; Bundles holds the arrays it is
given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimplexViolation

#: Boundary of the open simplex. Shares at or beyond it are errors, never
#: silently clamped: clamping would mask inversion failures downstream.
SIMPLEX_EPS = 1e-12


def _frozen(a, dtype=float, ndim=None) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    if ndim is not None and out.ndim != ndim:
        raise ConfigError(f"expected {ndim}-d array, got shape {out.shape}")
    out.setflags(write=False)
    return out


def validate_share_rows(values, ids=None) -> np.ndarray:
    """Validate an (n, J) matrix of share vectors, one market per row;
    returns it read-only.

    Raises SimplexViolation if some entry is not finite or lies outside
    (eps, 1-eps), or some row sums to at least 1-eps, for eps = SIMPLEX_EPS,
    naming the first failing market by its entry in `ids` (default: its row
    number).
    """
    v = _frozen(values, ndim=2)
    # False for a row with a nan.
    ok = ((v > SIMPLEX_EPS).all(axis=1) & (v < 1.0 - SIMPLEX_EPS).all(axis=1)
          & (v.sum(axis=1) < 1.0 - SIMPLEX_EPS))
    if not ok.all():
        row = int(np.argmin(ok))
        r = v[row]
        if not np.all(np.isfinite(r)):
            why = f"non-finite shares: {r}"
        elif np.any(r <= SIMPLEX_EPS) or np.any(r >= 1.0 - SIMPLEX_EPS):
            why = f"share outside ({SIMPLEX_EPS}, 1-{SIMPLEX_EPS}): {r}"
        else:
            why = f"shares sum to {r.sum()} >= 1 - {SIMPLEX_EPS}"
        raise SimplexViolation(f"market {row if ids is None else ids[row]}: {why}")
    return v


@dataclass(frozen=True)
class Bundle:
    """A treatment bundle: special characteristic, price, and other
    characteristics for each of the J products."""

    x1: np.ndarray  # (J,)
    p: np.ndarray  # (J,)
    x2: np.ndarray  # (J, d2); d2 may be zero

    def __post_init__(self):
        object.__setattr__(self, "x1", _frozen(self.x1, ndim=1))
        object.__setattr__(self, "p", _frozen(self.p, ndim=1))
        x2 = np.array(self.x2, dtype=float)
        if x2.ndim == 1:
            x2 = x2.reshape(len(self.x1), -1) if x2.size else x2.reshape(len(self.x1), 0)
        if x2.ndim != 2:
            raise ConfigError(f"x2 must be a J x d2 matrix, got shape {x2.shape}")
        x2.setflags(write=False)
        object.__setattr__(self, "x2", x2)
        if not (len(self.x1) == len(self.p) == self.x2.shape[0]):
            raise ConfigError(
                f"inconsistent bundle dimensions: x1 {self.x1.shape}, "
                f"p {self.p.shape}, x2 {self.x2.shape}"
            )

    @property
    def J(self) -> int:
        return len(self.x1)

    def replace(self, x1=None, p=None, x2=None) -> "Bundle":
        return Bundle(
            self.x1 if x1 is None else x1,
            self.p if p is None else p,
            self.x2 if x2 is None else x2,
        )


@dataclass(frozen=True)
class Bundles:
    """The bundles of n markets stacked as arrays: x1 and p (n, J), x2
    (n, J, d2). The share kernel reads p and x2 from it as from a Bundle,
    one market per row; an int index gives one market's as (J,) arrays."""

    x1: np.ndarray
    p: np.ndarray
    x2: np.ndarray

    @classmethod
    def repeat(cls, a: "Bundle | Bundles", n: int) -> "Bundles":
        """One bundle a, a Bundle or one row of a Bundles, in each of n
        markets (read-only broadcast views)."""
        return cls(*(np.broadcast_to(v, (n,) + v.shape) for v in (a.x1, a.p, a.x2)))

    def __getitem__(self, rows) -> "Bundles":
        return Bundles(self.x1[rows], self.p[rows], self.x2[rows])

    def replace(self, x1=None, p=None, x2=None) -> "Bundles":
        return Bundles(self.x1 if x1 is None else x1, self.p if p is None else p,
                       self.x2 if x2 is None else x2)


@dataclass
class Check:
    """A named measured value and the threshold it must meet: value <=
    threshold (op "<=") or value > threshold (op ">")."""

    name: str
    value: float
    threshold: float
    op: str  # "<=" or ">"

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.threshold
        if self.op == ">":
            return self.value > self.threshold
        raise ValueError(f"unknown comparison {self.op!r}")


def bundle(x1, p, x2=None) -> Bundle:
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if x2 is None:
        x2 = np.zeros((len(x1), 0))
    return Bundle(x1, p, x2)


_MIXING_KINDS = ("degenerate", "normal", "lognormal", "finite-mixture")


@dataclass(frozen=True)
class MixingSpec:
    """Distribution of the random coefficient vector beta.

    For dim-dimensional beta, entry 0 multiplies price (entering utility as
    -beta_0 * p) and entries 1..dim-1 multiply the leading columns of x2.
    `loc`/`scale` are per-dimension; lognormal applies exp() to the
    underlying normal coordinatewise. A finite mixture holds sub-specs with
    simplex weights.
    """

    kind: str
    loc: tuple = (0.0,)
    scale: tuple = (1.0,)
    weights: tuple = ()
    components: tuple = ()

    def __post_init__(self):
        if self.kind not in _MIXING_KINDS:
            raise ConfigError(f"unknown mixing kind: {self.kind!r}")
        object.__setattr__(self, "loc", tuple(float(v) for v in np.atleast_1d(self.loc)))
        object.__setattr__(
            self, "scale", tuple(float(v) for v in np.atleast_1d(self.scale))
        )
        if self.kind == "finite-mixture":
            if not self.components:
                raise ConfigError("finite-mixture requires components")
            w = np.asarray(self.weights, dtype=float)
            if len(w) != len(self.components) or np.any(w < 0) or abs(w.sum() - 1) > 1e-10:
                raise ConfigError("mixture weights must lie on the simplex")
            dims = {c.dim for c in self.components}
            if len(dims) != 1:
                raise ConfigError("mixture components must share a dimension")
        else:
            if len(self.loc) != len(self.scale):
                raise ConfigError("loc and scale must have equal length")
            if self.kind in ("normal", "lognormal") and any(s <= 0 for s in self.scale):
                raise ConfigError(f"{self.kind} mixing requires strictly positive scale")

    @property
    def dim(self) -> int:
        if self.kind == "finite-mixture":
            return self.components[0].dim
        return len(self.loc)


def degenerate(*beta) -> MixingSpec:
    return MixingSpec("degenerate", loc=beta, scale=(0.0,) * len(beta))


def normal_mixing(loc, scale) -> MixingSpec:
    return MixingSpec("normal", loc=loc, scale=scale)


def lognormal_mixing(loc, scale) -> MixingSpec:
    return MixingSpec("lognormal", loc=loc, scale=scale)


def finite_mixture(weights, components) -> MixingSpec:
    return MixingSpec(
        "finite-mixture", weights=tuple(float(w) for w in weights),
        components=tuple(components),
    )
