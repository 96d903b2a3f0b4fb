"""Small declarative sampling laws used by population specs.

Each law is a pure description; sampling takes an explicit Generator so the
caller controls the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Law:
    """A scalar sampling law, applied i.i.d. across products.

    kinds:
      constant(value)        -- degenerate at `value`
      uniform(lo, hi)        -- continuous uniform
      normal(loc, scale)     -- Gaussian
      choice(values, probs)  -- finite support
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("constant", "uniform", "normal", "choice"):
            raise ConfigError(f"unknown law kind: {self.kind!r}")
        if self.kind == "uniform" and not self.params["lo"] < self.params["hi"]:
            raise ConfigError("uniform law requires lo < hi")
        if self.kind == "normal" and self.params["scale"] < 0:
            raise ConfigError("normal law requires scale >= 0")
        if self.kind == "choice":
            probs = np.asarray(self.params["probs"], dtype=float)
            if probs.ndim != 1 or len(probs) != len(self.params["values"]):
                raise ConfigError("choice law: probs must match values")
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-10:
                raise ConfigError("choice law: probs must lie on the simplex")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, float(self.params["value"]))
        if self.kind == "uniform":
            return rng.uniform(self.params["lo"], self.params["hi"], size)
        if self.kind == "normal":
            return self.params["loc"] + self.params["scale"] * rng.standard_normal(size)
        # choice
        values = np.asarray(self.params["values"], dtype=float)
        return values[categorical(self.params["probs"])(rng, size)]


def categorical(probs):
    """``draw(rng, size=None)``: rng.choice(len(probs), size, p=probs) bit
    for bit, leaving the stream where it does, from a CDF built once here
    and without rng.choice's checks, which the caller makes."""
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    return lambda rng, size=None: cdf.searchsorted(rng.random(size), side="right")


def constant(value: float) -> Law:
    return Law("constant", {"value": float(value)})


def uniform(lo: float, hi: float) -> Law:
    return Law("uniform", {"lo": float(lo), "hi": float(hi)})


def normal(loc: float, scale: float) -> Law:
    return Law("normal", {"loc": float(loc), "scale": float(scale)})


def choice(values, probs) -> Law:
    return Law("choice", {"values": tuple(float(v) for v in values),
                          "probs": tuple(float(p) for p in probs)})
