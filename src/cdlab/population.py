"""Simulable market populations with a deterministic seeded sampling contract.

Draw i depends only on (seed, i): each market gets its own counter-based
substream, so serial and parallel generation produce bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .demand import Integration, ShareMap, gauss_hermite, mixed_logit, shares_array
from .errors import ConfigError
from .types import Bundle, Bundles, MarketDraw, SharesVector, validate_share_rows


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative description of a population of markets.

    Types are indexed 0..K-1; each type has its own mixing distribution for
    the random price coefficient. Treatment is randomized by default, in
    which case the instruments equal the prices.
    """

    J: int
    market_count: int
    mixing_by_type: tuple  # tuple of MixingSpec, indexed by type tag
    type_probabilities: tuple
    price_law: laws.Law = field(default_factory=lambda: laws.uniform(0.5, 3.0))
    x1_law: laws.Law = field(default_factory=lambda: laws.constant(0.0))
    x2_dim: int = 0
    x2_law: laws.Law = field(default_factory=lambda: laws.constant(0.0))
    xi_law: laws.Law = field(default_factory=lambda: laws.normal(0.0, 1.0))
    instrument_law: laws.Law | None = None  # None: instruments equal prices
    gamma: tuple = ()
    integration: Integration = field(default_factory=gauss_hermite)
    seed: int = 0

    def __post_init__(self):
        if self.J < 1 or self.market_count < 0:
            raise ConfigError("require J >= 1 and market_count >= 0")
        probs = np.asarray(self.type_probabilities, dtype=float)
        if len(probs) != len(self.mixing_by_type):
            raise ConfigError("type_probabilities must match mixing_by_type")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-10:
            raise ConfigError("type_probabilities must sum to 1")
        object.__setattr__(self, "mixing_by_type", tuple(self.mixing_by_type))
        object.__setattr__(self, "type_probabilities", tuple(float(p) for p in probs))

    @property
    def n_types(self) -> int:
        return len(self.mixing_by_type)

    def share_map(self, zeta: int) -> ShareMap:
        return mixed_logit(self.mixing_by_type[zeta], gamma=self.gamma,
                           integration=self.integration)


def market_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based substream: pure function of (seed, key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _sample(spec: PopulationSpec, indices) -> list[MarketDraw]:
    """Draws of the markets `indices`: each market's latent state and bundle
    from its own substream, then the observed shares of all of them at once."""
    n, J, d2 = len(indices), spec.J, spec.x2_dim
    zeta = np.empty(n, dtype=int)
    xi, x1, p, z = (np.empty((n, J)) for _ in range(4))
    x2 = np.empty((n, J, d2))
    for k, i in enumerate(indices):
        rng = market_rng(spec.seed, i)
        zeta[k] = rng.choice(spec.n_types, p=spec.type_probabilities)
        xi[k] = spec.xi_law.sample(rng, J)
        x1[k] = spec.x1_law.sample(rng, J)
        p[k] = spec.price_law.sample(rng, J)
        x2[k] = spec.x2_law.sample(rng, J * d2).reshape(J, d2)
        z[k] = p[k] if spec.instrument_law is None else spec.instrument_law.sample(rng, J)
    xi.setflags(write=False)  # each MarketDraw holds a view of its row
    z.setflags(write=False)
    y = _outcomes(spec, zeta, xi, Bundles(x1, p, x2), ids=indices)
    return [MarketDraw(xi=xi[k], zeta=int(zeta[k]), y=SharesVector(y[k]),
                       a=Bundle(x1[k], p[k], x2[k]), z=z[k]) for k in range(n)]


def _outcomes(spec: PopulationSpec, zeta, xi: np.ndarray, a: Bundles,
              ids=None) -> np.ndarray:
    """Validated (n, J) shares of n markets with types zeta and shocks xi at
    their bundles a: one share-kernel call per type."""
    zeta = np.asarray(zeta)
    delta = a.x1 + xi
    y = np.empty(delta.shape)
    for t in range(spec.n_types):
        rows = np.flatnonzero(zeta == t)
        if len(rows):
            y[rows] = shares_array(spec.share_map(t), delta[rows], a[rows])
    return validate_share_rows(y, ids)


def sample_market(spec: PopulationSpec, index: int) -> MarketDraw:
    return _sample(spec, [index])[0]


def sample_population(spec: PopulationSpec) -> list[MarketDraw]:
    """market_count i.i.d. draws; bit-identical across repeated calls."""
    return _sample(spec, range(spec.market_count))


def true_counterfactuals(spec: PopulationSpec, xi, zeta, a: Bundle | Bundles) -> np.ndarray:
    """Potential outcomes of the markets with stacked shocks xi (n, J) and
    types zeta (n,) at bundle a, or at Bundles a, one row each: a validated
    (n, J) array."""
    xi = np.asarray(xi, dtype=float).reshape(len(zeta), spec.J)
    if isinstance(a, Bundle):
        a = Bundles.repeat(a, len(zeta))
    return _outcomes(spec, zeta, xi, a)


def potential_outcomes(spec: PopulationSpec, draws, a: Bundle | Bundles) -> np.ndarray:
    """:func:`true_counterfactuals` of the sampled markets `draws`, from their
    stored latent states: the batched truth of `verify_theorem1`."""
    return true_counterfactuals(spec, [d.xi for d in draws], [d.zeta for d in draws], a)


def true_counterfactual(spec: PopulationSpec, draw: MarketDraw, a: Bundle) -> SharesVector:
    """The market's potential outcome at bundle a, from its stored latent state."""
    return SharesVector(true_counterfactuals(spec, draw.xi[None, :], [draw.zeta], a)[0])
