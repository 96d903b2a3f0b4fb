"""Simulable market populations with a deterministic seeded sampling contract.

A sampled population is one `Population` of read-only arrays, one market
per row, and its potential outcomes at any bundle come from
:func:`true_counterfactuals` on all markets at once. Market i's draws come
from substream (i,) of the spec's seed, in the format of
:mod:`cdlab.streams`, so they depend only on (seed, i).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laws
from .demand import Integration, ShareMap, gauss_hermite, mixed_logit, shares_array
from .errors import ConfigError
from .streams import draw_blocks, market_streams
from .types import Bundle, Bundles, validate_share_rows


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

    def truth(self, pop: "Population", a: Bundle | Bundles) -> np.ndarray:
        """Potential outcomes (n, J) of the markets pop at a Bundle or Bundles a."""
        return true_counterfactuals(self, pop.xi, pop.zeta, a)


@dataclass(frozen=True)
class Population:
    """Sampled markets as read-only arrays, one market per row: types zeta
    (n,), shocks xi, shares y and instruments z (n, J), and bundles a.
    ``pop[rows]`` with a slice or an index array is a sub-population; an int
    index, and so iteration, is a TypeError. The samplers validate y, so
    construction checks nothing."""

    zeta: np.ndarray
    xi: np.ndarray
    y: np.ndarray
    a: Bundles
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.zeta)

    def __getitem__(self, rows) -> "Population":
        if isinstance(rows, (int, np.integer)):
            raise TypeError(f"index a Population with a slice or an index array, not {rows!r}")
        return Population.frozen(self.zeta[rows], self.xi[rows], self.y[rows],
                                 self.a[rows], self.z[rows])

    @classmethod
    def frozen(cls, zeta, xi, y, a: Bundles, z) -> "Population":
        """The Population of these arrays, each made read-only in place."""
        for v in (zeta, xi, y, a.x1, a.p, a.x2, z):
            v.setflags(write=False)
        return cls(zeta, xi, y, a, z)


def sample_population(spec: PopulationSpec) -> Population:
    """market_count i.i.d. draws; bit-identical across repeated calls. Each
    market's latent state and bundle come from its own substream, all
    markets' in one batch and one cipher pass, then the observed shares of
    all of them from one share-kernel call per type."""
    n, J, d2 = spec.market_count, spec.J, spec.x2_dim
    rng = market_streams(spec.seed, np.arange(n))
    instrument = () if spec.instrument_law is None else (spec.instrument_law,)
    rng.reserve(draw_blocks(1)  # the type takes one word
                + sum(law.blocks(J) for law in (spec.xi_law, spec.x1_law, spec.price_law,
                                                *instrument))
                + spec.x2_law.blocks(J * d2))
    zeta = laws.categorical(spec.type_probabilities)(rng)
    xi, x1, p, z = (np.empty((n, J)) for _ in range(4))
    x2 = np.empty((n, J * d2))
    # A constant law draws nothing and gives one row for every market.
    xi[:] = spec.xi_law.sample(rng, J)
    x1[:] = spec.x1_law.sample(rng, J)
    p[:] = spec.price_law.sample(rng, J)
    x2[:] = spec.x2_law.sample(rng, J * d2)
    z[:] = p if spec.instrument_law is None else spec.instrument_law.sample(rng, J)
    a = Bundles(x1, p, x2.reshape(n, J, d2))
    return Population.frozen(zeta, xi, _outcomes(spec, zeta, xi, a), a, z)


def _outcomes(spec: PopulationSpec, zeta, xi: np.ndarray, a: Bundles) -> np.ndarray:
    """Validated (n, J) shares of n markets with types zeta and shocks xi at
    their bundles a: one share-kernel call per type."""
    zeta = np.asarray(zeta)
    delta = a.x1 + xi
    y = np.empty(delta.shape)
    for t in range(spec.n_types):
        rows = np.flatnonzero(zeta == t)
        if len(rows):
            y[rows] = shares_array(spec.share_map(t), delta[rows], a[rows])
    return validate_share_rows(y)


def true_counterfactuals(spec: PopulationSpec, xi, zeta, a: Bundle | Bundles) -> np.ndarray:
    """Potential outcomes of the markets with stacked shocks xi (n, J) and
    types zeta (n,) at bundle a, or at Bundles a, one row each: a validated
    (n, J) array."""
    xi = np.asarray(xi, dtype=float).reshape(len(zeta), spec.J)
    if isinstance(a, Bundle):
        a = Bundles.repeat(a, len(zeta))
    return _outcomes(spec, zeta, xi, a)
