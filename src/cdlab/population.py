"""Simulable market populations with a deterministic seeded sampling contract.

Draw i depends only on (seed, i): each market gets its own counter-based
substream, so serial and parallel generation produce bit-identical output.

The substream of key (i, ...) is Philox keyed by
``SeedSequence(seed, spawn_key=(i, ...))``. Philox is counter-based, so the
stream is its 128-bit key alone, and :func:`market_rngs` derives the keys
of a whole batch at once: numpy's own ``SeedSequence(seed)`` pool, then the
rest of its entropy hash, one uint32 step per key word, vectorized over the
batch (the hash constants do not depend on the data). The result is bit
for bit numpy's, which keeps ``SeedSequence`` and Philox output stable
across numpy versions under its stream-compatibility policy for seeding and
bit generators (NEP 19).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def check_seed(value, where: str = "seed") -> int:
    """A seed as a non-negative integer of any size, as numpy's SeedSequence
    takes it; anything else is a ConfigError naming the value."""
    try:
        seed = operator.index(value)
    except TypeError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")
    return seed


_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # its entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # its state generation
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(h: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 successive hash constants h, h * mult, ... (mod 2**32)."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, _POOL)
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's default, as an array: cheaper to set


def _hashmix(value: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words against the constants c[:-1],
    each multiplied by its successor."""
    v = value ^ c[:-1]
    v *= c[1:]
    v ^= v >> _SHIFT
    return v


class _PhiloxKey(ISeedSequence):
    """A precomputed Philox key, handed to Philox as its seed sequence."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _philox_keys(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=k).generate_state(2, np.uint64)`` for
    each row k of the uint32 matrix keys (n, k), as an (n, 2) array.

    With a spawn key the entropy is the seed's words, zero-padded to the
    pool size, followed by the key words; the pool after the seed's words is
    that of ``SeedSequence(seed)``, and each key word then mixes into every
    pool word in one vectorized step.
    """
    n, k = keys.shape
    pool = np.random.SeedSequence(seed).pool
    words = max(_POOL, -(-max(seed.bit_length(), 1) // 32))
    used = _POOL * _POOL + _POOL * (words - _POOL)  # hash constants the seed took
    c = _hash_constants(_INIT_A * pow(_MULT_A, used, 1 << 32) & _MASK32, _MULT_A, _POOL * k)
    for j in range(k):
        mixed = _hashmix(keys[:, j, None], c[_POOL * j:_POOL * (j + 1) + 1])
        pool = pool * _MIX_L - mixed * _MIX_R
        pool ^= pool >> _SHIFT
    state = _hashmix(np.broadcast_to(pool, (n, _POOL)), _STATE_CONSTANTS)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def market_rngs(seed: int, keys) -> Iterator[np.random.Generator]:
    """One independent counter-based substream per key, a pure function of
    (seed, key): the Generator of ``Philox(SeedSequence(seed, spawn_key=key))``
    bit for bit.

    keys is an (n,) array of one-word keys or an (n, k) array of k-word
    keys; every word lies in [0, 2**32). The seed is any non-negative integer,
    as for SeedSequence. The keys are checked and derived at once; the
    Generators are built as the returned iterator reaches them, so a batch
    holds one at a time.
    """
    seed = check_seed(seed)
    keys = np.asarray(keys)
    if keys.ndim == 1:
        keys = keys[:, None]
    if keys.ndim != 2:
        raise ConfigError(f"keys must be an (n,) or (n, k) array, got shape {keys.shape}")
    if keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32):
        bad = next(v for v in keys.flat
                   if not isinstance(v, (int, np.integer)) or not 0 <= v <= _MASK32)
        raise ConfigError(f"substream key words must be integers in [0, 2**32), got {bad}")
    state = _philox_keys(seed, keys.astype(np.uint32))
    return (np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_ZERO_COUNTER))
            for key in state)


def market_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based substream: pure function of (seed, key)."""
    return next(market_rngs(seed, [key]))


def sample_population(spec: PopulationSpec) -> list[MarketDraw]:
    """market_count i.i.d. draws; bit-identical across repeated calls. Each
    market's latent state and bundle come from its own substream, then the
    observed shares of all of them from one share-kernel call per type."""
    n, J, d2 = spec.market_count, spec.J, spec.x2_dim
    zeta = np.empty(n, dtype=int)
    xi, x1, p, z = (np.empty((n, J)) for _ in range(4))
    x2 = np.empty((n, J, d2))
    for k, rng in enumerate(market_rngs(spec.seed, range(n))):
        zeta[k] = rng.choice(spec.n_types, p=spec.type_probabilities)
        xi[k] = spec.xi_law.sample(rng, J)
        x1[k] = spec.x1_law.sample(rng, J)
        p[k] = spec.price_law.sample(rng, J)
        x2[k] = spec.x2_law.sample(rng, J * d2).reshape(J, d2)
        z[k] = p[k] if spec.instrument_law is None else spec.instrument_law.sample(rng, J)
    xi.setflags(write=False)  # each MarketDraw holds a view of its row
    z.setflags(write=False)
    y = _outcomes(spec, zeta, xi, Bundles(x1, p, x2))
    return [MarketDraw(xi=xi[k], zeta=int(zeta[k]), y=SharesVector(y[k]),
                       a=Bundle(x1[k], p[k], x2[k]), z=z[k]) for k in range(n)]


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


def potential_outcomes(spec: PopulationSpec, draws, a: Bundle | Bundles) -> np.ndarray:
    """:func:`true_counterfactuals` of the sampled markets `draws`, from their
    stored latent states: the batched truth of `verify_theorem1`."""
    return true_counterfactuals(spec, [d.xi for d in draws], [d.zeta for d in draws], a)


def true_counterfactual(spec: PopulationSpec, draw: MarketDraw, a: Bundle) -> SharesVector:
    """The market's potential outcome at bundle a, from its stored latent state."""
    return SharesVector(true_counterfactuals(spec, draw.xi[None, :], [draw.zeta], a)[0])
