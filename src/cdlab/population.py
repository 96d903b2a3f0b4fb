"""Simulable market populations with a deterministic seeded sampling contract.

A sampled population is one `Population` of read-only arrays, one market
per row, and its potential outcomes at any bundle come from
:func:`true_counterfactuals` on all markets at once.

Draw i depends only on (seed, i): each market gets its own counter-based
substream, so serial and parallel generation produce bit-identical output.
:func:`market_streams` draws the substreams of a whole batch of markets at
once, from keys to words to draws, with a fallback:

- Keys. The substream of key (i, ...) is Philox keyed by
  ``SeedSequence(seed, spawn_key=(i, ...))``. Philox is counter-based, so
  the stream is its 128-bit key alone. The keys of a batch come from
  numpy's own ``SeedSequence(seed)`` pool, then the rest of its entropy
  hash, one uint32 step per key word, vectorized over the batch (the hash
  constants do not depend on the data).
- Words. Word w of a stream is word w % 4 of the Philox4x64-10 block of
  counter w // 4 + 1 (Salmon et al., 2011), as numpy's Philox numbers
  them. A draw computes the blocks of all streams in one numpy pass, with
  the 128-bit products from 32-bit halves.
- Draws. Each method turns words into values as numpy's Generator does: a
  uniform from the top 53 bits of a word, a normal from the one-word fast
  branch of numpy's ziggurat (its tables are :mod:`cdlab.ziggurat`),
  permutations and bounded integers from uint32 halves, low half first,
  with rejections.
- Fallback. A stream whose draw leaves a fast branch (the ziggurat's slow
  branch, about 1.5 % of normals; rejections that use up the words drawn
  for them; an ``integers`` range of 2**32 - 1 values or more) continues on
  a numpy Generator placed at the word where that call began, and makes the
  rest of its draws there.

The keys and words are numpy's bit for bit, and NEP 19 keeps
``SeedSequence`` and Philox output stable across numpy versions. It does
not freeze the Generator's algorithms; the tests check the draws against
the installed numpy's Generator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import laws
from .demand import Integration, ShareMap, gauss_hermite, mixed_logit, shares_array
from .errors import ConfigError
from .types import Bundle, Bundles, validate_share_rows
from .ziggurat import KI, WI


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


def _stream_keys(seed, keys) -> np.ndarray:
    """The checked Philox keys (n, 2) of the substreams of (seed, key) for
    the rows of keys, an (n,) array of one-word keys or an (n, k) array of
    k-word keys, every word in [0, 2**32)."""
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
    return _philox_keys(seed, keys.astype(np.uint32))


def _philox_at(key: np.ndarray, word: int = 0, half: int = -1) -> np.random.Generator:
    """The numpy Generator of the Philox stream with key `key` (2,), placed
    at word `word` of the stream with the pending uint32 half `half` (-1 for
    none). Philox computes block b of 4 words from counter b + 1, so counter
    word // 4 starts at the block of that word."""
    bits = np.random.Philox(_PhiloxKey(key), counter=np.array([word // 4, 0, 0, 0], np.uint64))
    if word % 4:
        bits.random_raw(int(word % 4))
    if half >= 0:
        state = bits.state
        state["has_uint32"], state["uinteger"] = 1, int(half)
        bits.state = state
    return np.random.Generator(bits)


def market_rng(seed: int, *key: int) -> np.random.Generator:
    """The substream of (seed, key) as a numpy Generator:
    ``Generator(Philox(SeedSequence(seed, spawn_key=key)))`` bit for bit."""
    return _philox_at(_stream_keys(seed, [key])[0])


# Philox4x64-10: round multipliers and key increments (Salmon et al., 2011).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_U32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _U32


def _philox_blocks(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counters (c, 0, 0, 0) under the keys (2, m),
    for the uint64 counters c (m,): the blocks (m, 4) of 64-bit words.

    A round maps (v0, v1, v2, v3) to (hi1 ^ v1 ^ k0, lo1, hi0 ^ v3 ^ k1,
    lo0), where (hi0, lo0) and (hi1, lo1) are the 128-bit products of v0 and
    v2 by the two multipliers; both products come from 32-bit halves, as
    rows 0 and 1 of (v0, v2), and the key (k0, k1) moves on by (W0, W1)
    before each round but the first."""
    even = np.zeros((2, len(counters)), dtype=np.uint64)  # v0, v2
    even[0] = counters
    odd = np.zeros_like(even)  # v1, v3
    k = keys.copy()
    for r in range(10):
        if r:
            k += _PHILOX_W
        lo_x, hi_x = even & _LOW32, even >> _U32
        ll = lo_x * _M_LO
        t = hi_x * _M_LO + (ll >> _U32)
        u = lo_x * _M_HI + (t & _LOW32)
        hi = hi_x * _M_HI + (t >> _U32) + (u >> _U32)
        even, odd = hi[::-1] ^ odd ^ k, even * _PHILOX_M
        odd = odd[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=1)


class MarketStreams:
    """n substreams drawn together: row i of each draw is what the numpy
    Generator of stream i returns for the same sequence of calls.

    The methods are the Generator methods cdlab calls, each with a leading
    market axis: ``random``, ``uniform``, ``standard_normal`` and ``normal``
    with a size of None or an int give (n,) or (n, size), ``integers(low,
    high, size)`` gives int64 values in the same shapes, and
    ``permutation(x)`` of an int x gives (n, x). Made by
    :func:`market_streams`.
    """

    def __init__(self, keys: np.ndarray):
        n = len(keys)
        self._n = n
        # The streams still drawn here: their rows, Philox keys (2, r), next
        # words and pending uint32 halves (-1 for none), and the block of
        # each next word when the last draw stopped inside it (None: no
        # such blocks are held).
        self._rows = np.arange(n)
        self._keys = np.ascontiguousarray(keys.T)
        self._word = np.zeros(n, dtype=np.int64)
        self._half = np.full(n, -1, dtype=np.int64)
        self._block = None
        self._handed: dict[int, np.random.Generator] = {}  # row -> its Generator

    def _words(self, m: int) -> np.ndarray:
        """The next m words of each stream drawn here, (r, m), moving on by
        m. The blocks come from one Philox pass over all streams, except the
        block a stream's last draw stopped inside: that one is held, as
        numpy's Philox holds it."""
        word, r = self._word, len(self._word)
        if not (r and m):
            return np.empty((r, m), dtype=np.uint64)
        first, off = word // 4, word % 4
        nb = (int(off.max()) + m + 3) // 4
        blocks = np.empty((r, nb, 4), dtype=np.uint64)
        fresh = np.ones((r, nb), dtype=bool)
        if self._block is not None:
            blocks[:, 0] = self._block
            fresh[:, 0] = off == 0
        if fresh.any():
            counters = first[:, None] + np.arange(1, nb + 1)
            blocks[fresh] = _philox_blocks(np.repeat(self._keys, nb, axis=1)[:, fresh.ravel()],
                                           counters[fresh].astype(np.uint64))
        blocks = blocks.reshape(r, 4 * nb)
        self._word = word + m
        held = np.minimum(self._word // 4 - first, nb - 1)  # unused when a block ends
        self._block = np.take_along_axis(blocks, 4 * held[:, None] + np.arange(4), axis=1)
        return np.take_along_axis(blocks, off[:, None] + np.arange(m), axis=1)

    def _draw(self, call, shape: tuple, fast=None, dtype=float) -> np.ndarray:
        """Out (n, *shape): the streams drawn here take fast(m), for m =
        prod(shape) values each, which returns the values (r, m) and whether
        each stream kept to its fast branch. A stream that did not, and every
        stream when fast is None, continues on a numpy Generator placed where
        the call began, and call(generator) draws its row."""
        out = np.empty((self._n, *shape), dtype=dtype)
        word, half = self._word, self._half
        ok = np.zeros(len(word), dtype=bool)
        if fast is not None:
            values, ok = fast(int(np.prod(shape)))
            ok = np.broadcast_to(ok, len(word))
            out[self._rows[ok]] = values.reshape(len(word), *shape)[ok]
        if not ok.all():
            for j in np.flatnonzero(~ok):
                self._handed[int(self._rows[j])] = _philox_at(self._keys[:, j], word[j], half[j])
            self._rows, self._keys = self._rows[ok], self._keys[:, ok]
            self._word, self._half = self._word[ok], self._half[ok]
            self._block = None if self._block is None else self._block[ok]
        for row, rng in self._handed.items():
            out[row] = call(rng)
        return out

    def _unit(self, m: int) -> np.ndarray:
        return (self._words(m) >> np.uint64(11)) * 2.0**-53

    def _gauss(self, m: int):
        """The ziggurat's one-word branch: layer idx from the low byte, the
        sign from the next bit, a 52-bit magnitude scaled by WI[idx] and
        kept below KI[idx]; anything else is the slow branch."""
        w = self._words(m)
        idx = (w & np.uint64(0xFF)).astype(np.intp)
        rabs = (w >> np.uint64(9)) & np.uint64(0xFFFFFFFFFFFFF)
        z = rabs * WI[idx]
        return np.where(w & np.uint64(0x100), -z, z), (rabs < KI[idx]).all(axis=1)

    def random(self, size=None) -> np.ndarray:
        """(word >> 11) * 2**-53."""
        return self._draw(lambda rng: rng.random(size), _shape(size),
                          lambda m: (self._unit(m), True))

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        """low + (high - low) * ((word >> 11) * 2**-53)."""
        return self._draw(lambda rng: rng.uniform(low, high, size), _shape(size),
                          lambda m: (low + (high - low) * self._unit(m), True))

    def standard_normal(self, size=None) -> np.ndarray:
        """The ziggurat's one-word branch, else numpy's."""
        return self._draw(lambda rng: rng.standard_normal(size), _shape(size), self._gauss)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        """loc + scale * standard_normal."""
        def fast(m):
            z, ok = self._gauss(m)
            return loc + scale * z, ok
        return self._draw(lambda rng: rng.normal(loc, scale, size), _shape(size), fast)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        """numpy's int64 integers(low, high), for k = high - low values:
        below 2**32 - 1 of them, Lemire's bounded draw on uint32 halves
        (Lemire, 2019), which keeps the first half h with h * k mod 2**32 at
        least (2**32 - k) % k and returns low + (h * k >> 32); above that,
        numpy's own."""
        low, high = (0, low) if high is None else (low, high)
        k = operator.index(high) - operator.index(low)
        threshold = (_MASK32 + 1 - k) % k if k > 0 else 0

        def lemire(h):
            m = h.astype(np.uint64) * np.uint64(k)
            return low + (m >> _U32).astype(np.int64), m & _LOW32 >= threshold

        def fast(m):
            if k == 1:  # one value: numpy draws nothing
                return np.full((len(self._word), m), low), True
            return self._halves([lemire] * m)
        return self._draw(lambda rng: rng.integers(low, high, size), _shape(size),
                          fast if 1 <= k < _MASK32 else None, dtype=np.int64)

    def permutation(self, x: int) -> np.ndarray:
        """A permutation of arange(x) per stream, as numpy shuffles it: for i
        from x - 1 down to 1, swap entries i and j, where j is the first
        uint32 half, masked to the bit width of i, that is at most i."""
        def fast(m):
            steps = range(x - 1, 0, -1)
            js, ok = self._halves([_masked(i) for i in steps])
            out = np.tile(np.arange(x), (len(js), 1))
            at = np.arange(len(js))
            for j, i in zip(js.T, steps):
                j = np.minimum(j, i)  # a stream that left the fast branch may hold any j
                out[at, i], out[at, j] = out[at, j], out[at, i]
            return out, ok
        return self._draw(lambda rng: rng.permutation(x), (x,), fast, dtype=np.int64)

    def _halves(self, tests):
        """The values (r, len(tests)) that the uint32 halves of each stream
        give under tests, in turn: test(h) maps halves h to values and
        whether each is kept, and each test takes the first half it keeps.
        The halves are the pending one, then the low and high halves of each
        word, as numpy's next_uint32 hands them out. A stream whose
        rejections use up the len(tests) + 1 words drawn for it leaves the
        fast branch."""
        r = len(self._word)
        values = np.zeros((r, len(tests)), dtype=np.int64)
        if not (r and tests):
            return values, True
        word, at = self._word, np.arange(r)
        words = self._words(len(tests) + 1).astype("<u8").view("<u4")
        halves = np.hstack([self._half[:, None], words])
        last = halves.shape[1] - 1
        cursor = (self._half < 0).astype(np.intp)
        ok = np.ones(r, dtype=bool)
        for t, test in enumerate(tests):
            ok &= cursor <= last
            cursor = np.minimum(cursor, last)
            v, kept = test(halves[at, cursor])
            redo = np.flatnonzero(~kept & (cursor < last))
            while len(redo):
                cursor[redo] += 1
                v[redo], kept[redo] = test(halves[redo, cursor[redo]])
                redo = redo[~kept[redo] & (cursor[redo] < last)]
            ok &= kept
            values[:, t] = v
            cursor += 1
        used = cursor - 1  # halves of words used
        self._word = word + (used + 1) // 2
        self._half = np.full(r, -1, dtype=np.int64)
        odd = ok & (used % 2 == 1)  # the high half of the last word is pending
        self._half[odd] = halves[at[odd], cursor[odd]]
        self._block = None
        return values, ok


def _masked(i: int):
    """numpy's random_interval(i) test: a half masked to the bit width of i,
    kept when it is at most i."""
    mask = (1 << i.bit_length()) - 1
    return lambda h: (h & mask, (h & mask) <= i)


def _shape(size) -> tuple:
    return () if size is None else (operator.index(size),)


def block_keys(blocks, j: int) -> np.ndarray:
    """The two-word keys (b, j) of the blocks b: substream j of each block."""
    return np.column_stack([blocks, np.full(len(blocks), j)])


def market_streams(seed: int, keys) -> MarketStreams:
    """One independent counter-based substream per key, a pure function of
    (seed, key), drawn for all keys at once: row i of every draw is what
    ``Generator(Philox(SeedSequence(seed, spawn_key=key_i)))`` returns.

    keys is an (n,) array of one-word keys or an (n, k) array of k-word
    keys; every word lies in [0, 2**32). The seed is any non-negative integer,
    as for SeedSequence. Both are checked here.
    """
    return MarketStreams(_stream_keys(seed, keys))


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
    markets' in one batch, then the observed shares of all of them from one
    share-kernel call per type."""
    n, J, d2 = spec.market_count, spec.J, spec.x2_dim
    rng = market_streams(spec.seed, np.arange(n))
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
