"""cdlab's seeded substream format: every market's draws depend only on
(seed, key).

Each market gets its own counter-based substream, so serial and parallel
generation produce bit-identical output. :func:`market_streams` draws the
substreams of a whole batch of markets at once, in this format:

- Streams. Every word is a word of a Philox4x64-10 block (Salmon et al.,
  2011). The Philox key is the seed's two 64-bit words, low word first, so
  a seed lies in [0, 2**128). The substream of key (k1, ..., kl), at most
  two words in [0, 2**32), is the blocks of the counters (b, k1, k2, l) for
  b = 0, 1, ..., with absent key words 0: the key's length l keeps (i,)
  and (i, 0) apart.
- Calls. A batch holds one block counter b for all its streams. A draw of
  m words takes the next ceil(m / 4) whole blocks of every stream and moves
  b past them; the words of a block that a draw leaves unused are never
  drawn. A draw computes its blocks in one cipher pass over the batch,
  unless ``MarketStreams.reserve`` computed them earlier with the blocks of
  the draws before and after it: a sampler whose draws are known ahead
  reserves them all and makes one pass. A draw of no words makes none.
  Where a block was computed changes none of its words.
- Draws. A uniform is (w >> 11) * 2**-53 of a word w. A normal is
  Box-Muller on two words, sqrt(-2 log u1) cos(2 pi u2) with u1 in (0, 1].
  ``integers`` of k values, k at most 2**32, is the high word of the
  128-bit product w k. A permutation of x is the stable argsort of x
  words. Nothing is rejected, so every stream of a batch takes the same
  blocks.

Block b of a stream is ``Philox(key=seed words, counter=c - 1)``'s first
four raw words, for its counter c = (b, k1, k2, l) read as a 256-bit
integer: numpy's Philox moves its counter on before each block. NEP 19
keeps that output stable across numpy versions. Normals pass through
numpy's ``log`` and ``cos``, whose last bits can differ between hosts.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError


def check_seed(value, where: str = "seed") -> int:
    """A seed as an integer in [0, 2**128), the two 64-bit words of a Philox
    key; anything else is a ConfigError naming the value."""
    try:
        seed = operator.index(value)
    except TypeError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")
    if seed >> 128:
        raise ConfigError(f"{where} must be below 2**128, the Philox key's 128 bits, "
                          f"got {seed}")
    return seed


# Philox4x64-10: round multipliers and key increments (Salmon et al., 2011).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U32, _LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _U32
_MAX_KEY_WORDS = 2


def _mulhi(x: np.ndarray, m_lo, m_hi) -> np.ndarray:
    """The high words of the 128-bit products x * m of uint64 values, from
    their 32-bit halves; m is given as its halves m_lo and m_hi."""
    lo_x, hi_x = x & _LOW32, x >> _U32
    t = hi_x * m_lo + (lo_x * m_lo >> _U32)
    u = lo_x * m_hi + (t & _LOW32)
    return hi_x * m_hi + (t >> _U32) + (u >> _U32)


def _round_keys(seed: int) -> np.ndarray:
    """The keys (10, 2, 1) of Philox's ten rounds: the seed's two 64-bit
    words, low word first, moved on by (W0, W1) before each round but the
    first."""
    words = (seed & (2**64 - 1), seed >> 64)
    return np.array([[[(k + r * w) % 2**64] for k, w in zip(words, _PHILOX_W)]
                     for r in range(10)], dtype=np.uint64)


def _philox_blocks(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 under the round keys (10, 2, 1) of the counters (4, m):
    the blocks (m, 4) of 64-bit words.

    A round maps (v0, v1, v2, v3) to (hi1 ^ v1 ^ k0, lo1, hi0 ^ v3 ^ k1,
    lo0), where (hi0, lo0) and (hi1, lo1) are the 128-bit products of v0 and
    v2 by the two multipliers, held here as rows 0 and 1 of (v0, v2). Each
    round is :func:`_mulhi` run in place, in buffers made once per call: the
    32-bit halves h of (v0, v2), their products a and b by the multipliers'
    halves, and the partial sums t and u, which take a's memory."""
    even, odd = counters[[0, 2]], counters[[1, 3]]
    h, a, b = (np.empty((2,) + even.shape, dtype=np.uint64) for _ in range(3))
    (lo, hi), (t, u), (b_lo, b_hi) = h, a, b
    high_words = b_hi[::-1]  # (hi1, hi0)
    for k in keys:
        np.bitwise_and(even, _LOW32, out=lo)
        np.right_shift(even, _U32, out=hi)
        np.multiply(h, _M_LO, out=a)
        np.multiply(h, _M_HI, out=b)
        t >>= _U32
        t += u  # hi m_lo + (lo m_lo >> 32)
        np.bitwise_and(t, _LOW32, out=u)
        u += b_lo  # lo m_hi + (t & LOW32)
        a >>= _U32
        b_hi += t
        b_hi += u  # the high words (hi0, hi1)
        odd ^= high_words
        odd ^= k
        even *= _PHILOX_M  # the low words (lo0, lo1)
        even, odd = odd, even[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=1)


def draw_blocks(words: int) -> int:
    """The whole blocks of every stream that a draw of `words` words per
    stream takes: ceil(words / 4)."""
    return -(-words // 4)


def _unit(w: np.ndarray) -> np.ndarray:
    return (w >> np.uint64(11)) * 2.0**-53


class MarketStreams:
    """n substreams drawn together, one row of every draw per stream.

    The methods have the names and arguments of numpy's random methods that
    cdlab calls, each with a leading market axis: ``random``, ``uniform``,
    ``standard_normal`` and ``normal`` with a size of None or an int give
    (n,) or (n, size), ``integers(low, high, size)`` gives int64 values in
    the same shapes, and ``permutation(x)`` of an int x gives (n, x). Their
    draws are this module's format. Made by :func:`market_streams`.
    """

    def __init__(self, keys: np.ndarray, counters: np.ndarray):
        self._keys = keys  # (10, 2, 1): the round keys of the seed
        self._counters = counters  # (4, n): each stream's counter at block 0
        self._block = 0  # the next block of every stream
        self._reserved = range(0)  # the blocks whose words _reserved_words holds
        self._reserved_words = np.empty((counters.shape[1], 0), dtype=np.uint64)

    def reserve(self, blocks: int) -> None:
        """Compute the next `blocks` blocks of every stream in one cipher
        pass. The draws that follow take their blocks from these while they
        last; a draw they cannot cover computes its own. The words are the
        same either way, so a reservation changes no draw, only the number
        of cipher passes."""
        self._reserved = range(self._block, self._block + blocks)
        self._reserved_words = self._blocks(self._block, blocks)

    def _blocks(self, start: int, count: int) -> np.ndarray:
        """The words (n, 4 count) of blocks start, ..., start + count - 1 of
        every stream, from one cipher pass, or none when there are no words."""
        n = self._counters.shape[1]
        if not count * n:
            return np.empty((n, 4 * count), dtype=np.uint64)
        counters = np.repeat(self._counters, count, axis=1)
        counters[0] = np.tile(np.arange(start, start + count, dtype=np.uint64), n)
        return _philox_blocks(self._keys, counters).reshape(n, 4 * count)

    def _words(self, size, per_value: int = 1) -> np.ndarray:
        """per_value words for each value of shape `size` in each stream:
        (per_value, n, *shape), value j taking words per_value j, ... of its
        stream, from the next whole blocks of all streams: the reserved
        ones when they cover the draw."""
        shape = () if size is None else (operator.index(size),)
        m = per_value * int(np.prod(shape))
        nb = draw_blocks(m)
        if self._block + nb <= self._reserved.stop:
            at = 4 * (self._block - self._reserved.start)
            words = self._reserved_words[:, at:at + m]
        else:
            words = self._blocks(self._block, nb)[:, :m]
        self._block += nb
        return np.moveaxis(words.reshape(len(words), *shape, per_value), -1, 0)

    def random(self, size=None) -> np.ndarray:
        """(w >> 11) * 2**-53, in [0, 1)."""
        return _unit(self._words(size)[0])

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        """low + (high - low) * random."""
        return low + (high - low) * self.random(size)

    def standard_normal(self, size=None) -> np.ndarray:
        """Box-Muller on two words: sqrt(-2 log u1) cos(2 pi u2), with u1 =
        ((w1 >> 11) + 1) 2**-53 in (0, 1] and u2 = random of w2."""
        w1, w2 = self._words(size, 2)
        u1 = _unit(w1) + 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * _unit(w2))

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        """loc + scale * standard_normal."""
        return loc + scale * self.standard_normal(size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        """int64 values in [low, high), or [0, low) without high: low plus
        the high word of the 128-bit product w k, for k = high - low values
        (Lemire, 2019, without the rejection step). k must lie in [1, 2**32]:
        each value then takes floor or ceil of 2**64 / k of the 2**64 words,
        so its probability is 1/k within 2**-32 relative."""
        low, high = (0, low) if high is None else (low, high)
        k = operator.index(high) - operator.index(low)
        if not 0 < k <= 2**32:
            raise ConfigError(f"integers needs 1 to 2**32 values, got high - low = {k}")
        w = self._words(size)[0]
        return low + _mulhi(w, np.uint64(k & 0xFFFFFFFF), np.uint64(k >> 32)).astype(np.int64)

    def permutation(self, x: int) -> np.ndarray:
        """A permutation of arange(x) per stream: the stable argsort of x
        words."""
        return np.argsort(self._words(x)[0], axis=1, kind="stable")


def block_keys(blocks, j: int) -> np.ndarray:
    """The two-word keys (b, j) of the blocks b: substream j of each block."""
    return np.column_stack([blocks, np.full(len(blocks), j)])


def market_streams(seed: int, keys) -> MarketStreams:
    """One independent counter-based substream per key, a pure function of
    (seed, key), drawn for all keys at once in the format of this module.

    keys is an (n,) array of one-word keys or an (n, k) array of k-word
    keys, k at most 2; every word lies in [0, 2**32). The seed lies in
    [0, 2**128). Both are checked here.
    """
    seed = check_seed(seed)
    keys = np.asarray(keys)
    if keys.ndim == 1:
        keys = keys[:, None]
    if keys.ndim != 2 or keys.shape[1] > _MAX_KEY_WORDS:
        raise ConfigError(f"keys must be an (n,) or (n, k) array with k <= {_MAX_KEY_WORDS}, "
                          f"got shape {keys.shape}")
    if keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() >> 32):
        bad = next(v for v in keys.flat
                   if not isinstance(v, (int, np.integer)) or not 0 <= v < 2**32)
        raise ConfigError(f"substream key words must be integers in [0, 2**32), got {bad}")
    n, width = keys.shape
    counters = np.zeros((4, n), dtype=np.uint64)
    counters[1:1 + width] = keys.T
    counters[3] = width
    return MarketStreams(_round_keys(seed), counters)
