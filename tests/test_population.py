import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdlab
from cdlab import acceptance, demand, dgps, laws, streams
from cdlab import micro as mi
from cdlab.demand import monte_carlo, shares_array
from cdlab.errors import ConfigError, SimplexViolation
from cdlab.population import Population, PopulationSpec, sample_population, true_counterfactuals
from cdlab.streams import market_streams
from cdlab.types import Bundle, Bundles, bundle, lognormal_mixing, normal_mixing


def two_type_spec(n=50, seed=0, **kwargs):
    return PopulationSpec(
        J=1, market_count=n,
        mixing_by_type=(lognormal_mixing(0.0, 0.5), lognormal_mixing(-0.5, 2.0)),
        type_probabilities=(0.5, 0.5), seed=seed, **kwargs)


def test_spec_validation():
    with pytest.raises(ConfigError):
        two_type_spec().__class__(J=0, market_count=1,
                                  mixing_by_type=(lognormal_mixing(0, 1),),
                                  type_probabilities=(1.0,))
    with pytest.raises(ConfigError):
        PopulationSpec(J=1, market_count=1,
                       mixing_by_type=(lognormal_mixing(0, 1),),
                       type_probabilities=(0.4, 0.6))
    with pytest.raises(ConfigError):
        PopulationSpec(J=1, market_count=1,
                       mixing_by_type=(lognormal_mixing(0, 1),),
                       type_probabilities=(0.9,))


def test_sampling_is_bit_identical_across_calls():
    spec = two_type_spec(n=20, seed=5)
    a = sample_population(spec)
    b = sample_population(spec)
    for va, vb in ((a.zeta, b.zeta), (a.xi, b.xi), (a.a.p, b.a.p), (a.y, b.y)):
        np.testing.assert_array_equal(va, vb)


def test_market_draw_depends_only_on_seed_and_index():
    """Market i is the same regardless of how many other markets exist."""
    small = two_type_spec(n=5, seed=9)
    large = two_type_spec(n=50, seed=9)
    np.testing.assert_array_equal(sample_population(small).y, sample_population(large)[:5].y)


def test_population_rows_and_markets():
    """Slices and index arrays give read-only sub-populations; a market is
    the sub-population of one row."""
    spec = PopulationSpec(J=2, market_count=6, seed=3, x2_dim=1,
                          mixing_by_type=(lognormal_mixing(0.0, 0.5),),
                          type_probabilities=(1.0,))
    pop = sample_population(spec)
    assert isinstance(pop, Population) and len(pop) == 6
    assert pop.y.shape == pop.xi.shape == pop.z.shape == (6, 2) and pop.a.x2.shape == (6, 2, 1)
    for rows in (slice(1, 4), np.array([4, 0, 4]), [5]):
        sub = pop[rows]
        assert isinstance(sub, Population)
        np.testing.assert_array_equal(sub.xi, pop.xi[rows])
        np.testing.assert_array_equal(sub.a.x2, pop.a.x2[rows])
        for v in (sub.zeta, sub.xi, sub.y, sub.a.x1, sub.a.p, sub.a.x2, sub.z):
            assert not v.flags.writeable
    d = pop[4:5]
    assert len(d) == 1 and d.zeta[0] == pop.zeta[4]
    np.testing.assert_array_equal(d.y, pop.y[[4]])
    np.testing.assert_array_equal(d.a.x2, pop.a.x2[[4]])
    np.testing.assert_array_equal(pop[-1:].z, pop.z[[5]])


def test_int_index_and_iteration_are_type_errors():
    """An int index would drop the market axis, and iteration would never
    stop, since a slice past the end raises no IndexError."""
    pop = sample_population(two_type_spec(n=3))
    for i in (1, np.int64(1), -1):
        with pytest.raises(TypeError, match="slice or an index array"):
            pop[i]
    with pytest.raises(TypeError, match="slice or an index array"):
        list(pop)
    with pytest.raises(TypeError, match="slice or an index array"):
        for _ in pop:
            pass


# --- the substream format ------------------------------------------------------

WORD = 2**32 - 1
SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1]),
                  st.integers(0, 2**128 - 1))
KEY_WORDS = st.one_of(st.sampled_from([0, 1, WORD]), st.integers(0, WORD))
SIZES = st.one_of(st.none(), st.integers(0, 9))
# One call of each method the batch has: its name and arguments.
CALLS = st.one_of(
    st.tuples(st.just("random"), st.tuples(SIZES)),
    st.tuples(st.just("uniform"), st.tuples(st.just(-1.5), st.just(2.0), SIZES)),
    st.tuples(st.just("standard_normal"), st.tuples(SIZES)),
    st.tuples(st.just("normal"), st.tuples(st.just(0.3), st.just(0.8), SIZES)),
    st.tuples(st.just("permutation"), st.tuples(st.integers(0, 9))),
    st.tuples(st.just("integers"), st.tuples(st.integers(-3, 2), st.integers(3, 12), SIZES)),
    st.tuples(st.just("integers"), st.tuples(st.integers(1, 2**32), st.none(), SIZES)),
)


def philox_at(seed, key, b=0):
    """numpy's Philox placed at block b of the substream (seed, key). It
    moves its counter on before each block, so it starts from the counter
    (b, k1, k2, len(key)) less one, as a 256-bit integer."""
    k = list(key) + [0] * (2 - len(key))
    counter = b + (k[0] << 64) + (k[1] << 128) + (len(key) << 192)
    return np.random.Philox(key=np.array([seed % 2**64, seed >> 64], dtype=np.uint64),
                            counter=(counter - 1) % 2**256)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, 2**100 + 12345, 2**128 - 1])
@pytest.mark.parametrize("key", [(), (0,), (7,), (WORD,), (3, 1), (0, WORD)])
def test_raw_words_are_numpys_philox_blocks(seed, key):
    """Each call takes whole blocks, from the next block on: 3 words take
    block 0, 5 take blocks 1 and 2, and a normal's two words take block 3."""
    batch = market_streams(seed, [key])
    want = np.concatenate([philox_at(seed, key, b).random_raw(4) for b in range(4)])
    np.testing.assert_array_equal(batch._words(3)[0, 0], want[:3])
    np.testing.assert_array_equal(batch._words(5)[0, 0], want[4:9])
    np.testing.assert_array_equal(batch._words(None, 2)[:, 0], want[12:14])


def test_known_answers():
    """Pinned words and draws of a few (seed, key) pairs."""
    assert [hex(w) for w in market_streams(0, [0])._words(4)[0, 0]] == [
        "0xbcebd58167d0f31", "0x7834e0e0d3a96d3f", "0x956b8d281546d14f", "0xa7028ec2003149ea"]
    batch = market_streams(2**128 - 1, [[5, 6]])
    assert batch.random(2)[0].tolist() == [0.5107515620724346, 0.26281216533916374]
    # a normal passes through log and cos, whose last bits may differ by host
    assert batch.standard_normal()[0] == pytest.approx(1.1276387000272698, rel=1e-14)
    assert batch.integers(10, size=4)[0].tolist() == [0, 8, 2, 8]
    words = market_streams(0, [0])._words(4)[0, 0]  # 2**32 values: the high halves
    assert market_streams(0, [0]).integers(2**32, size=4)[0].tolist() == [w >> 32 for w in
                                                                        words.tolist()]
    assert batch.permutation(6)[0].tolist() == [1, 2, 0, 3, 4, 5]


def test_distinct_keys_and_seeds_give_distinct_streams():
    """The key's length is in the counter, so (i,) and (i, 0), and () and
    (0,), are distinct streams; so are seeds that differ in either word."""
    keys = [(), (0,), (0, 0), (1,), (1, 0), (0, 1)]
    first = {k: tuple(market_streams(5, [k])._words(4)[0, 0]) for k in keys}
    assert len(set(first.values())) == len(keys)
    seeds = [0, 1, 2**64, 2**64 + 1, 2**127]
    assert len({tuple(market_streams(s, [3])._words(4)[0, 0]) for s in seeds}) == len(seeds)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, width=st.integers(0, 2), n=st.integers(0, 60), data=st.data())
def test_row_i_depends_only_on_seed_and_key(seed, width, n, data):
    """Row i of every draw, for a random sequence of calls, is the same at n
    and n + 1 keys, in the batch of one, and after a permutation of the
    keys, down to the sign of zero."""
    keys = np.array(data.draw(st.lists(st.lists(KEY_WORDS, min_size=width, max_size=width),
                                       min_size=n + 1, max_size=n + 1)),
                    dtype=np.int64).reshape(n + 1, width)
    perm = np.random.default_rng(n).permutation(n)
    i = data.draw(st.integers(0, n))
    batches = [market_streams(seed, keys[:n]), market_streams(seed, keys),
               market_streams(seed, keys[i:i + 1]), market_streams(seed, keys[perm])]
    for name, args in data.draw(st.lists(CALLS, min_size=1, max_size=6)):
        short, full, one, permuted = (getattr(b, name)(*args) for b in batches)
        assert short.shape[0] == n and full.shape[0] == n + 1
        for got, want in ((short, full[:n]), (one, full[i:i + 1]), (permuted, full[perm])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"{name}{args}")
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 6), data=st.data())
def test_reserved_blocks_change_no_draw(seed, n, data):
    """Reserving 0 to (total + 3) blocks, before the first call or between
    calls, gives the draws of an unreserved batch, down to the sign of zero:
    a draw that the reservation cannot cover computes its own blocks."""
    calls = data.draw(st.lists(CALLS, min_size=1, max_size=6))
    plain = market_streams(seed, np.arange(n))
    want = [getattr(plain, name)(*args) for name, args in calls]
    total = plain._block  # the blocks that the calls take
    reserved = market_streams(seed, np.arange(n))
    for (name, args), w in zip(calls, want):
        if data.draw(st.booleans()):
            reserved.reserve(data.draw(st.integers(0, total + 3)))
        got = getattr(reserved, name)(*args)
        assert got.dtype == w.dtype
        np.testing.assert_array_equal(got, w, err_msg=f"{name}{args}")
        np.testing.assert_array_equal(np.signbit(got), np.signbit(w))


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**128 - 1])
def test_cipher_is_numpys_philox_on_one_large_batch(seed):
    """The in-place kernel on one batch of 10,016 counters: the 16 whose
    words are each all zero or all one bits, then random ones, against
    numpy's Philox4x64-10 block by block."""
    counters = np.random.default_rng(seed % 7).bit_generator.random_raw((4, 10_016))
    counters[:, :16] = np.array(list(itertools.product([0, 2**64 - 1], repeat=4)),
                                dtype=np.uint64).T
    key = np.array([seed % 2**64, seed >> 64], dtype=np.uint64)
    want = [np.random.Philox(key=key, counter=(sum(w << 64 * i for i, w in enumerate(c)) - 1)
                             % 2**256).random_raw(4) for c in counters.T.tolist()]
    np.testing.assert_array_equal(streams._philox_blocks(streams._round_keys(seed), counters),
                                  want)


def count_cipher_passes(monkeypatch) -> list:
    """The cipher's calls, one entry each, from here on."""
    passes, cipher = [], streams._philox_blocks
    monkeypatch.setattr(streams, "_philox_blocks", lambda *args: passes.append(1) or cipher(*args))
    return passes


def test_a_draw_of_no_words_runs_no_cipher_pass(monkeypatch):
    """No pass for a draw of no values, for a batch of no streams, or for a
    reservation of no blocks; the block counter still moves on as before."""
    passes = count_cipher_passes(monkeypatch)
    batch = market_streams(3, np.arange(4))
    batch.reserve(0)
    assert batch.standard_normal(0).shape == (4, 0) and batch.permutation(0).shape == (4, 0)
    assert batch.uniform(size=0).shape == (4, 0)
    assert laws.normal(0.0, 1.0).sample(batch, 0).shape == (4, 0)
    assert market_streams(3, np.arange(0)).normal(size=5).shape == (0, 5)
    assert passes == [] and batch._block == 0
    np.testing.assert_array_equal(batch.random(), market_streams(3, np.arange(4)).random())


def test_each_sampler_makes_one_cipher_pass(monkeypatch):
    """Population samplers whose draws are known ahead reserve their blocks
    once: one cipher pass each, with every reserved block drawn. A
    non-constant x2 law with no x2 columns reserves nothing for them."""
    passes = count_cipher_passes(monkeypatch)
    batches, reserve = [], streams.MarketStreams.reserve
    monkeypatch.setattr(streams.MarketStreams, "reserve",
                        lambda self, blocks: batches.append(self) or reserve(self, blocks))
    mixing = (lognormal_mixing(0.0, 0.5), normal_mixing((1.0, 0.5), (0.3, 0.2)))
    samplers = {
        "sample_population": lambda: sample_population(PopulationSpec(
            J=3, market_count=7, mixing_by_type=mixing, type_probabilities=(0.4, 0.6),
            x1_law=laws.choice((0.0, 1.0), (0.5, 0.5)), x2_dim=2, x2_law=laws.normal(0.0, 1.0),
            instrument_law=laws.uniform(0.0, 1.0), gamma=(0.2,), seed=5)),
        "sample_population, no x2 columns": lambda: sample_population(
            two_type_spec(n=6, x2_law=laws.uniform(-1.0, 1.0))),
        "sample_scaled_x1_population": lambda: dgps.sample_scaled_x1_population(
            dgps.ScaledX1Spec(market_count=6, seed=2)),
        "_pl_data": lambda: acceptance._pl_data(4, 9),
        "_pl_data without x2": lambda: acceptance._pl_data(4, 9, x2=False),
        "simulate_micro, iid": lambda: mi.simulate_micro(acceptance.micro_dgp(),
                                                         mi.MicroPopulationSpec(
            market_count=5, price_levels=(1.0, 2.0), w_grid=(-1.0, 0.0, 1.0),
            endogeneity=0.5, seed=1)),
    }
    for name, sample in samplers.items():
        passes.clear()
        batches.clear()
        sample()
        assert len(passes) == 1 and len(batches) == 1, name
        assert batches[0]._block == batches[0]._reserved.stop, name


@pytest.mark.parametrize("word", [0, 2**64 - 1])
def test_extreme_words_give_valid_draws(word, monkeypatch):
    """Words of all zero and all one bits give finite normals, integers in
    [low, high) and valid permutations."""
    batch = market_streams(0, np.arange(3))

    def words(size, per_value=1):
        shape = () if size is None else (size,)
        return np.full((per_value, 3, *shape), word, dtype=np.uint64)

    monkeypatch.setattr(batch, "_words", words)
    u = batch.random(4)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.all(np.isfinite(batch.standard_normal(4)))
    assert np.all(np.isfinite(batch.normal(1.0, 2.0, 4)))
    for low, high in ((0, 1), (0, 7), (-3, 5), (0, 2**32), (-2**31, 2**31)):
        got = batch.integers(low, high, 4)
        assert got.dtype == np.int64 and np.all((low <= got) & (got < high))
    for x in (1, 2, 9):
        assert np.array_equal(np.sort(batch.permutation(x), axis=1), np.tile(np.arange(x), (3, 1)))


def test_draws_follow_their_laws():
    """Moments and goodness of fit for every draw type, over 4,000 streams
    of one batch: uniforms and normals by Kolmogorov-Smirnov, integers,
    permutations and categorical draws by chi-square, each at p > 1e-4."""
    from scipy import stats

    n = 4000
    batch = market_streams(17, np.arange(n))
    u = batch.random(3)
    assert stats.kstest(u.ravel(), "uniform").pvalue > 1e-4
    assert abs(np.corrcoef(u[:, 0], u[:, 1])[0, 1]) < 0.05  # words of one block
    assert stats.kstest(batch.uniform(-1.5, 2.0, 2).ravel(), "uniform",
                        args=(-1.5, 3.5)).pvalue > 1e-4
    z = batch.standard_normal(5)
    assert stats.kstest(z.ravel(), "norm").pvalue > 1e-4
    assert abs(z.mean()) < 0.03 and abs(z.std() - 1.0) < 0.02
    assert stats.kstest(batch.normal(0.3, 0.8).ravel(), "norm", args=(0.3, 0.8)).pvalue > 1e-4
    for k in (2, 3, 7):
        counts = np.bincount(batch.integers(k, size=3).ravel(), minlength=k)
        assert stats.chisquare(counts).pvalue > 1e-4
    perm = batch.permutation(4)
    for column in perm.T:  # each position takes each value equally often
        assert stats.chisquare(np.bincount(column, minlength=4)).pvalue > 1e-4
    probs = (0.1, 0.2, 0.3, 0.4)
    counts = np.bincount(laws.categorical(probs)(batch, 2).ravel(), minlength=4)
    assert stats.chisquare(counts, 2 * n * np.array(probs)).pvalue > 1e-4


@pytest.mark.parametrize("seed,keys,named", [
    (-1, [1], "-1"), (1.5, [1], "1.5"), ("3", [1], "'3'"),
    (3, [-1], "-1"), (3, [2**32], "4294967296"), (3, [[1, 2**70]], str(2**70)),
    (3, [0.5], "0.5"), (2**128, [1], str(2**128)), (3, [[1, 2, 3]], r"\(1, 3\)"),
])
def test_market_streams_reject_bad_seeds_and_keys(seed, keys, named):
    with pytest.raises(ConfigError, match=named):
        market_streams(seed, keys)


@pytest.mark.parametrize("low,high", [(0, None), (3, 3), (5, 2), (0, 2**32 + 1), (0, 2**63)])
def test_integers_need_one_to_2_32_values(low, high):
    with pytest.raises(ConfigError, match="integers"):
        market_streams(0, [1]).integers(low, high)


def test_observed_shares_reconstruct_from_latent_state():
    """Each market's shares from its own share-kernel call, the batch of one."""
    spec = two_type_spec(n=10, seed=2)
    pop = sample_population(spec)
    for i, t in enumerate(pop.zeta):
        one = pop[i:i + 1]
        y = shares_array(spec.share_map(t), one.a.x1 + one.xi, one.a)
        np.testing.assert_array_equal(y, one.y)


def test_instruments_default_to_prices():
    pop = sample_population(two_type_spec(n=5))
    np.testing.assert_array_equal(pop.z, pop.a.p)


def test_instrument_law_overrides_prices():
    pop = sample_population(two_type_spec(n=5, instrument_law=laws.constant(7.0)))
    np.testing.assert_array_equal(pop.z, np.full((5, 1), 7.0))


def test_price_law_is_config_not_hard_coded():
    spec = two_type_spec(n=20, price_law=laws.uniform(10.0, 11.0))
    prices = sample_population(spec).a.p
    assert prices.min() >= 10.0 and prices.max() <= 11.0


def test_true_counterfactual_at_observed_bundle_is_observed_outcome():
    spec = two_type_spec(n=8, seed=3)
    pop = sample_population(spec)
    np.testing.assert_array_equal(true_counterfactuals(spec, pop.xi, pop.zeta, pop.a), pop.y)


def test_true_counterfactual_responds_to_price():
    spec = PopulationSpec(J=1, market_count=4,
                          mixing_by_type=(normal_mixing((1.0,), (0.1,)),),
                          type_probabilities=(1.0,), seed=0)
    pop = sample_population(spec)
    lo, hi = (true_counterfactuals(spec, pop.xi, pop.zeta, pop.a.replace(p=np.full((4, 1), p)))
              for p in (0.5, 3.0))
    assert np.all(lo > hi)  # demand slopes down


# --- batched sampling and truth against the per-market share map ------------

def _batch_specs():
    """J in {1, 2, 25}; two types; x2 with gamma and a random x2 coefficient;
    Monte Carlo integration."""
    return [
        two_type_spec(n=30, seed=4),
        PopulationSpec(J=2, market_count=25, seed=1, x2_dim=2, gamma=(0.3, -0.2),
                       x2_law=laws.uniform(-1.0, 1.0),
                       mixing_by_type=(normal_mixing((1.0, 0.5), (0.3, 0.2)),
                                       lognormal_mixing(0.0, 0.5)),
                       type_probabilities=(0.4, 0.6)),
        PopulationSpec(J=25, market_count=12, seed=2, x1_law=laws.constant(2.3),
                       mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                       type_probabilities=(1.0,)),
        PopulationSpec(J=3, market_count=20, seed=3, integration=monte_carlo(300, 5),
                       mixing_by_type=(lognormal_mixing(0.0, 0.5),
                                       lognormal_mixing(-0.5, 1.0)),
                       type_probabilities=(0.5, 0.5)),
    ]


@pytest.mark.parametrize("spec", _batch_specs())
@pytest.mark.parametrize("block", [None, 3])
def test_batched_sampling_and_truth_match_per_market_shares(spec, block, monkeypatch):
    """`block` shrinks the node-share blocks to 3 markets, so the batch runs
    through several blocks of the kernel."""
    if block is not None:
        M = len(demand.mixing_nodes(spec.mixing_by_type[0], spec.integration)[1])
        monkeypatch.setattr(demand, "MAX_BLOCK_ELEMENTS", block * M * spec.J)
    pop = sample_population(spec)
    assert len(set(pop.zeta.tolist())) == spec.n_types
    J, d2 = spec.J, spec.x2_dim
    target = Bundle(np.full(J, 0.1), np.linspace(0.8, 2.0, J), np.full((J, d2), 0.25))
    truth = true_counterfactuals(spec, pop.xi, pop.zeta, target)
    assert truth.shape == (len(pop), J)
    for i, row in enumerate(truth):
        one = pop[i:i + 1]
        m = spec.share_map(one.zeta[0])
        np.testing.assert_allclose(one.y, shares_array(m, one.a.x1 + one.xi, one.a),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose([row], shares_array(m, target.x1 + one.xi,
                                                       Bundles.repeat(target, 1)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(true_counterfactuals(spec, one.xi, one.zeta, target),
                                      [row])


TYPE_PROBABILITIES = [(1.0,), (0.5, 0.5), (0.4, 0.6), (0.999, 0.001),
                      (0.1, 0.2, 0.3, 0.4)]


@pytest.mark.parametrize("probs", TYPE_PROBABILITIES)
def test_type_draws_match_rng_choice_and_keep_the_stream_position(probs):
    """Reference: rng.choice(n_types, p=probs) of numpy's Generator on the
    Philox words of each market's substream, which searches the CDF for the
    uniforms of those words as the type draw does. The type draw takes
    block 0, so the shock law draws as it would after one `random()`. The
    choice law draws the same way, and its draws reach every type, the rare
    type of (0.999, 0.001) too."""
    from cdlab.dgps import ScaledX1Spec, sample_scaled_x1_population

    n = 1000
    spec = PopulationSpec(J=1, market_count=n, seed=11,
                          mixing_by_type=tuple(lognormal_mixing(0.0, 0.5) for _ in probs),
                          type_probabilities=probs)
    scaled = ScaledX1Spec(market_count=n, c_by_type=tuple(range(1, len(probs) + 1)),
                          type_probabilities=probs, seed=12)
    for s, pop in ((spec, sample_population(spec)),
                   (scaled, sample_scaled_x1_population(scaled))):
        for k in range(n):
            rng = np.random.Generator(philox_at(s.seed, (k,)))
            assert pop.zeta[k] == rng.choice(len(probs), p=probs)
        after = market_streams(s.seed, np.arange(n))
        after.random()
        np.testing.assert_array_equal(pop.xi, s.xi_law.sample(after, 1))
    values = 1.5 * np.arange(len(probs)) - 1.0
    law = laws.choice(values, probs)
    drawn = set()
    for size in (1, 4, 5, 40):
        batch, ref = market_streams(13, np.arange(n)), market_streams(13, np.arange(n))
        got, after = law.sample(batch, size), batch.standard_normal()
        ref.random(size)
        np.testing.assert_array_equal(after, ref.standard_normal())
        for k in range(n):
            rng = np.random.Generator(philox_at(13, (k,)))
            np.testing.assert_array_equal(got[k], values[rng.choice(len(probs), size, p=probs)])
        drawn.update(got.ravel().tolist())
    assert drawn == set(values.tolist())  # the 40 000 draws at size 40 reach every type


@pytest.mark.parametrize("probs", [(0.5, 0.6), (1.2, -0.2), (1.0,)])
def test_scaled_x1_spec_rejects_a_vector_that_is_no_type_distribution(probs):
    from cdlab.dgps import ScaledX1Spec

    with pytest.raises(ConfigError, match="type_probabilities"):
        ScaledX1Spec(market_count=1, type_probabilities=probs)


@pytest.mark.parametrize("n", [0, 1])
def test_batched_sampling_and_truth_at_zero_and_one_market(n):
    spec = two_type_spec(n=n, seed=6)
    pop = sample_population(spec)
    assert len(pop) == n
    assert pop.y.shape == pop.xi.shape == (n, 1) and pop.a.x2.shape == (n, 1, 0)
    a = bundle([0.0], [2.0])
    truth = true_counterfactuals(spec, pop.xi, pop.zeta, a)
    assert truth.shape == (n, 1)
    for i, row in enumerate(truth):
        one = pop[i:i + 1]
        np.testing.assert_array_equal(
            [row], shares_array(spec.share_map(one.zeta[0]), a.x1 + one.xi, Bundles.repeat(a, 1)))


def test_saturated_market_is_a_named_simplex_violation():
    spec = PopulationSpec(J=1, market_count=6, x1_law=laws.constant(500.0),
                          mixing_by_type=(lognormal_mixing(0.0, 0.5),),
                          type_probabilities=(1.0,))
    with pytest.raises(SimplexViolation, match="market 0:"):
        sample_population(spec)
    xi = np.array([[0.0], [0.5], [60.0], [0.2]])
    with pytest.raises(SimplexViolation, match="market 2:"):
        true_counterfactuals(spec, xi, np.zeros(4, dtype=int), bundle([0.0], [1.0]))


def numpy_random_uses(source: str) -> list[int]:
    """The lines of source that import numpy.random or reach it as an
    attribute of a name bound to numpy."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in aliases)
        if hit:
            lines.append(node.lineno)
    return lines


def test_numpy_random_uses_are_found():
    assert numpy_random_uses("import numpy as np\nrng = np.random.default_rng(0)\n") == [2]
    assert numpy_random_uses("import numpy\nnumpy.random.seed(1)\n") == [2]
    assert numpy_random_uses("from numpy.random import Generator\n") == [1]
    assert numpy_random_uses("from numpy import random\n") == [1]
    assert numpy_random_uses("import numpy.random as npr\n") == [1]
    assert numpy_random_uses("import numpy as np\nu = streams.random(3)\n") == []


def test_cdlab_draws_only_from_its_substream_format():
    """No module of cdlab uses numpy.random: every draw goes through
    `streams.market_streams`, whose format NEP 19 keeps stable."""
    root = Path(cdlab.__file__).parent
    found = {str(path.relative_to(root)): lines for path in sorted(root.rglob("*.py"))
             if (lines := numpy_random_uses(path.read_text()))}
    assert found == {}
