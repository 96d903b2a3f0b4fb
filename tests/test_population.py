import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import demand, laws, population
from cdlab.demand import monte_carlo, shares_array
from cdlab.errors import ConfigError, SimplexViolation
from cdlab.population import (
    Population,
    PopulationSpec,
    market_rng,
    market_streams,
    sample_population,
    true_counterfactuals,
)
from cdlab.types import Bundle, Bundles, bundle, lognormal_mixing, normal_mixing
from cdlab.ziggurat import KI


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


def test_market_rng_streams_are_distinct():
    a = market_rng(0, 1).standard_normal(4)
    b = market_rng(0, 2).standard_normal(4)
    c = market_rng(1, 1).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


WORD = 2**32 - 1
# Seeds of one to five uint32 words, each word count with its edge values.
SEEDS = st.one_of(st.sampled_from([0, 1, WORD, 2**32, 2**64 - 1, 2**64, 2**128, 2**160 - 1]),
                  st.integers(0, 2**160 - 1))
KEY_WORDS = st.one_of(st.sampled_from([0, 1, WORD]), st.integers(0, WORD))
SIZES = st.one_of(st.none(), st.integers(0, 4))
# One call of each Generator method the batch has: its name and arguments.
CALLS = st.one_of(
    st.tuples(st.just("random"), st.tuples(SIZES)),
    st.tuples(st.just("uniform"), st.tuples(st.just(-1.5), st.just(2.0), SIZES)),
    st.tuples(st.just("standard_normal"), st.tuples(SIZES)),
    st.tuples(st.just("normal"), st.tuples(st.just(0.3), st.just(0.8), SIZES)),
    st.tuples(st.just("permutation"), st.tuples(st.integers(0, 6))),
    st.tuples(st.just("integers"), st.tuples(st.integers(-3, 2), st.integers(3, 12), SIZES)),
    st.tuples(st.just("integers"), st.tuples(st.integers(1, 2**33), st.none(), SIZES)),
)


def _reference(seed, key) -> np.random.Generator:
    key = tuple(int(k) for k in np.atleast_1d(key))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _assert_calls_match(seed, keys, calls):
    """Each call on the batch of keys gives, row by row, what the per-key
    Generators give for the same sequence of calls, down to the sign of zero."""
    batch = market_streams(seed, keys)
    refs = [_reference(seed, k) for k in keys]
    for name, args in calls:
        got = getattr(batch, name)(*args)
        want = [getattr(r, name)(*args) for r in refs]
        assert got.shape[0] == len(keys)
        if want:
            want = np.array(want)
            assert got.dtype == want.dtype, (name, args)
            np.testing.assert_array_equal(got, want, err_msg=f"{name}{args}")
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, width=st.integers(1, 3), n=st.integers(0, 1000), data=st.data())
def test_market_streams_match_per_key_generators(seed, width, n, data):
    """Row i of every draw is the draw of Generator(Philox(SeedSequence(seed,
    spawn_key=key_i))), for a random sequence of the batch's six methods."""
    drawn = data.draw(st.lists(st.lists(KEY_WORDS, min_size=width, max_size=width),
                               min_size=min(n, 1), max_size=min(n, 5)))
    spread = np.random.default_rng(data.draw(st.integers(0, WORD))).integers(
        0, WORD, (n, width), endpoint=True)
    keys = np.concatenate([np.array(drawn, dtype=np.int64).reshape(-1, width), spread])[:n]
    _assert_calls_match(seed, keys, data.draw(st.lists(CALLS, min_size=1, max_size=6)))


def test_market_streams_fast_branches_and_fallbacks():
    """Normals over every ziggurat layer, the layer-0 tail and the slow
    branch; a permutation(4) and an integers draw that reject a half; a
    uint32 half carried from one call into the next, on the batch and across
    a hand-off to numpy's Generator; an empty batch."""
    n = 2000
    keys = np.arange(n)
    words = np.array([market_rng(17, k).bit_generator.random_raw(9) for k in keys])
    idx = (words[:, 1:] & 0xFF).astype(int)
    rabs = (words[:, 1:] >> 9) & (2**52 - 1)
    assert set(idx.ravel().tolist()) == set(range(256))
    assert np.any((idx == 0) & (rabs >= KI[0]))  # the tail
    assert np.any((idx > 0) & (rabs >= KI[idx]))  # the slow branch
    # permutation(2) takes the low half of word 0 and leaves its high half
    # pending through the normals, which hand some streams off, for
    # permutation(3) to take
    one = market_rng(17, 0)
    one.permutation(2)
    assert one.bit_generator.state["has_uint32"] == 1
    _assert_calls_match(17, keys, [("permutation", (2,)), ("standard_normal", (8,)),
                                   ("normal", (0.5, 2.0, None)), ("permutation", (3,))])

    # permutation(4) takes i = 3's index from the low half of word 0 and
    # i = 2's from its high half, which it rejects when its low bits are 3.
    # A half it leaves pending goes to permutation(2), and a half that one
    # leaves stays pending past random()'s word for permutation(5)
    assert np.any((words[:200, 0] >> 32) & 3 == 3)
    calls = [("permutation", (4,)), ("permutation", (2,)), ("random", (None,)),
             ("permutation", (5,)), ("uniform", (0.0, 1.0, 3))]
    _assert_calls_match(17, keys[:200], calls)
    # integers(k) keeps the half h when h * k mod 2**32 >= (2**32 - k) % k,
    # about half the time at k = 2**31 + 1
    k = 2**31 + 1
    assert np.any((words[:200, 0] & WORD) * k % 2**32 < (2**32 - k) % k)
    _assert_calls_match(17, keys[:200], [("integers", (k,)), ("integers", (-2, 5, 3)),
                                         ("integers", (1, None, 2)), ("permutation", (3,))])

    empty = market_streams(17, np.empty((0, 2), dtype=np.int64))
    for name, args, shape in [("random", (None,), (0,)), ("uniform", (0.0, 1.0, 3), (0, 3)),
                              ("standard_normal", (2,), (0, 2)), ("normal", (0.0, 1.0), (0,)),
                              ("permutation", (4,), (0, 4)), ("integers", (3,), (0,)),
                              ("integers", (2**40, None, 2), (0, 2))]:
        assert getattr(empty, name)(*args).shape == shape


def test_market_rng_is_the_batch_of_one():
    for key in [(), (7,), (3, 1), (0, WORD, 5)]:
        ref = _reference(11, key).random(4)
        np.testing.assert_array_equal(market_rng(11, *key).random(4), ref)
        np.testing.assert_array_equal(market_streams(11, [key]).random(4), [ref])
    assert market_streams(11, []).random(4).shape == (0, 4)


@pytest.mark.parametrize("seed,keys,named", [
    (-1, [1], "-1"), (1.5, [1], "1.5"), ("3", [1], "'3'"),
    (3, [-1], "-1"), (3, [2**32], "4294967296"), (3, [[1, 2**70]], str(2**70)),
    (3, [0.5], "0.5"),
])
def test_market_streams_reject_bad_seeds_and_keys(seed, keys, named):
    with pytest.raises(ConfigError, match=named):
        market_streams(seed, keys)


@pytest.mark.parametrize("xi_law", [laws.uniform(-1.0, 1.0), laws.normal(0.0, 1.0)])
def test_sampling_builds_a_numpy_philox_only_for_handed_off_streams(xi_law, monkeypatch):
    """Uniform laws stay on the batch's fast path; a normal hands a stream
    to a numpy Generator only when its word misses the ziggurat's one-word
    branch. The type draw takes word 0 and the shock word 1."""
    words = np.array([market_rng(21, k).bit_generator.random_raw(2)[1] for k in range(1000)])
    idx = (words & 0xFF).astype(int)
    slow = np.count_nonzero(((words >> 9) & (2**52 - 1)) >= KI[idx])
    assert 0 < slow < 50
    built = []

    def counted(*args):
        built.append(args)
        return philox_at(*args)

    philox_at = population._philox_at
    monkeypatch.setattr(population, "_philox_at", counted)
    sample_population(two_type_spec(n=1000, seed=21, xi_law=xi_law))
    assert len(built) == (0 if xi_law.kind == "uniform" else slow)


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
    """Reference: rng.choice(n_types, p=probs) on each market's substream,
    then the shock law, whose draw is equal only if the type draw left the
    stream where rng.choice leaves it. The choice law draws the same way."""
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
            rng = market_rng(s.seed, k)
            assert pop.zeta[k] == rng.choice(len(probs), p=probs)
            np.testing.assert_array_equal(pop.xi[k], s.xi_law.sample(rng, 1))
    values = 1.5 * np.arange(len(probs)) - 1.0
    law = laws.choice(values, probs)
    for size in (1, 2, 3):
        batch = market_streams(13, np.arange(n))
        got, after = law.sample(batch, size), batch.standard_normal()
        for k in range(n):
            ref = market_rng(13, k)
            np.testing.assert_array_equal(got[k], values[ref.choice(len(probs), size, p=probs)])
            assert after[k] == ref.standard_normal()


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
