import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import demand, laws
from cdlab.demand import monte_carlo, shares_array
from cdlab.errors import ConfigError, SimplexViolation
from cdlab.population import (
    Population,
    PopulationSpec,
    market_rng,
    market_rngs,
    sample_population,
    true_counterfactuals,
)
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


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, width=st.integers(1, 3), n=st.integers(1, 1000), data=st.data())
def test_market_rngs_match_seed_sequence(seed, width, n, data):
    """Each substream is Philox keyed by SeedSequence(seed, spawn_key=key):
    the same 128-bit key and the same first draws, at any batch size."""
    drawn = data.draw(st.lists(st.lists(KEY_WORDS, min_size=width, max_size=width),
                               min_size=1, max_size=min(n, 20)))
    keys = np.resize(np.array(drawn, dtype=np.int64), (n, width))  # repeats the drawn keys
    checked = sorted({0, n - 1, *data.draw(st.lists(st.integers(0, n - 1), max_size=5))})
    rngs = list(market_rngs(seed, keys))
    assert len(rngs) == n
    for i in checked:
        ref = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in keys[i]))
        got = rngs[i]
        np.testing.assert_array_equal(got.bit_generator.state["state"]["key"],
                                      ref.generate_state(2, np.uint64))
        ref_rng = np.random.Generator(np.random.Philox(ref))
        np.testing.assert_array_equal(got.random(3), ref_rng.random(3))
        np.testing.assert_array_equal(got.standard_normal(3), ref_rng.standard_normal(3))


def test_market_rng_is_the_batch_of_one():
    for key in [(), (7,), (3, 1), (0, WORD, 5)]:
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(11, spawn_key=key)))
        np.testing.assert_array_equal(market_rng(11, *key).random(4), ref.random(4))
    assert list(market_rngs(11, [])) == []


@pytest.mark.parametrize("seed,keys,named", [
    (-1, [1], "-1"), (1.5, [1], "1.5"), ("3", [1], "'3'"),
    (3, [-1], "-1"), (3, [2**32], "4294967296"), (3, [[1, 2**70]], str(2**70)),
    (3, [0.5], "0.5"),
])
def test_market_rngs_reject_bad_seeds_and_keys(seed, keys, named):
    with pytest.raises(ConfigError, match=named):
        market_rngs(seed, keys)


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
        for k, rng in enumerate(market_rngs(s.seed, range(n))):
            assert pop.zeta[k] == rng.choice(len(probs), p=probs)
            np.testing.assert_array_equal(pop.xi[k], s.xi_law.sample(rng, 1))
    values = 1.5 * np.arange(len(probs)) - 1.0
    law = laws.choice(values, probs)
    rngs = zip(market_rngs(13, range(n)), market_rngs(13, range(n)))
    for k, (rng, ref) in enumerate(rngs):
        size = 1 + k % 3
        np.testing.assert_array_equal(law.sample(rng, size),
                                      values[ref.choice(len(probs), size, p=probs)])
        assert rng.standard_normal() == ref.standard_normal()


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
