import numpy as np
import pytest

from cdlab import diagnostics
from cdlab.demand import share_curve_1d, shares
from cdlab.diagnostics import (
    Fig1Spec,
    _invert_curve_xi,
    _partition,
    conditional_variance,
    crossing_curve,
    crossing_curves,
)
from cdlab.errors import InsufficientData, RootNotBracketed
from cdlab.population import PopulationSpec, sample_population
from cdlab.types import MarketDraw, SharesVector, bundle, lognormal_mixing


class TestPartition:
    def test_equal_count_bins_cover_all_indices(self):
        values = np.random.default_rng(0).normal(size=(100, 1))
        groups = _partition(values, 10)
        assert len(groups) == 10
        assert sorted(np.concatenate(groups)) == list(range(100))
        assert all(len(g) == 10 for g in groups)

    def test_bins_are_ordered_intervals(self):
        values = np.random.default_rng(1).normal(size=(50, 1))
        groups = _partition(values, 5)
        uppers = [values[g, 0].max() for g in groups]
        lowers = [values[g, 0].min() for g in groups]
        assert all(u <= l for u, l in zip(uppers[:-1], lowers[1:]))

    def test_vector_outcomes_use_median_splits(self):
        values = np.random.default_rng(2).normal(size=(64, 2))
        groups = _partition(values, 8)
        assert sorted(np.concatenate(groups)) == list(range(64))


def single_type_spec(n, seed=0):
    return PopulationSpec(J=1, market_count=n,
                          mixing_by_type=(lognormal_mixing(0.0, 0.5),),
                          type_probabilities=(1.0,), seed=seed)


def test_conditional_variance_vanishes_under_homogeneity():
    spec = single_type_spec(3000)
    pop = sample_population(spec)
    v = conditional_variance(pop, spec, bundle(0.0, 1.5), bundle(0.0, 2.0),
                             bins=60)
    assert v <= 1e-10


def test_conditional_variance_positive_under_two_types():
    fig1 = Fig1Spec(market_count=3000, seed=0)
    spec = fig1.population_spec()
    pop = sample_population(spec)
    v = conditional_variance(pop, spec, bundle(0.0, 1.5), bundle(0.0, 2.0),
                             bins=60)
    assert v > 1e-4


def test_conditional_variance_requires_enough_markets():
    spec = single_type_spec(1)
    pop = sample_population(spec)
    with pytest.raises(InsufficientData):
        conditional_variance(pop, spec, bundle(0.0, 1.5), bundle(0.0, 2.0),
                             bins=2)
    spec4 = single_type_spec(4)
    with pytest.raises(InsufficientData):
        conditional_variance(sample_population(spec4), spec4,
                             bundle(0.0, 1.5), bundle(0.0, 2.0), bins=4)


@pytest.mark.parametrize("spec", [single_type_spec(400, seed=5),
                                  Fig1Spec(market_count=400, seed=5).population_spec()])
def test_conditional_variance_equals_per_market_reference(spec, monkeypatch):
    """The batched truth against one `shares` call per market and bundle."""
    pop = sample_population(spec)
    a, a_prime = bundle(0.0, 1.5), bundle(0.0, 2.0)
    batched = conditional_variance(pop, spec, a, a_prime, bins=20)

    def per_market(spec, xi, zeta, a):
        return np.array([shares(spec.share_map(t), a.x1 + x, a).values
                         for x, t in zip(xi, zeta)])

    monkeypatch.setattr(diagnostics, "true_counterfactuals", per_market)
    assert conditional_variance(pop, spec, a, a_prime, bins=20) == batched


def test_invert_curve_xi_finds_exact_root():
    mix = lognormal_mixing(-0.5, 2.0)
    xi = _invert_curve_xi(mix, price=1.7, target=0.42, nodes=32)
    at = float(share_curve_1d(mix, np.array(xi), np.array(1.7), 32))
    assert abs(at - 0.42) < 1e-9


@pytest.mark.parametrize("price", [1.0, 2.5, 3.0])
@pytest.mark.parametrize("target", [0.95, 0.98, 0.99])
def test_invert_curve_xi_on_a_staircase_share_curve(price, target):
    """lognormal(-0.5, 2) at 32 nodes makes the share curve a staircase in
    xi; the inversion must still reach targets near 1."""
    mix = lognormal_mixing(-0.5, 2.0)
    xi = _invert_curve_xi(mix, price, target, 32)
    at = float(share_curve_1d(mix, np.array(xi), np.array(price), 32))
    assert abs(np.log(at) - np.log(target)) <= 1e-12


def test_invert_curve_xi_unreachable_target():
    with pytest.raises(RootNotBracketed):
        _invert_curve_xi(lognormal_mixing(0.0, 0.5), price=1.0, target=1.5,
                         nodes=16)


class TestCrossingCurve:
    spec = Fig1Spec(market_count=30, seed=4)

    def test_opposite_curve_passes_through_observed_point(self):
        pop = sample_population(self.spec.population_spec())
        for draw in pop[:10]:
            pair = crossing_curve(self.spec, draw)
            price = float(draw.a.p[0])
            opp_mix = self.spec.mixing(1 - draw.zeta)
            at_p = float(share_curve_1d(opp_mix, np.array(pair.xi_opposite),
                                        np.array(price), self.spec.quad_nodes))
            assert abs(at_p - float(draw.y.values[0])) < 1e-8
            assert abs(np.log(at_p) - np.log(float(draw.y.values[0]))) <= 1e-12

    def test_slopes_differ_at_the_crossing(self):
        pop = sample_population(self.spec.population_spec())
        for draw in pop[:10]:
            pair = crossing_curve(self.spec, draw)
            assert abs(pair.own_slope - pair.opposite_slope) > 1e-3

    def test_curves_cross_once_the_grid_contains_the_observed_price(self):
        pop = sample_population(self.spec.population_spec())
        draw = pop[0]
        pair = crossing_curve(self.spec, draw)
        price = float(draw.a.p[0])
        y_obs = float(draw.y.values[0])
        opp_mix = self.spec.mixing(1 - draw.zeta)
        at_p = float(share_curve_1d(opp_mix, np.array(pair.xi_opposite),
                                    np.array(price), self.spec.quad_nodes))
        own = np.append(pair.own, y_obs)
        opp = np.append(pair.opposite, at_p)
        gap = np.abs(own - opp)
        assert gap.min() <= 1e-8 < gap.max()  # they meet at P and only there

    def test_deterministic(self):
        pop = sample_population(self.spec.population_spec())
        a = crossing_curve(self.spec, pop[0])
        b = crossing_curve(self.spec, pop[0])
        np.testing.assert_array_equal(a.opposite, b.opposite)


def test_crossing_curves_equal_per_market_curves():
    spec = Fig1Spec(market_count=60, seed=7)
    pop = sample_population(spec.population_spec())
    pairs = crossing_curves(spec, pop)
    assert {d.zeta for d in pop} == {0, 1}
    for draw, pair in zip(pop, pairs):
        one = crossing_curve(spec, draw)
        np.testing.assert_allclose(pair.own, one.own, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.opposite, one.opposite, rtol=0, atol=1e-12)
        for name in ("own_slope", "opposite_slope", "xi_opposite"):
            assert abs(getattr(pair, name) - getattr(one, name)) <= 1e-12


def test_crossing_curves_skip_an_unreachable_market():
    """A share outside (0, 1) has no opposite-type curve through it: the
    batch gives None for that market, the single-market call raises."""
    spec = Fig1Spec(market_count=3, seed=1)
    pop = sample_population(spec.population_spec())
    # SharesVector itself does not validate; validate_shares would reject 1.5.
    bad = MarketDraw(xi=pop[1].xi, zeta=pop[1].zeta, y=SharesVector(np.array([1.5])),
                     a=pop[1].a, z=pop[1].z)
    pairs = crossing_curves(spec, [pop[0], bad, pop[2]])
    assert pairs[1] is None
    assert pairs[0] is not None and pairs[2] is not None
    with pytest.raises(RootNotBracketed):
        crossing_curve(spec, bad)
