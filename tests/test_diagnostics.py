import dataclasses

import numpy as np
import pytest

from cdlab import diagnostics
from cdlab.acceptance import fig1_population
from cdlab.demand import (expit_mixture, gauss_hermite, mixed_logit, node_offsets,
                          shares_array)
from cdlab.diagnostics import (
    CURVE_GRID,
    _partition,
    conditional_variance,
    crossing_curves,
)
from cdlab.errors import ConfigError, InsufficientData, SimplexViolation
from cdlab.inversion import invert_rows
from cdlab.population import PopulationSpec, sample_population, true_counterfactuals
from cdlab.types import Bundles, bundle, lognormal_mixing


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
    spec = fig1_population(3000, 0)
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
                                  fig1_population(400, 5)])
def test_conditional_variance_equals_per_market_reference(spec, monkeypatch):
    """The batched truth against one share-kernel call per market and bundle,
    each on the batch of one."""
    pop = sample_population(spec)
    a, a_prime = bundle(0.0, 1.5), bundle(0.0, 2.0)
    batched = conditional_variance(pop, spec, a, a_prime, bins=20)

    def per_market(spec, xi, zeta, a):
        one = Bundles.repeat(a, 1)
        return np.concatenate([shares_array(spec.share_map(t), a.x1 + x[None], one)
                               for x, t in zip(xi, zeta)])

    monkeypatch.setattr(diagnostics, "true_counterfactuals", per_market)
    assert conditional_variance(pop, spec, a, a_prime, bins=20) == batched


def per_bin_lstsq_variance(ya, yap, bins):
    """`conditional_variance` of Y(a) and Y(a') as one np.linalg.lstsq fit
    per bin, with the bin sizes: the reference of the stacked solve."""
    worst, groups = 0.0, _partition(ya, bins)
    for idx in groups:
        centered = ya[idx] - ya[idx].mean(axis=0)
        u = centered / np.maximum(np.abs(centered).max(axis=0), 1e-300)
        X = np.column_stack([np.ones(len(idx))] + [u**k for k in range(1, 6)])
        if len(idx) <= X.shape[1]:
            resid = yap[idx] - yap[idx].mean(axis=0)
        else:
            beta, *_ = np.linalg.lstsq(X, yap[idx], rcond=None)
            resid = yap[idx] - X @ beta
        worst = max(worst, float(np.max(np.mean(resid**2, axis=0))))
    return worst, sorted({len(g) for g in groups})


def two_type_spec(n, J=1, seed=0):
    return dataclasses.replace(fig1_population(n, seed), J=J)


# (J, markets, bins, the bin sizes of the single-type population)
VARIANCE_CASES = {
    "equal-bins": (1, 1000, 50, [20]),
    "unequal-bins": (1, 1003, 50, [20, 21]),
    "bins-of-6-and-7": (1, 62, 10, [6, 7]),
    "bins-of-5": (1, 40, 8, [5]),
    "J2-leaves": (2, 1000, 50, [15, 16]),
}


@pytest.mark.parametrize("case", sorted(VARIANCE_CASES))
def test_stacked_conditional_variance_is_the_per_bin_fit(case):
    """One stacked solve per bin size against a per-bin lstsq loop: the
    two-type value within 1e-12 relative, the single-type one within 1e-20
    absolute (it is about 1e-15 at J = 1) or 2.5e-13 relative (at J = 2 it
    is a fit residual of order 1e-8 to 1e-7, not rounding)."""
    J, n, bins, sizes = VARIANCE_CASES[case]
    a, a_prime = bundle(np.zeros(J), np.full(J, 1.5)), bundle(np.zeros(J), np.full(J, 2.0))
    one = dataclasses.replace(single_type_spec(n, seed=11), J=J)
    two = two_type_spec(n, J=J, seed=11)
    pop_one, pop_two = sample_population(one), sample_population(two)
    ref_one, got_sizes = per_bin_lstsq_variance(
        *(true_counterfactuals(one, pop_one.xi, pop_one.zeta, b) for b in (a, a_prime)), bins)
    assert got_sizes == sizes
    got = conditional_variance(pop_one, one, a, a_prime, bins=bins)
    assert abs(got - ref_one) <= max(1e-20, 2.5e-13 * ref_one)
    ref_two, _ = per_bin_lstsq_variance(
        *(true_counterfactuals(two, pop_two.xi, pop_two.zeta, b) for b in (a, a_prime)), bins)
    got = conditional_variance(pop_two, two, a, a_prime, bins=bins)
    assert ref_two > 1e-6 and abs(got - ref_two) <= 1e-12 * ref_two


def test_stacked_conditional_variance_fits_a_rank_deficient_bin(monkeypatch):
    """Bins whose Y(a) are all equal get the minimum-norm fit, as lstsq
    gives them: the variance around the mean. Here those bins hold the
    widest spread of Y(a'), so they set the maximum."""
    rng = np.random.default_rng(3)
    ya = rng.uniform(0.1, 0.6, (200, 1))
    ya[:60] = 0.3  # whole bins of 20 have a rank-1 design
    yap = ya**2 + 1e-4 * rng.normal(size=(200, 1))
    yap[:60] += 1e-2 * rng.normal(size=(60, 1))
    assert sum(np.ptp(ya[g]) == 0.0 for g in _partition(ya, 10)) >= 2
    a, a_prime = bundle(0.0, 1.5), bundle(0.0, 2.0)
    monkeypatch.setattr(diagnostics, "true_counterfactuals",
                        lambda spec, xi, zeta, b: ya if b is a else yap)
    spec = single_type_spec(200)
    ref, _ = per_bin_lstsq_variance(ya, yap, 10)
    got = conditional_variance(sample_population(spec), spec, a, a_prime, bins=10)
    assert ref > 1e-5 and abs(got - ref) <= 1e-12 * ref


def curve_at(m, xi, price):
    """The single-product share of the share map m at index xi and one price,
    as `crossing_curves` evaluates its curves."""
    a = Bundles.repeat(bundle(0.0, price), 1)
    return float(expit_mixture(np.array([xi]), *node_offsets(m, a))[0])


def invert_curve_xi(mix, price, target, nodes=32):
    """The xi with curve_at(m, xi, price) = target under the mixed logit m of
    mix at `nodes` nodes: the J = 1 `invert_rows` call that `crossing_curves`
    makes, on one market. Returns (xi, m)."""
    m = mixed_logit(mix, integration=gauss_hermite(nodes))
    return float(invert_rows(m, [[target]], Bundles.repeat(bundle(0.0, price), 1))[0, 0]), m


def test_invert_curve_xi_finds_exact_root():
    xi, m = invert_curve_xi(lognormal_mixing(-0.5, 2.0), price=1.7, target=0.42)
    assert abs(curve_at(m, xi, 1.7) - 0.42) < 1e-9


@pytest.mark.parametrize("price", [1.0, 2.5, 3.0])
@pytest.mark.parametrize("target", [0.95, 0.98, 0.99])
def test_invert_curve_xi_on_a_staircase_share_curve(price, target):
    """lognormal(-0.5, 2) at 32 nodes makes the share curve a staircase in
    xi; the inversion must still reach targets near 1."""
    xi, m = invert_curve_xi(lognormal_mixing(-0.5, 2.0), price, target)
    assert abs(np.log(curve_at(m, xi, price)) - np.log(target)) <= 1e-12


def test_invert_curve_xi_unreachable_target():
    """A share outside (0, 1) is not a share: `invert_rows` rejects it
    before solving."""
    with pytest.raises(SimplexViolation):
        invert_curve_xi(lognormal_mixing(0.0, 0.5), price=1.0, target=1.5, nodes=16)


class TestCrossingCurve:
    """One market at a time: the batch of one."""

    spec = fig1_population(30, 4)

    def curve(self, pop, i):
        """Market i's own and opposite curves, slopes and opposite xi."""
        return [v[0] for v in crossing_curves(self.spec, pop[[i]])]

    def test_opposite_curve_passes_through_observed_point(self):
        pop = sample_population(self.spec)
        for i in range(10):
            *_, xi_opp = self.curve(pop, i)
            price, y_obs = float(pop.a.p[i, 0]), float(pop.y[i, 0])
            at_p = curve_at(self.spec.share_map(1 - pop.zeta[i]), xi_opp, price)
            assert abs(at_p - y_obs) < 1e-8
            assert abs(np.log(at_p) - np.log(y_obs)) <= 1e-12

    def test_slopes_differ_at_the_crossing(self):
        pop = sample_population(self.spec)
        for i in range(10):
            _, _, own_slope, opp_slope, _ = self.curve(pop, i)
            assert abs(own_slope - opp_slope) > 1e-3

    def test_curves_cross_once_the_grid_contains_the_observed_price(self):
        pop = sample_population(self.spec)
        own, opp, *_, xi_opp = self.curve(pop, 0)
        price, y_obs = float(pop.a.p[0, 0]), float(pop.y[0, 0])
        at_p = curve_at(self.spec.share_map(1 - pop.zeta[0]), xi_opp, price)
        gap = np.abs(np.append(own, y_obs) - np.append(opp, at_p))
        assert gap.min() <= 1e-8 < gap.max()  # they meet at P and only there

    def test_deterministic(self):
        pop = sample_population(self.spec)
        np.testing.assert_array_equal(self.curve(pop, 0)[1], self.curve(pop, 0)[1])


def test_crossing_curves_equal_per_market_curves():
    spec = fig1_population(60, 7)
    pop = sample_population(spec)
    batch = crossing_curves(spec, pop)
    assert set(pop.zeta.tolist()) == {0, 1}
    assert batch[0].shape == batch[1].shape == (60, len(CURVE_GRID))
    for i in range(len(pop)):
        for got, one in zip(batch, crossing_curves(spec, pop[[i]])):
            np.testing.assert_allclose(got[i], one[0], rtol=0, atol=1e-12)


def test_crossing_curves_skip_an_unreachable_market():
    """A share outside (0, 1) has no opposite-type curve through it: the
    batch gives that market NaN in every output, alone or among others, and
    leaves the other markets' values as they are without it."""
    spec = fig1_population(3, 1)
    pop = sample_population(spec)
    y = pop.y.copy()
    y[1] = 1.5  # Population does not validate; the sampler would reject 1.5.
    bad = dataclasses.replace(pop, y=y)
    for got, ref in zip(crossing_curves(spec, bad), crossing_curves(spec, pop)):
        assert np.isnan(got[1]).all()
        np.testing.assert_array_equal(got[[0, 2]], ref[[0, 2]])
    assert all(np.isnan(v).all() for v in crossing_curves(spec, bad[[1]]))


@pytest.mark.parametrize("change,message", [
    ({"J": 2}, "crossing curves need a J = 1 population of 2 types and no x2, "
               "got J = 2, 2 types, x2_dim = 0"),
    ({"x2_dim": 1}, "crossing curves need a J = 1 population of 2 types and no x2, "
                    "got J = 1, 2 types, x2_dim = 1"),
    ({"mixing_by_type": (lognormal_mixing(0.0, 0.5),) * 3,
      "type_probabilities": (0.2, 0.3, 0.5)},
     "crossing curves need a J = 1 population of 2 types and no x2, "
     "got J = 1, 3 types, x2_dim = 0"),
])
def test_crossing_curves_refuse_another_population(change, message):
    spec = dataclasses.replace(fig1_population(6, 2), **change)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        crossing_curves(spec, sample_population(spec))


def test_crossing_curves_refuse_a_market_of_another_type():
    """A market of type 2 has neither of the two types' curves: no curve is
    drawn for it from another type's."""
    spec = fig1_population(6, 2)
    pop = sample_population(spec)
    zeta = pop.zeta.copy()
    zeta[4] = 2
    with pytest.raises(ConfigError, match="^market 4 has type 2; crossing curves know "
                                          "types 0 and 1$"):
        crossing_curves(spec, dataclasses.replace(pop, zeta=zeta))
