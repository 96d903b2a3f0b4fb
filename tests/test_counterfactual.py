from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from cdlab import demand, inversion
from cdlab.config import load_config
from cdlab.counterfactual import predict, verify_theorem1
from cdlab.demand import mixed_logit, plain_logit, shares_array
from cdlab.acceptance import fig1_population
from cdlab.errors import ConfigError, SimplexViolation
from cdlab.inversion import invert_rows
from cdlab.population import PopulationSpec, sample_population
from cdlab.types import Bundles, bundle, lognormal_mixing


GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


def market(x1, p) -> Bundles:
    """The Bundles of one market: one row."""
    return Bundles.repeat(bundle(x1, p), 1)


def test_predict_plain_logit_matches_hand_computation():
    m = plain_logit(alpha=0.5)
    a = market([0.2], [1.0])
    xi = 0.3
    y = shares_array(m, a.x1 + xi, a)
    target = market([0.6], [2.0])
    pred = predict(m, y, a, target)
    expected = expit(0.6 + xi - 0.5 * 2.0)
    np.testing.assert_allclose(pred, [[expected]], atol=1e-14)


def test_predict_depends_only_on_observables():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    a = market([0.0], [1.0])
    y = np.array([[0.35]])
    target = market([0.0], [2.0])
    p1 = predict(m, y, a, target)
    p2 = predict(m, np.array([[0.35]]), market([0.0], [1.0]), target)
    np.testing.assert_array_equal(p1, p2)


def test_batched_predict_matches_one_market_predictions():
    """Markets stacked under Bundles are predicted in one call, as each
    market on its own to 1e-12."""
    spec = PopulationSpec(J=3, market_count=8, mixing_by_type=(lognormal_mixing(0.0, 0.4),),
                          type_probabilities=(1.0,), seed=2)
    pop = sample_population(spec)
    m = spec.share_map(0)
    a = pop.a
    target = a.replace(p=a.p + 0.5, x1=a.x1 - 0.2)
    got = predict(m, pop.y, a, target)
    one = np.concatenate([predict(m, pop.y[i:i + 1], a[i:i + 1], target[i:i + 1])
                          for i in range(len(pop))])
    np.testing.assert_allclose(got, one, atol=1e-12, rtol=0)
    np.testing.assert_allclose(got, spec.truth(pop, target), atol=1e-10, rtol=0)


class TestConversionGroupLaws:
    """The conversion maps C_{a -> a'} that `predict` computes form a group
    action: C_{a -> a} is the identity, C_{b -> c} C_{a -> b} = C_{a -> c}."""

    m = plain_logit(alpha=0.5)
    bundles = [market([x1], [p]) for x1, p in
               [(0.0, 1.0), (0.5, 2.0), (-0.3, 0.7), (0.2, 2.8)]]
    y = np.array([[0.3]])

    def test_identity(self):
        for a in self.bundles:
            np.testing.assert_allclose(
                predict(self.m, self.y, a, a), self.y, atol=1e-14)

    def test_composition(self):
        a, b, c = self.bundles[:3]
        via_b = predict(self.m, predict(self.m, self.y, a, b), b, c)
        direct = predict(self.m, self.y, a, c)
        np.testing.assert_allclose(via_b, direct, atol=1e-12)

    def test_inverse(self):
        a, b = self.bundles[:2]
        back = predict(self.m, predict(self.m, self.y, a, b), b, a)
        np.testing.assert_allclose(back, self.y, atol=1e-12)


def test_convert_signals_simplex_exit():
    y = np.array([[1.0 - 1e-9]])
    with pytest.raises(SimplexViolation):
        # a huge positive x1 shift pushes the logit index past representable
        # shares, so the conversion leaves the open simplex
        predict(plain_logit(alpha=0.0), y, market([0.0], [1.0]), market([60.0], [1.0]))


def _single_type_spec(n=30, seed=0):
    return PopulationSpec(J=1, market_count=n,
                          mixing_by_type=(lognormal_mixing(0.0, 0.4),),
                          type_probabilities=(1.0,), seed=seed)


def test_verify_theorem1_passes_on_homogeneous_population():
    spec = _single_type_spec()
    pop = sample_population(spec)
    grid = [bundle([x1], [p]) for x1, p in
            zip(np.linspace(-0.5, 0.5, 5), np.linspace(0.7, 2.7, 5))]
    checks = verify_theorem1(spec.share_map(0), bundle([0.0], [1.5]), grid, pop, spec.truth)
    assert [(c.name, c.threshold, c.op) for c in checks] == [
        ("index_model", 1e-8, "<="), ("inverse_model", 1e-8, "<="),
        ("transformed_shift", 1e-8, "<=")]
    assert all(c.passed for c in checks)
    assert checks[0].value <= 1e-8


def test_verify_theorem1_fails_on_two_type_population():
    spec = fig1_population(40, 1)
    pop = sample_population(spec)
    grid = [bundle([0.0], [p]) for p in np.linspace(0.7, 2.7, 5)]
    *_, shift = verify_theorem1(spec.share_map(0), bundle([0.0], [1.5]), grid, pop,
                                spec.truth)
    assert not shift.passed
    assert shift.value > 0.01



def per_bundle_theorem1(m, a0, grid, population, truth):
    """The three maxima of `verify_theorem1` as it was: one truth call, one
    `invert_rows` and one `shares_array` per bundle."""
    n = len(population)
    m1 = m2 = m3 = 0.0
    h0 = invert_rows(m, truth(population, a0), Bundles.repeat(a0, n))
    xi = h0 - a0.x1
    for a in grid:
        rows = Bundles.repeat(a, n)
        ya = truth(population, a)
        ha = invert_rows(m, ya, rows)
        pred = shares_array(m, a.x1 + xi, rows)
        m1 = max(m1, float(np.max(np.abs(ya - pred))))
        m2 = max(m2, float(np.max(np.abs(a.x1 + population.xi - ha))))
        m3 = max(m3, float(np.max(np.abs(ha - h0 - (a.x1 - a0.x1)))))
    return m1, m2, m3


def thm1_grid(J):
    """`cdl verify-thm1`'s baseline bundle and grid."""
    return bundle(np.zeros(J), np.full(J, 1.5)), [
        bundle(np.full(J, x1), np.full(J, p))
        for x1, p in zip(np.linspace(-0.5, 0.5, 10), np.linspace(0.6, 2.8, 10))]


def golden_thm1_case(n=None):
    spec = load_config(GOLDEN_CONFIGS / "verify-thm1.json").population
    pop = sample_population(spec)
    return (spec.share_map(0), *thm1_grid(spec.J), pop[:n], spec.truth)


def bench_thm1_case():
    """The benchmark's verify-thm1 config: 40 J = 2 markets at seed 7919 + 2."""
    spec = PopulationSpec(J=2, market_count=40, mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                          type_probabilities=(1.0,), seed=7919 + 2)
    return (spec.share_map(0), *thm1_grid(2), sample_population(spec), spec.truth)


def two_type_thm1_case(n=None):
    """Criterion 2's two-type J = 1 check at seed 0, on its first n markets."""
    spec = fig1_population(100, 2)
    return (spec.share_map(0), bundle(0.0, 1.5),
            [bundle(0.0, p) for p in np.linspace(0.6, 2.8, 10)],
            sample_population(spec)[:n], spec.truth)


@pytest.mark.parametrize("case", [golden_thm1_case, bench_thm1_case, two_type_thm1_case,
                                  lambda: two_type_thm1_case(n=37),
                                  lambda: golden_thm1_case(n=1)],
                         ids=["golden-verify-thm1", "bench-verify-thm1", "two-type-J1",
                              "two-type-J1-37", "one-market"])
def test_stacked_verify_theorem1_is_the_per_bundle_check(case):
    """One solve over the stacked bundles gives each maximum's bits, at J = 1
    for any number of markets and on the Fortran-ordered stack that numpy
    concatenates from broadcast targets: every node-weighted sum rounds a
    row by that row alone."""
    args = case()
    got = tuple(c.value for c in verify_theorem1(*args))
    assert got == per_bundle_theorem1(*args)


def test_verify_theorem1_makes_a_dozen_node_share_evaluations(monkeypatch):
    """At the benchmark's verify-thm1 config (40 J = 2 markets, 10 grid
    bundles), the check evaluates node shares at most 9 times; one solve
    per bundle made 87 evaluations."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    real = demand._weighted_node_shares
    args = bench_thm1_case()
    monkeypatch.setattr(demand, "_weighted_node_shares", counted)
    monkeypatch.setattr(inversion, "_weighted_node_shares", counted)
    assert all(c.passed for c in verify_theorem1(*args))
    assert 3 <= len(calls) <= 9


def test_verify_theorem1_with_an_empty_grid_is_a_config_error():
    m, a0, _, pop, truth = golden_thm1_case()
    with pytest.raises(ConfigError, match="grid"):
        verify_theorem1(m, a0, [], pop, truth)
