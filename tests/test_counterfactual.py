from functools import partial

import numpy as np
import pytest
from scipy.special import expit

from cdlab.counterfactual import CounterfactualEngine, verify_theorem1
from cdlab.demand import mixed_logit, plain_logit, shares
from cdlab.diagnostics import Fig1Spec
from cdlab.errors import SimplexViolation
from cdlab.population import PopulationSpec, potential_outcomes, sample_population
from cdlab.transforms import MixedLogitInverse
from cdlab.types import Bundles, bundle, lognormal_mixing, validate_shares


def test_predict_plain_logit_matches_hand_computation():
    engine = CounterfactualEngine(plain_logit(alpha=0.5))
    a = bundle([0.2], [1.0])
    xi = 0.3
    y = shares(engine.map, a.x1 + xi, a)
    target = bundle([0.6], [2.0])
    pred = engine.predict(y, a, target)
    expected = expit(0.6 + xi - 0.5 * 2.0)
    np.testing.assert_allclose(pred.values, [expected], atol=1e-14)


def test_predict_depends_only_on_observables():
    engine = CounterfactualEngine(mixed_logit(lognormal_mixing(0.0, 0.5)))
    a = bundle([0.0], [1.0])
    y = validate_shares([0.35])
    target = bundle([0.0], [2.0])
    p1 = engine.predict(y, a, target)
    p2 = engine.predict(validate_shares([0.35]), bundle([0.0], [1.0]), target)
    np.testing.assert_array_equal(p1.values, p2.values)


def test_batched_predict_matches_one_market_predictions():
    """Markets stacked under Bundles are predicted in one call, as each
    market on its own to 1e-12."""
    spec = PopulationSpec(J=3, market_count=8, mixing_by_type=(lognormal_mixing(0.0, 0.4),),
                          type_probabilities=(1.0,), seed=2)
    pop = sample_population(spec)
    engine = CounterfactualEngine(spec.share_map(0))
    a = Bundles.stack([d.a for d in pop])
    target = a.replace(p=a.p + 0.5, x1=a.x1 - 0.2)
    y = np.array([d.y.values for d in pop])
    got = engine.predict(y, a, target)
    one = [engine.predict(d.y, d.a, d.a.replace(p=d.a.p + 0.5, x1=d.a.x1 - 0.2)).values
           for d in pop]
    np.testing.assert_allclose(got, one, atol=1e-12, rtol=0)
    np.testing.assert_allclose(got, potential_outcomes(spec, pop, target), atol=1e-10, rtol=0)


def test_convert_agrees_with_predict_for_inverse_transform():
    """Conversion through the transform, h^{-1}(h(y, a) - x1 + x1', a'),
    is the engine's prediction when h inverts the share map."""
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    engine = CounterfactualEngine(m)
    h = MixedLogitInverse(m)
    a = bundle([0.2], [1.0])
    y = validate_shares([0.3])
    target = bundle([-0.1], [2.2])
    converted = h.invert(h.apply(y.values, a) - a.x1 + target.x1, target)
    np.testing.assert_allclose(converted, engine.predict(y, a, target).values, atol=1e-10)


class TestConversionGroupLaws:
    """The conversion maps C_{a -> a'} that `predict` computes form a group
    action: C_{a -> a} is the identity, C_{b -> c} C_{a -> b} = C_{a -> c}."""

    engine = CounterfactualEngine(plain_logit(alpha=0.5))
    bundles = [bundle([x1], [p]) for x1, p in
               [(0.0, 1.0), (0.5, 2.0), (-0.3, 0.7), (0.2, 2.8)]]

    def test_identity(self):
        y = validate_shares([0.3])
        for a in self.bundles:
            np.testing.assert_allclose(
                self.engine.predict(y, a, a).values, y.values, atol=1e-14)

    def test_composition(self):
        y = validate_shares([0.3])
        a, b, c = self.bundles[:3]
        via_b = self.engine.predict(self.engine.predict(y, a, b), b, c)
        direct = self.engine.predict(y, a, c)
        np.testing.assert_allclose(via_b.values, direct.values, atol=1e-12)

    def test_inverse(self):
        y = validate_shares([0.3])
        a, b = self.bundles[:2]
        back = self.engine.predict(self.engine.predict(y, a, b), b, a)
        np.testing.assert_allclose(back.values, y.values, atol=1e-12)


def test_convert_signals_simplex_exit():
    engine = CounterfactualEngine(plain_logit(alpha=0.0))
    y = validate_shares([1.0 - 1e-9])
    with pytest.raises(SimplexViolation):
        # a huge positive x1 shift pushes the logit index past representable
        # shares, so the conversion leaves the open simplex
        engine.predict(y, bundle([0.0], [1.0]), bundle([60.0], [1.0]))


def _single_type_spec(n=30, seed=0):
    return PopulationSpec(J=1, market_count=n,
                          mixing_by_type=(lognormal_mixing(0.0, 0.4),),
                          type_probabilities=(1.0,), seed=seed)


def test_verify_theorem1_passes_on_homogeneous_population():
    spec = _single_type_spec()
    pop = sample_population(spec)
    grid = [bundle([x1], [p]) for x1, p in
            zip(np.linspace(-0.5, 0.5, 5), np.linspace(0.7, 2.7, 5))]
    rep = verify_theorem1(MixedLogitInverse(spec.share_map(0)), bundle([0.0], [1.5]), grid,
                          pop, partial(potential_outcomes, spec))
    assert rep.passed
    assert rep.max_index_model <= 1e-8
    assert len(rep.rows()) == 3


def test_verify_theorem1_fails_on_two_type_population():
    fig1 = Fig1Spec(market_count=40, seed=1)
    spec = fig1.population_spec()
    pop = sample_population(spec)
    grid = [bundle([0.0], [p]) for p in np.linspace(0.7, 2.7, 5)]
    rep = verify_theorem1(MixedLogitInverse(mixed_logit(fig1.blue)), bundle([0.0], [1.5]),
                          grid, pop, partial(potential_outcomes, spec))
    assert not rep.passed
    assert rep.max_transformed_shift > 0.01

