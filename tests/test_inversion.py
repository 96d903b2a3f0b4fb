import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import cdlab.inversion as inversion
from cdlab import laws
from cdlab.demand import (
    _gh_nodes,
    expit_mixture,
    gauss_hermite,
    mixed_logit,
    monte_carlo,
    plain_logit,
    share_jacobian,
    shares,
    shares_array,
)
from cdlab.errors import ConfigError, NoConvergence
from cdlab.inversion import (
    InversionConfig,
    invert,
    logit_closed_form,
    solve_share_curve,
    structural_shock,
)
from cdlab.population import PopulationSpec, market_rng, sample_market
from cdlab.types import (
    SIMPLEX_EPS,
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
)

CONTRACTION = InversionConfig(newton_polish=False)


def test_plain_logit_closed_form_round_trip():
    m = plain_logit(alpha=0.5, gamma=(0.3,))
    a = bundle([0.1, -0.2], [1.0, 2.0], np.array([[0.5], [-1.0]]))
    delta = np.array([0.7, -1.3])
    y = shares(m, delta, a)
    np.testing.assert_allclose(invert(m, y, a), delta, atol=1e-14)


def test_mixed_logit_round_trip_across_dimensions():
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    rng = market_rng(3, 0)
    for J in (1, 3, 8):
        for _ in range(10):
            delta = rng.uniform(-4.0, 4.0, J)
            a = bundle(np.zeros(J), rng.uniform(0.5, 3.0, J))
            y = shares(m, delta, a)
            np.testing.assert_allclose(invert(m, y, a), delta, atol=1e-10)


def test_round_trip_other_direction():
    m = mixed_logit(normal_mixing((0.8,), (0.2,)))
    a = bundle([0.0, 0.0], [1.0, 2.0])
    y = shares(m, np.array([0.5, -0.5]), a)
    delta = invert(m, y, a)
    back = shares(m, delta, a)
    np.testing.assert_allclose(back.values, y.values, atol=1e-11)


def test_degenerate_mixing_agrees_with_closed_form():
    md = mixed_logit(degenerate(0.8))
    mp = plain_logit(alpha=0.8)
    a = bundle([0.0, 0.0], [1.0, 2.5])
    y = shares(mp, np.array([0.4, -0.6]), a)
    np.testing.assert_allclose(invert(md, y, a), logit_closed_form(mp, y, a),
                               atol=1e-10)


def test_no_convergence_reports_iterations_and_residual():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    a = bundle([0.0], [1.5])
    y = shares(m, np.array([2.0]), a)
    with pytest.raises(NoConvergence) as err:
        invert(m, y, a, InversionConfig(tol=1e-12, max_iter=2))
    assert err.value.iterations == 2
    assert err.value.residual > 0


def test_newton_polish_can_be_disabled():
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = bundle([0.0, 0.0], [1.0, 2.0])
    y = shares(m, np.array([1.0, 0.5]), a)
    delta = invert(m, y, a, InversionConfig(newton_polish=False))
    np.testing.assert_allclose(delta, [1.0, 0.5], atol=1e-10)


def test_config_validation():
    with pytest.raises(ConfigError):
        InversionConfig(tol=0.0)
    with pytest.raises(ConfigError):
        InversionConfig(max_iter=0)


def test_structural_shock_round_trip():
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = bundle([0.4, -0.1], [1.0, 2.0])
    xi = np.array([0.3, -0.7])
    y = shares(m, a.x1 + xi, a)
    np.testing.assert_allclose(structural_shock(m, y, a), xi, atol=1e-10)


def test_structural_shock_x1_shift_cancellation():
    """Shifting x1 by c and delta by c leaves the shock unchanged."""
    m = plain_logit(alpha=0.5)
    a = bundle([0.2], [1.0])
    y = shares(m, np.array([0.9]), a)
    base = structural_shock(m, y, a)
    shifted_a = a.replace(x1=a.x1 + 1.7)
    y2 = shares(m, np.array([0.9 + 1.7]), shifted_a)
    np.testing.assert_allclose(structural_shock(m, y2, shifted_a), base,
                               atol=1e-14)


@pytest.mark.parametrize("J", [5, 25, 50])
def test_newton_agrees_with_contraction_reference(J):
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    rng = market_rng(11, J)
    for _ in range(3):
        delta = rng.uniform(-3.0, 1.0, J)
        a = bundle(np.zeros(J), rng.uniform(0.5, 3.0, J))
        y = shares(m, delta, a)
        np.testing.assert_allclose(invert(m, y, a), invert(m, y, a, CONTRACTION),
                                   atol=1e-10, rtol=0)


def _bisect_share_curve(offsets, w, y):
    """Reference root of sum_m w_m expit(delta + o_m) = y for one target."""
    lo = np.log(y) - np.log1p(-y) - offsets.max()
    hi = np.log(y) - np.log1p(-y) - offsets.min()
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(w @ expit(mid + offsets)) < y:
            lo = mid
        else:
            hi = mid
    return mid


def test_share_curve_solver_matches_bisection():
    """A dispersed 32-node mixing makes the share curve a staircase; the
    grid includes the targets near 1 where unbracketed Newton failed.
    Where the curve is flat, the log-share tolerance 1e-12 leaves delta
    uncertain by about 1e-12 * s / s', so the bound scales with it."""
    B, w = _gh_nodes(lognormal_mixing(-0.5, 2.0), 32)
    prices = np.array([0.5, 1.0, 2.5, 3.0])
    targets = np.array([0.02, 0.3, 0.7, 0.95, 0.98, 0.99, 0.999])
    p, y = (g.ravel() for g in np.meshgrid(prices, targets, indexing="ij"))
    offsets = -p[:, None] * B[:, 0]
    got = solve_share_curve(offsets, w, y)
    ref = np.array([_bisect_share_curve(o, w, t) for o, t in zip(offsets, y)])
    s, slope = expit_mixture(ref, offsets, w, w)
    assert np.all(np.abs(got - ref) <= 1e-10 + 2e-12 * s / slope)
    staircase = (p >= 1.0) & (y >= 0.95) & (y <= 0.99)
    np.testing.assert_allclose(got[staircase], ref[staircase], atol=1e-10, rtol=0)


MIXINGS = {
    "lognormal": lognormal_mixing(0.0, 0.3),
    "finite-mixture": finite_mixture((0.4, 0.6), (lognormal_mixing(-0.5, 0.2),
                                                  lognormal_mixing(0.5, 0.4))),
}


@settings(max_examples=30, deadline=None)
@given(J=st.integers(1, 50),
       log10_outside=st.floats(-8.0, -0.3),
       mixing=st.sampled_from(sorted(MIXINGS)),
       mc_seed=st.none() | st.integers(0, 2**16),
       seed=st.integers(0, 2**16))
def test_round_trip_property(J, log10_outside, mixing, mc_seed, seed):
    """Round trip over J, outside shares down to 1e-8, a finite mixture and
    Monte Carlo integration. The shares must match to the solver tolerance;
    delta within a tolerance scaled by the conditioning of the log-share
    Jacobian, which grows like 1/s0."""
    integration = gauss_hermite(16) if mc_seed is None else monte_carlo(500, mc_seed)
    m = mixed_logit(MIXINGS[mixing], integration=integration)
    rng = market_rng(seed, 0)
    a = bundle(np.zeros(J), rng.uniform(0.5, 3.0, J))
    # Utilities at price coefficient 1, shifted so that their plain-logit
    # outside share is 10**log10_outside; the mixing moves it a little.
    u = rng.uniform(-2.0, 2.0, J)
    s0 = 10.0 ** log10_outside
    delta = u + np.log1p(-s0) - np.log(s0) - np.log(np.exp(u).sum()) + a.p
    y = shares(m, delta, a)
    back = invert(m, y, a)
    np.testing.assert_allclose(shares_array(m, back, a), y.values, atol=1e-12, rtol=0)
    s = y.values
    cond = np.linalg.norm(np.linalg.inv(share_jacobian(m, delta, a) / s[:, None]), np.inf)
    # To first order the delta error is at most cond * tol; the factor 2
    # covers the rounding in y itself.
    assert np.max(np.abs(back - delta)) <= 1e-10 + 2 * 1e-12 * cond


@pytest.mark.parametrize("delta", [[-25.5], [-25.5, 0.4], [-25.5, -24.0]],
                         ids=["J1-curve", "J2-one-small", "J2-both-small"])
def test_round_trip_with_inside_shares_near_simplex_eps(delta):
    """Inside shares a few times SIMPLEX_EPS above 0, through the J = 1 share
    curve solver and the J >= 2 Newton loop: delta comes back, and the shares
    match in logs, not only to the absolute tolerance they are below."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    delta = np.array(delta)
    a = bundle(np.zeros(len(delta)), np.linspace(1.0, 2.0, len(delta)))
    y = shares(m, delta, a)
    assert SIMPLEX_EPS < y.values.min() < 10 * SIMPLEX_EPS
    back = invert(m, y, a)
    np.testing.assert_allclose(back, delta, atol=1e-10, rtol=0)
    np.testing.assert_allclose(np.log(shares_array(m, back, a)), np.log(y.values),
                               atol=1e-12, rtol=0)


def test_cost_guard_on_a_saturated_market(monkeypatch):
    """A J = 25 market at a ~2 % outside share: the contraction alone needs
    about 250 share evaluations here."""
    spec = PopulationSpec(J=25, market_count=1,
                          mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                          type_probabilities=(1.0,), x1_law=laws.constant(2.3),
                          xi_law=laws.normal(0.0, 0.3), integration=gauss_hermite(32))
    d = sample_market(spec, 0)
    assert 0.01 < d.y.outside < 0.04
    calls = []
    node_shares = inversion._weighted_node_shares

    def counting(*args, **kwargs):
        calls.append(1)
        return node_shares(*args, **kwargs)

    monkeypatch.setattr(inversion, "_weighted_node_shares", counting)
    delta = invert(spec.share_map(0), d.y, d.a)
    assert 0 < len(calls) <= 25
    np.testing.assert_allclose(delta, d.a.x1 + d.xi, atol=1e-9)

