import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import cdlab.inversion as inversion
from cdlab import laws
from cdlab.demand import (
    _gh_nodes,
    _weighted_node_shares,
    expit_mixture,
    gauss_hermite,
    mixed_logit,
    monte_carlo,
    plain_logit,
    share_jacobian,
    shares,
    shares_array,
)
from cdlab.errors import ConfigError, IntegrationFailure, NoConvergence, SimplexViolation
from cdlab.inversion import (
    OUTSIDE_TOL,
    InversionConfig,
    invert,
    invert_rows,
    logit_closed_form,
    solve_share_curve,
    structural_shock,
)
from cdlab.population import PopulationSpec, market_rng, sample_population
from cdlab.types import (
    SIMPLEX_EPS,
    Bundles,
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
    validate_shares,
)



def contraction_reference(m, y, a, tol=1e-12, max_iter=10_000):
    """The BLP contraction delta <- delta + log y - log s(delta) alone, from
    the plain-logit start, to both share tolerances: the reference path the
    Newton solver is checked against."""
    log_y = np.log(y.values)
    delta = log_y - np.log(y.outside)
    for _ in range(max_iter):
        s = shares_array(m, delta, a)
        step = log_y - np.log(s)
        if np.max(np.abs(s - y.values)) <= tol and np.max(np.abs(step)) <= tol:
            return delta
        delta = delta + step
    raise NoConvergence(max_iter, float(np.max(np.abs(s - y.values))))


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
    np.testing.assert_allclose(invert(md, y, a), logit_closed_form(mp, y.values, a),
                               atol=1e-10)


def test_no_convergence_reports_iterations_and_residual():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    a = bundle([0.0], [1.5])
    y = shares(m, np.array([2.0]), a)
    with pytest.raises(NoConvergence) as err:
        invert(m, y, a, InversionConfig(tol=1e-12, max_iter=2))
    assert err.value.iterations == 2
    assert err.value.residual > 0


def test_contraction_reference_round_trip():
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = bundle([0.0, 0.0], [1.0, 2.0])
    y = shares(m, np.array([1.0, 0.5]), a)
    np.testing.assert_allclose(contraction_reference(m, y, a), [1.0, 0.5], atol=1e-10)
    with pytest.raises(NoConvergence):
        contraction_reference(m, y, a, max_iter=3)


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
        np.testing.assert_allclose(invert(m, y, a), contraction_reference(m, y, a),
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
    d = sample_population(spec)[0]
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



@pytest.mark.parametrize("delta, p", [([27.5], [1.5]), ([27.0, 26.0], [1.0, 2.0])],
                         ids=["J1-curve", "J2-newton"])
def test_outside_share_near_simplex_eps_is_refused_before_iterating(delta, p, monkeypatch):
    """At an outside share of 5e-12, inside shares within 1e-12 of their
    targets used to leave delta 0.1 off without an error, and the rounding
    of the shares alone moves it by 2e-5: both loops refuse such markets
    before any share evaluation."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = bundle(np.zeros(len(p)), p)
    y = shares(m, np.array(delta), a)
    assert SIMPLEX_EPS < y.outside < 1e-11
    calls = []
    for name in ("_weighted_node_shares", "expit_mixture"):
        fn = getattr(inversion, name)
        monkeypatch.setattr(inversion, name,
                            lambda *args, fn=fn, **kwargs: calls.append(1) or fn(*args, **kwargs))
    with pytest.raises(SimplexViolation, match="outside share"):
        invert(m, y, a)
    assert calls == []


@pytest.mark.parametrize("delta, p", [([20.0], [1.5]), ([18.0, 17.0], [1.0, 2.0]),
                                      ([22.0, 21.0], [1.0, 2.0])])
def test_small_outside_share_is_matched_in_logs(delta, p):
    """Outside shares of 4e-8 to 8e-10: the returned delta matches the
    outside share in logs to OUTSIDE_TOL, so it is off only by what the
    rounding of the shares allows, about eps / y0 (it was 4e-5 at 1e-8)."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = bundle(np.zeros(len(p)), p)
    delta = np.array(delta)
    y = shares(m, delta, a)
    assert 1e-10 < y.outside < 5e-8
    back = invert(m, y, a)
    S, w = _weighted_node_shares(m, back, a, outside=True)
    assert abs(np.log(w @ S[:, -1]) - np.log(y.outside)) <= OUTSIDE_TOL
    assert np.max(np.abs(back - delta)) <= 1e-10 + 2 * np.finfo(float).eps / y.outside


def _market_rows(m, J, saturated, seed):
    """Shares and bundles of one market per entry of `saturated`, each on its
    own prices: an outside share near 2 % where True, 0.1 to 0.6 elsewhere."""
    rng = market_rng(seed, J)
    y, p = [], []
    for sat in saturated:
        pj = rng.uniform(0.5, 3.0, J)
        u = rng.uniform(-2.0, 2.0, J)
        s0 = 0.02 if sat else rng.uniform(0.1, 0.6)
        delta = u + np.log1p(-s0) - np.log(s0) - np.log(np.exp(u).sum()) + pj
        y.append(shares(m, delta, bundle(np.zeros(J), pj)).values)
        p.append(pj)
    return np.array(y), Bundles(np.zeros((len(p), J)), np.array(p), np.zeros((len(p), J, 0)))


@settings(max_examples=12, deadline=None)
@given(J=st.sampled_from([2, 5, 25]),
       saturated=st.lists(st.booleans(), min_size=2, max_size=6),
       failing=st.integers(0, 5),
       seed=st.integers(0, 2**16))
def test_batched_inversion_matches_one_market_solves(J, saturated, failing, seed):
    """All rows in one solve agree with one solve per market to 1e-12, and
    a row whose first trial point fails to integrate is rejected on its own:
    the other rows come out bit for bit as without the failure."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3), integration=gauss_hermite(16))
    y, a = _market_rows(m, J, saturated, seed)
    one = np.array([invert(m, validate_shares(y[i]), bundle(np.zeros(J), a.p[i]))
                    for i in range(len(y))])
    batched = invert_rows(m, y, a)
    np.testing.assert_allclose(batched, one, atol=1e-12, rtol=0)

    failing %= len(y)
    seen = []

    def node_shares(d, rows):
        # the failing row's evaluations 2 and 3: its first trial in the batch, then alone
        seen.extend(rows == failing)
        if failing in rows and sum(seen) in (2, 3):
            raise IntegrationFailure("injected")
        return _weighted_node_shares(m, d, a[rows], outside=True)[0]

    w = _weighted_node_shares(m, y[0], a[0:1])[1]
    start = np.log(y) - np.log(1.0 - y.sum(axis=1, keepdims=True))
    got = inversion._solve_log_shares(node_shares, w, y, start, InversionConfig())
    assert sum(seen) > 3
    others = np.arange(len(y)) != failing
    np.testing.assert_array_equal(got[others], batched[others])
    row = slice(failing, failing + 1)
    np.testing.assert_allclose(shares_array(m, got[row], a[row]), y[row], atol=1e-12, rtol=0)


def test_batched_inversion_blocks_and_names_the_failing_market(monkeypatch):
    m = mixed_logit(lognormal_mixing(0.0, 0.3), integration=gauss_hermite(16))
    y, a = _market_rows(m, 5, [True, False, True, False, False], seed=4)
    whole = invert_rows(m, y, a)
    monkeypatch.setattr(inversion, "MAX_BLOCK_ELEMENTS", 2 * 16 * 6)  # two rows a block
    np.testing.assert_array_equal(invert_rows(m, y, a), whole)
    with pytest.raises(NoConvergence, match="market 17:") as err:
        invert_rows(m, y, a, InversionConfig(max_iter=1), ids=range(17, 22))
    assert err.value.market == 17 and err.value.iterations == 1
    bad = y.copy()
    bad[3] *= 1.0 / bad[3].sum()
    with pytest.raises(SimplexViolation, match="market 20:"):
        invert_rows(m, bad, a, ids=range(17, 22))
