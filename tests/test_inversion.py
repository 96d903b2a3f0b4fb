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
    logit,
    mixed_logit,
    mixing_nodes,
    monte_carlo,
    node_jacobian,
    node_sum,
    plain_logit,
    shares_array,
)
from cdlab.counterfactual import predict
from cdlab.errors import ConfigError, IntegrationFailure, NoConvergence, SimplexViolation
from cdlab.inversion import (
    OUTSIDE_TOL,
    InversionConfig,
    invert_rows,
    logit_closed_form,
    solve_share_curve,
)
from cdlab.population import PopulationSpec, sample_population
from cdlab.types import (
    SIMPLEX_EPS,
    Bundles,
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
    validate_share_rows,
)


def market(x1, p, x2=None) -> Bundles:
    """The Bundles of one market: one row."""
    return Bundles.repeat(bundle(x1, p, x2), 1)


def observed(m, delta, a: Bundles) -> np.ndarray:
    """Validated shares (n, J) at the index rows delta under a."""
    return validate_share_rows(shares_array(m, np.atleast_2d(delta), a))


def contraction_reference(m, y, a, tol=1e-12, max_iter=10_000):
    """The BLP contraction delta <- delta + log y - log s(delta) alone, from
    the plain-logit start, to both share tolerances, for the markets of
    y (n, J) under a: the reference path the Newton solver is checked
    against."""
    log_y = np.log(y)
    delta = log_y - np.log(1.0 - y.sum(axis=1, keepdims=True))
    for _ in range(max_iter):
        s = shares_array(m, delta, a)
        step = log_y - np.log(s)
        if np.max(np.abs(s - y)) <= tol and np.max(np.abs(step)) <= tol:
            return delta
        delta = delta + step
    raise NoConvergence(max_iter, float(np.max(np.abs(s - y))))


def test_plain_logit_closed_form_round_trip():
    m = plain_logit(alpha=0.5, gamma=(0.3,))
    a = market([0.1, -0.2], [1.0, 2.0], np.array([[0.5], [-1.0]]))
    delta = np.array([[0.7, -1.3]])
    y = observed(m, delta, a)
    np.testing.assert_allclose(invert_rows(m, y, a), delta, atol=1e-14)


def test_mixed_logit_round_trip_across_dimensions():
    """Ten markets of each J, solved in one call."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    rng = np.random.default_rng([3, 0])
    for J in (1, 3, 8):
        draws = [(rng.uniform(-4.0, 4.0, J), rng.uniform(0.5, 3.0, J)) for _ in range(10)]
        delta, p = (np.array(v) for v in zip(*draws))
        a = Bundles(np.zeros(delta.shape), p, np.zeros(delta.shape + (0,)))
        y = observed(m, delta, a)
        np.testing.assert_allclose(invert_rows(m, y, a), delta, atol=1e-10)


def test_round_trip_other_direction():
    m = mixed_logit(normal_mixing((0.8,), (0.2,)))
    a = market([0.0, 0.0], [1.0, 2.0])
    y = observed(m, [0.5, -0.5], a)
    delta = invert_rows(m, y, a)
    back = observed(m, delta, a)
    np.testing.assert_allclose(back, y, atol=1e-11)


def test_degenerate_mixing_agrees_with_closed_form():
    md = mixed_logit(degenerate(0.8))
    mp = plain_logit(alpha=0.8)
    a = market([0.0, 0.0], [1.0, 2.5])
    y = observed(mp, [0.4, -0.6], a)
    np.testing.assert_allclose(invert_rows(md, y, a), logit_closed_form(mp, y, a),
                               atol=1e-10)


def test_no_convergence_reports_iterations_and_residual():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    a = market([0.0], [1.5])
    y = observed(m, [2.0], a)
    with pytest.raises(NoConvergence) as err:
        invert_rows(m, y, a, InversionConfig(tol=1e-12, max_iter=2))
    assert err.value.iterations == 2
    assert err.value.residual > 0


def test_contraction_reference_round_trip():
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = market([0.0, 0.0], [1.0, 2.0])
    y = observed(m, [1.0, 0.5], a)
    np.testing.assert_allclose(contraction_reference(m, y, a), [[1.0, 0.5]], atol=1e-10)
    with pytest.raises(NoConvergence):
        contraction_reference(m, y, a, max_iter=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        InversionConfig(tol=0.0)
    with pytest.raises(ConfigError):
        InversionConfig(max_iter=0)


def test_structural_shock_round_trip():
    """The shock xi is the inverted index less x1."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = market([0.4, -0.1], [1.0, 2.0])
    xi = np.array([[0.3, -0.7]])
    y = observed(m, a.x1 + xi, a)
    np.testing.assert_allclose(invert_rows(m, y, a) - a.x1, xi, atol=1e-10)


def test_structural_shock_x1_shift_cancellation():
    """Shifting x1 by c and delta by c leaves the shock unchanged."""
    m = plain_logit(alpha=0.5)
    a = market([0.2], [1.0])
    y = observed(m, [0.9], a)
    base = invert_rows(m, y, a) - a.x1
    shifted_a = a.replace(x1=a.x1 + 1.7)
    y2 = observed(m, [0.9 + 1.7], shifted_a)
    np.testing.assert_allclose(invert_rows(m, y2, shifted_a) - shifted_a.x1, base,
                               atol=1e-14)


@pytest.mark.parametrize("J", [5, 25, 50])
def test_newton_agrees_with_contraction_reference(J):
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    rng = np.random.default_rng([11, J])
    for _ in range(3):
        delta = rng.uniform(-3.0, 1.0, J)
        a = market(np.zeros(J), rng.uniform(0.5, 3.0, J))
        y = observed(m, delta, a)
        np.testing.assert_allclose(invert_rows(m, y, a), contraction_reference(m, y, a),
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


def reference_share_curve(offsets, weights, y, cfg=InversionConfig()):
    """`solve_share_curve` as it was before its loop ran in two buffers, the
    reference that loop must match bit for bit: it scans every row in the
    checks and allocates its (..., M) arrays in each iteration. It also
    returns the number of iterations in which some row took a midpoint."""
    y = np.asarray(y, dtype=float)
    inversion._check_shares(y, 1.0 - y)
    sign = 1.0
    mirror = (y > 0.5) & (1.0 - y < cfg.tol / OUTSIDE_TOL)
    if mirror.any():
        sign = np.where(mirror, -1.0, 1.0)
        y = np.where(mirror, 1.0 - y, y)
        offsets = sign[..., None] * offsets
    log_y = np.log(y)
    z = logit(y)
    lo = z - offsets.max(axis=-1)
    hi = z - offsets.min(axis=-1)
    delta = z - node_sum(offsets, weights)
    midpoints = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(cfg.max_iter):
            s, slope = expit_mixture(delta, offsets, weights, weights)
            gap = log_y - np.log(s)
            gap_abs = abs(gap)
            done = None
            if gap_abs.min() <= cfg.tol:  # a row may have converged
                done = (abs(s - y) <= cfg.tol) & (gap_abs <= cfg.tol)
                if done.all():
                    return sign * delta, midpoints
            below = s < y
            lo = np.where(below, delta, lo)
            hi = np.where(below, hi, delta)
            step = delta + gap * s / slope
            inside = (lo <= step) & (step <= hi)
            midpoints += not inside.all()
            step = step if inside.all() else np.where(inside, step, 0.5 * (lo + hi))
            delta = step if done is None else np.where(done, delta, step)
    raise NoConvergence(cfg.max_iter, float(abs(s - y).max()))


def share_curve_outcome(solve, *args):
    """What a solve returns, or the type and message of what it raises."""
    try:
        return solve(*args)
    except (SimplexViolation, NoConvergence) as err:
        return type(err), str(err)


def assert_same_outcome(offsets, w, y, cfg):
    got = share_curve_outcome(solve_share_curve, offsets, w, y, cfg)
    want = share_curve_outcome(reference_share_curve, offsets, w, y, cfg)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return 0
    want, midpoints = want
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    return midpoints


#: Targets that _check_shares refuses (0, negative, subnormal, an outside
#: share below MIN_OUTSIDE_SHARE, 1) and targets the mirror test sends
#: through 1 - y (above 1 - tol / OUTSIDE_TOL = 0.9).
EDGE_TARGETS = [0.0, -0.25, 5e-324, 1e-310, 1.0 - 1e-11, 1.0, 0.95, 0.999999, 1.0 - 1e-9]


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(), (5,), (3, 4)]), full_offsets=st.booleans(),
       max_iter=st.sampled_from([10_000, 3, 1]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_share_curve_loop_is_the_reference_loop(shape, full_offsets, max_iter, seed, data):
    """The in-place loop returns the reference loop's bits, or raises its
    error with its message, on 0-d, (n,) and (k, n) targets, (M,) and
    (..., M) offsets, mirrored targets, staircase curves (offsets of scale
    12) on which rows take midpoints, refused targets and exhausted
    iteration budgets."""
    rng = np.random.default_rng(seed)
    y = np.array(expit(rng.uniform(-12.0, 22.0, shape)))
    if data.draw(st.integers(0, 3)) == 0:
        edge = data.draw(st.sampled_from(EDGE_TARGETS))
        y[np.unravel_index(data.draw(st.integers(0, y.size - 1)), shape)] = edge
    M = rng.integers(1, 9)
    scale = rng.choice([0.1, 2.0, 12.0])
    offsets = scale * rng.standard_normal(shape + (M,) if full_offsets else (M,))
    w = rng.uniform(0.05, 1.0, M)
    assert_same_outcome(offsets, w / w.sum(), y, InversionConfig(max_iter=max_iter))


def test_share_curve_loop_matches_the_reference_on_a_staircase():
    """The staircase of `test_share_curve_solver_matches_bisection`, whose
    rows take midpoints, and its targets one by one as 0-d arrays."""
    B, w = _gh_nodes(lognormal_mixing(-0.5, 2.0), 32)
    p = np.array([0.5, 1.0, 2.5, 3.0])[:, None]
    y = np.array([0.02, 0.3, 0.7, 0.95, 0.98, 0.99, 0.999])
    offsets = -p[..., None] * B[:, 0]  # (4, 1, M) against targets (7,)
    assert assert_same_outcome(offsets, w, y, InversionConfig()) > 0
    for o in offsets[:, 0]:
        for t in y:
            assert_same_outcome(o, w, np.array(t), InversionConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_target_is_refused_before_iterating(bad, monkeypatch):
    """A nan target used to pass the checks and run all 10,000 iterations
    before NoConvergence with residual nan; each non-finite target is now a
    SimplexViolation naming its market, before any share evaluation."""
    B, w = _gh_nodes(lognormal_mixing(0.0, 0.3), 16)
    y = np.array([0.3, bad, 0.5])
    calls = []
    monkeypatch.setattr(inversion, "node_sum",
                        lambda *args, fn=inversion.node_sum: calls.append(1) or fn(*args))
    with pytest.raises(SimplexViolation, match=f"market 1: inside share {bad:.3e} is not finite"):
        solve_share_curve(-1.5 * B[:, 0], w, y)
    assert calls == []


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
    rng = np.random.default_rng([seed, 0])
    a = market(np.zeros(J), rng.uniform(0.5, 3.0, J))
    # Utilities at price coefficient 1, shifted so that their plain-logit
    # outside share is 10**log10_outside; the mixing moves it a little.
    u = rng.uniform(-2.0, 2.0, J)
    s0 = 10.0 ** log10_outside
    delta = u + np.log1p(-s0) - np.log(s0) - np.log(np.exp(u).sum()) + a.p
    y = observed(m, delta, a)
    back = invert_rows(m, y, a)
    np.testing.assert_allclose(shares_array(m, back, a), y, atol=1e-12, rtol=0)
    P, w = _weighted_node_shares(m, delta, a, outside=True)
    s = y[0]
    jac = node_jacobian(P, w, w @ P)[0, :J]
    cond = np.linalg.norm(np.linalg.inv(jac / s[:, None]), np.inf)
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
    delta = np.array([delta])
    a = market(np.zeros(delta.shape[1]), np.linspace(1.0, 2.0, delta.shape[1]))
    y = observed(m, delta, a)
    assert SIMPLEX_EPS < y.min() < 10 * SIMPLEX_EPS
    back = invert_rows(m, y, a)
    np.testing.assert_allclose(back, delta, atol=1e-10, rtol=0)
    np.testing.assert_allclose(np.log(shares_array(m, back, a)), np.log(y),
                               atol=1e-12, rtol=0)


def saturated_spec(markets):
    """J = 25 markets near a 2 % outside share, as in the benchmark's
    invert-saturated config."""
    return PopulationSpec(J=25, market_count=markets,
                          mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                          type_probabilities=(1.0,), x1_law=laws.constant(2.3),
                          xi_law=laws.normal(0.0, 0.3), integration=gauss_hermite(32))


def counted_rows(monkeypatch):
    """Record the number of rows of each node-share evaluation of
    `invert_rows`."""
    rows = []
    node_shares = inversion._weighted_node_shares

    def counting(m, delta, a, outside=False):
        rows.append(len(delta))
        return node_shares(m, delta, a, outside)

    monkeypatch.setattr(inversion, "_weighted_node_shares", counting)
    return rows


def test_cost_guard_on_a_saturated_market(monkeypatch):
    """A J = 25 market at a ~2 % outside share: the contraction alone needs
    about 250 share evaluations here, Newton from the plain-logit start 10."""
    spec = saturated_spec(1)
    pop = sample_population(spec)
    assert 0.01 < 1.0 - pop.y.sum() < 0.04
    calls = counted_rows(monkeypatch)
    delta = invert_rows(spec.share_map(0), pop.y, pop.a)
    assert 0 < len(calls) <= 6
    np.testing.assert_allclose(delta, pop.a.x1 + pop.xi, atol=1e-9)


def test_mean_coefficient_start_saves_node_share_rows(monkeypatch):
    """On 40 saturated markets, Newton from the logit inverse at the mean
    coefficients evaluates at most 60 % of the node-share rows that it
    evaluates from the plain-logit start log y - log y0 (200 against 357)."""
    spec = saturated_spec(40)
    pop = sample_population(spec)
    m = spec.share_map(0)
    rows = counted_rows(monkeypatch)
    plain = inversion._solve_log_shares(
        lambda d, k: inversion._weighted_node_shares(m, d, pop.a[k], outside=True)[0],
        mixing_nodes(m.mixing, m.integration)[1], pop.y, 0.0, InversionConfig())
    plain_rows, rows[:] = sum(rows), []
    delta = invert_rows(m, pop.y, pop.a)
    assert 0 < sum(rows) <= 0.6 * plain_rows
    for d in (plain, delta):
        np.testing.assert_allclose(d, pop.a.x1 + pop.xi, atol=1e-10)



@pytest.mark.parametrize("delta, p", [([27.5], [1.5]), ([27.0, 26.0], [1.0, 2.0])],
                         ids=["J1-curve", "J2-newton"])
def test_outside_share_near_simplex_eps_is_refused_before_iterating(delta, p, monkeypatch):
    """At an outside share of 5e-12, inside shares within 1e-12 of their
    targets used to leave delta 0.1 off without an error, and the rounding
    of the shares alone moves it by 2e-5: both loops refuse such markets
    before any share evaluation."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = market(np.zeros(len(p)), p)
    y = observed(m, delta, a)
    assert SIMPLEX_EPS < 1.0 - y.sum() < 1e-11
    calls = []
    for name in ("_weighted_node_shares", "node_sum"):
        fn = getattr(inversion, name)
        monkeypatch.setattr(inversion, name,
                            lambda *args, fn=fn, **kwargs: calls.append(1) or fn(*args, **kwargs))
    with pytest.raises(SimplexViolation, match="outside share"):
        invert_rows(m, y, a)
    assert calls == []


@pytest.mark.parametrize("delta, p", [([20.0], [1.5]), ([18.0, 17.0], [1.0, 2.0]),
                                      ([22.0, 21.0], [1.0, 2.0])])
def test_small_outside_share_is_matched_in_logs(delta, p):
    """Outside shares of 4e-8 to 8e-10: the returned delta matches the
    outside share in logs to OUTSIDE_TOL, so it is off only by what the
    rounding of the shares allows, about eps / y0 (it was 4e-5 at 1e-8)."""
    m = mixed_logit(lognormal_mixing(0.0, 0.3))
    a = market(np.zeros(len(p)), p)
    delta = np.array([delta])
    y = observed(m, delta, a)
    y0 = 1.0 - y.sum()
    assert 1e-10 < y0 < 5e-8
    back = invert_rows(m, y, a)
    S, w = _weighted_node_shares(m, back, a, outside=True)
    assert abs(np.log(w @ S[0, :, -1]) - np.log(y0)) <= OUTSIDE_TOL
    assert np.max(np.abs(back - delta)) <= 1e-10 + 2 * np.finfo(float).eps / y0


def _market_rows(m, J, saturated, seed):
    """Shares and bundles of one market per entry of `saturated`, each on its
    own prices: an outside share near 2 % where True, 0.1 to 0.6 elsewhere."""
    rng = np.random.default_rng([seed, J])
    delta, p = [], []
    for sat in saturated:
        pj = rng.uniform(0.5, 3.0, J)
        u = rng.uniform(-2.0, 2.0, J)
        s0 = 0.02 if sat else rng.uniform(0.1, 0.6)
        delta.append(u + np.log1p(-s0) - np.log(s0) - np.log(np.exp(u).sum()) + pj)
        p.append(pj)
    a = Bundles(np.zeros((len(p), J)), np.array(p), np.zeros((len(p), J, 0)))
    return observed(m, np.array(delta), a), a


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
    one = np.concatenate([invert_rows(m, y[i:i + 1], a[i:i + 1]) for i in range(len(y))])
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

    B, w = mixing_nodes(m.mixing, m.integration)
    got = inversion._solve_log_shares(node_shares, w, y, -inversion._mean_index(m, a, B, w),
                                      InversionConfig())
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


# --- the inverse share map h = sigma^{-1}(., a) of Theorem 1 -------------------

FD_STEP = 1e-5


def fd_inverse_jacobian(m, y, a):
    """Central finite differences in y of invert_rows on the one market y (J,)."""
    cols = []
    for k in range(len(y)):
        e = np.zeros(len(y))
        e[k] = FD_STEP
        cols.append((invert_rows(m, [y + e], a) - invert_rows(m, [y - e], a))[0] / (2 * FD_STEP))
    return np.column_stack(cols)


def test_plain_logit_inverse_round_trip():
    m = plain_logit(alpha=0.5, gamma=(0.2,))
    a = market([0.0, 0.0], [1.0, 2.0], np.array([[0.3], [-0.4]]))
    y = np.array([[0.3, 0.2]])
    np.testing.assert_allclose(shares_array(m, invert_rows(m, y, a), a), y, atol=1e-14)


def test_plain_logit_inverse_rejects_boundary_shares():
    with pytest.raises(SimplexViolation, match="market 0: shares sum to"):
        invert_rows(plain_logit(), np.array([[0.7, 0.3]]), market([0.0, 0.0], [0.0, 0.0]))


def test_plain_logit_inverse_jacobian_matches_finite_differences():
    """d delta / dy of the logit inverse is diag(1 / y) + 1 / outside."""
    a = market([0.0, 0.0], [1.0, 2.0])
    y = np.array([0.25, 0.35])
    analytic = np.diag(1.0 / y) + 1.0 / (1.0 - y.sum())
    np.testing.assert_allclose(analytic, fd_inverse_jacobian(plain_logit(alpha=0.5), y, a),
                               atol=1e-6)


def test_mixed_logit_inverse_round_trip_and_jacobian():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    a = market([0.0, 0.0], [1.0, 2.0])
    y = np.array([0.3, 0.15])
    delta = invert_rows(m, [y], a)
    np.testing.assert_allclose(shares_array(m, delta, a), [y], atol=1e-11)
    P, w = _weighted_node_shares(m, delta, a, outside=True)
    np.testing.assert_allclose(np.linalg.inv(node_jacobian(P, w, w @ P)[0, :2]),
                               fd_inverse_jacobian(m, y, a), rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("m", [plain_logit(alpha=0.5, gamma=(0.2,)),
                               mixed_logit(lognormal_mixing(0.0, 0.5), gamma=(0.2,))],
                         ids=["plain-logit", "mixed-logit"])
def test_stacked_rows_match_one_market_calls(m):
    """Rows under one bundle repeated, or under Bundles of their own, give
    what each market gives on its own, and shares_array maps them back."""
    y = np.array([[0.3, 0.2], [0.1, 0.6], [0.25, 0.25]])
    a = bundle([0.0, 0.0], [1.0, 2.0], np.array([[0.3], [-0.4]]))
    for rows in (Bundles.repeat(a, 3),
                 Bundles.repeat(a, 3).replace(p=a.p + np.arange(3)[:, None])):
        one = np.concatenate([invert_rows(m, y[k:k + 1], rows[k:k + 1]) for k in range(3)])
        np.testing.assert_allclose(invert_rows(m, y, rows), one, rtol=0, atol=1e-12)
        np.testing.assert_allclose(shares_array(m, one, rows), y, rtol=0, atol=1e-11)


# --- a row's bits depend on that row alone -----------------------------------

ROW_MAPS = [mixed_logit(lognormal_mixing(0.0, 0.5)),
            mixed_logit(normal_mixing((1.0, 0.5), (0.3, 0.2)), gamma=(0.3, -0.2))]


@settings(max_examples=30, deadline=None)
@given(J=st.sampled_from([1, 1, 2, 3]), which=st.sampled_from([0, 1]), n=st.integers(2, 24),
       data=st.data())
def test_each_row_has_the_bits_it_has_alone(J, which, n, data):
    """shares_array, invert_rows and predict give every row the bits it
    gets alone: in any sub-batch, after a permutation of the rows, and on
    Fortran-ordered Bundles and delta. A BLAS gemv or gemm would round a row
    by its place in the batch and by the layout of its operands."""
    m = ROW_MAPS[which]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    delta = rng.uniform(-3.0, 1.0, (n, J))
    a = Bundles(rng.uniform(-1.0, 1.0, (n, J)), rng.uniform(0.5, 3.0, (n, J)),
                rng.uniform(-1.0, 1.0, (n, J, 2)))
    y = shares_array(m, delta, a)
    back = invert_rows(m, y, a)
    target = a.replace(p=a.p + 0.5)
    pred = predict(m, y, a, target)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    perm = rng.permutation(n)
    fortran = Bundles(*(np.asfortranarray(v) for v in (a.x1, a.p, a.x2)))
    for got, want in [
            (shares_array(m, delta[rows], a[rows]), y[rows]),
            (invert_rows(m, y[rows], a[rows]), back[rows]),
            (predict(m, y[rows], a[rows], target[rows]), pred[rows]),
            (shares_array(m, delta[perm], a[perm]), y[perm]),
            (invert_rows(m, y[perm], a[perm]), back[perm]),
            (predict(m, y[perm], a[perm], target[perm]), pred[perm]),
            (shares_array(m, np.asfortranarray(delta), fortran), y),
            (invert_rows(m, np.asfortranarray(y), fortran), back)]:
        np.testing.assert_array_equal(got, want)
    for i in rows[:3]:
        np.testing.assert_array_equal(shares_array(m, delta[i:i + 1], a[i:i + 1]), y[[i]])
        np.testing.assert_array_equal(invert_rows(m, y[i:i + 1], a[i:i + 1]), back[[i]])
