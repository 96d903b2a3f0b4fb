import numpy as np
import pytest
from scipy.special import expit, logit

from cdlab import demand
from cdlab import extrapolation as ex
from cdlab.acceptance import _pl_data, demeaned_oracle_data
from cdlab.counterfactual import predict
from cdlab.demand import plain_logit, shares_array
from cdlab.dgps import ScaledX1Spec, sample_scaled_x1_population
from cdlab.errors import ConfigError, NonUnique
from cdlab.inversion import invert_rows
from cdlab.streams import market_streams
from cdlab.types import Bundle, Bundles


@pytest.mark.parametrize("n", [1, 7, 401])
def test_oracle_data_draws_each_block_once(n):
    """Reference: every observation redraws its block's shock and permutation
    from the block's two substreams; a truncated last block included."""
    data, shocks, mu = demeaned_oracle_data(seed=12, n=n)
    assert len(data) == len(shocks) == n
    for i, (o, xi) in enumerate(zip(data, shocks)):
        block, pos = divmod(i, 4)
        ref_xi = float(market_streams(12, [[block, 1]]).normal(0.0, 0.8)[0])
        lev = int(market_streams(12, [[block, 2]]).permutation(4)[0, pos])
        assert xi == ref_xi
        # y to the bit: the reference applies the generator's own expit
        assert (o.y, o.a, list(o.z)) == (float(demand.expit(mu[lev] + ref_xi)), lev, [float(lev)])


def test_demeaned_fit_equals_per_cell_means():
    """With dummy instruments on a balanced design, the fitted mu are the
    per-level means of f(Y)."""
    data, _, _ = demeaned_oracle_data(seed=11, n=400)
    rule = ex.DemeanedRule.fit(data)
    ly = np.array([logit(float(o.y)) for o in data])
    lev = np.array([o.a for o in data])
    for k, level in enumerate(rule.levels):
        np.testing.assert_allclose(rule.mu[k], ly[lev == level].mean(),
                                   atol=1e-8)


def test_demeaned_oracle_recovers_counterfactuals_exactly():
    data, shocks, mu = demeaned_oracle_data(seed=3, n=800)
    rule = ex.DemeanedRule.fit(data)
    worst = 0.0
    for o, xi in zip(data[:200], shocks[:200]):
        for t in range(len(mu)):
            pred = ex.extrapolate(rule, o.y, o.a, t)
            worst = max(worst, abs(pred - float(expit(mu[t] + xi))))
    assert worst <= 1e-8


def test_extrapolate_requires_a_known_level():
    data, _, _ = demeaned_oracle_data(seed=1, n=80)
    rule = ex.DemeanedRule.fit(data)
    with pytest.raises(ConfigError):
        ex.extrapolate(rule, 0.4, 0, 99)


def test_extrapolate_returns_y_at_same_treatment():
    data, _, _ = demeaned_oracle_data(seed=2, n=80)
    for rule in (ex.DemeanedRule.fit(data), ex.QuantileRule.fit(data)):
        o = data[7]
        assert ex.extrapolate(rule, o.y, o.a, o.a) == o.y


def test_quantile_family_rank_round_trip():
    data, _, _ = demeaned_oracle_data(seed=4, n=400)
    rule = ex.QuantileRule.fit(data)
    o = data[10]
    u = rule.H(float(o.y), o.a)
    np.testing.assert_allclose(rule.H_inverse(u, o.a), float(o.y), atol=1e-10)
    # ranks transport monotonically across levels
    lo = ex.extrapolate(rule, float(o.y), o.a, rule.levels[0])
    hi = ex.extrapolate(rule, float(o.y) + 1e-3, o.a, rule.levels[0])
    assert hi > lo


def test_interp_extrap_interior_tails_and_round_trip():
    """Interpolation inside the knots, the end segments' slopes beyond them,
    and the swapped arguments as the inverse map."""
    xs, ys = np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 3.0])
    t = np.array([-0.5, 0.0, 0.25, 0.75, 1.0, 1.5])
    v = ex.interp_extrap(t, xs, ys)
    np.testing.assert_allclose(v, [-2.0, 0.0, 1.0, 2.5, 3.0, 4.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ex.interp_extrap(v, ys, xs), t, rtol=0, atol=1e-15)


def test_partially_linear_recovers_price_and_x2_coefficients():
    data = _pl_data(seed=6, n=1000)
    alpha, gamma = ex.PartiallyLinearRule.fit(data).theta
    assert abs(alpha - 1.3) < 0.1
    assert abs(gamma - 0.6) < 0.1


@pytest.mark.parametrize("x2", [True, False])
def test_partially_linear_rule_fits_one_coefficient_per_price_and_x2_column(x2):
    data = _pl_data(seed=6, n=200, x2=x2)
    assert len(ex.PartiallyLinearRule.fit(data).theta) == 1 + data.a.x2.shape[-1] == 1 + x2


def _nelder_mead_two_step(data):
    """Reference fit: the partially linear two-step GMM criterion minimised
    by Nelder-Mead, identity weight first, then the inverse covariance of
    the first step's moment contributions."""
    from scipy.optimize import minimize

    B = ex.instrument_basis(data)
    u = logit(data.y) - data.a.x1[:, 0]
    X = np.column_stack([data.a.p[:, 0], -data.a.x2[:, 0]])

    def contrib(theta):
        return (u + X @ theta)[:, None] * B

    def crit(theta, W):
        g = contrib(theta).mean(axis=0)
        return g @ W @ g

    def solve(W, start):
        return minimize(crit, start, args=(W,), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 20000}).x

    theta1 = solve(np.eye(B.shape[1]), np.zeros(X.shape[1]))
    W = np.linalg.inv(np.cov(contrib(theta1), rowvar=False, bias=True))
    return solve(W, theta1)


@pytest.mark.parametrize("seed,n,x2", [(6, 1000, True), (5, 300, False)])
def test_partially_linear_closed_form_matches_nelder_mead(seed, n, x2):
    data = _pl_data(seed, n, x2=x2)
    np.testing.assert_allclose(ex.PartiallyLinearRule.fit(data).theta,
                               _nelder_mead_two_step(data), atol=1e-7, rtol=0)


def test_partially_linear_nonunique_on_collinear_price_and_x2():
    """With x2 := p only alpha - gamma is identified: the moments are rank deficient."""
    data = _pl_data(seed=7, n=200)
    a = data.a
    collinear = ex.ObsSet(data.y, a.replace(x2=a.p[:, :, None]), data.z)
    with pytest.raises(NonUnique) as err:
        ex.PartiallyLinearRule.fit(collinear)
    assert len(err.value.candidates) >= 2


def test_sample_size_guard():
    data = _pl_data(seed=8, n=12)
    with pytest.raises(ConfigError, match="need at least 20 observations for 2 parameters"):
        ex.PartiallyLinearRule.fit(data)
    empty = demeaned_oracle_data(seed=8, n=0)[0]
    for fit in (ex.DemeanedRule.fit, ex.QuantileRule.fit):
        with pytest.raises(ConfigError, match="no observations"):
            fit(empty)


def test_instrument_basis_dummies_vs_polynomials():
    y, a = np.full(30, 0.5), np.zeros(30, dtype=int)
    few = ex.ObsSet(y, a, (np.arange(30) % 3).astype(float)[:, None])
    B = ex.instrument_basis(few)
    assert B.shape == (30, 3)
    many = ex.ObsSet(y, a, np.random.default_rng(0).normal(size=(30, 2)))
    B2 = ex.instrument_basis(many)
    assert B2.shape == (30, 6)  # 1, z1, z2, z1^2, z1 z2, z2^2


def test_instrument_basis_orders_one_column_dummies_as_sorted_rows():
    """A one-column Z's dummies follow the rows np.unique(Z, axis=0) sorts
    (negative, signed zero and tiny values among them), so the GMM moments
    keep their order."""
    z = np.random.default_rng(0).choice([2.5, -1.0, 0.0, -0.0, 7.0, 1e-300, -3e5], size=(80, 1))
    data = ex.ObsSet(np.full(80, 0.5), np.zeros(80, dtype=int), z)
    ref = np.column_stack([np.all(z == u, axis=1).astype(float)
                           for u in np.unique(z, axis=0)])
    assert np.array_equal(ex.instrument_basis(data), ref)


def test_check_prop32_demeaned_and_partially_linear():
    data, _, mu = demeaned_oracle_data(seed=9, n=200)
    gap = ex.check_prop32(ex.DemeanedRule.fit(data), data[:20], targets=list(range(len(mu))))
    assert gap <= 1e-10

    pl_data = _pl_data(seed=9, n=400)
    targets = pl_data.a[:5].replace(p=np.linspace(0.6, 2.8, 5)[:, None])
    assert ex.check_prop32(ex.PartiallyLinearRule.fit(pl_data), pl_data[:20], targets) <= 1e-10


def test_price_ccs_check_contrast():
    spec = ScaledX1Spec(market_count=60, seed=5)
    pop = sample_scaled_x1_population(spec)
    price, x1_error = ex.price_ccs_check(plain_logit(spec.alpha), pop, spec.truth,
                                         price_grid=np.linspace(0.6, 2.8, 5))
    assert price.passed
    assert (price.name, price.threshold, price.op) == ("price_counterfactual_error", 1e-8, "<=")
    assert price.value <= 1e-8
    assert max(x1_error.values()) > 0.01


def per_target_price_ccs(m, population, truth, price_grid):
    """`price_ccs_check` as it was: one `shares_array` and one truth call
    per target."""
    y, a = population.y, population.a
    v = invert_rows(m, y, a)
    max_price = 0.0
    for pp in price_grid:
        target = a.replace(p=np.full(a.p.shape, float(pp)))
        pred = shares_array(m, v, target)
        max_price = max(max_price, float(np.max(np.abs(pred - truth(population, target)))))
    target = a.replace(x1=a.x1 + 1.0)
    pred = shares_array(m, v - a.x1 + target.x1, target)
    err = np.abs(pred - truth(population, target)).max(axis=1)
    zeta = population.zeta
    return max_price, {z: float(err[zeta == z].max()) for z in dict.fromkeys(zeta.tolist())}


@pytest.mark.parametrize("n", [1, 60])
def test_stacked_price_ccs_check_is_the_per_target_check(n):
    """One `shares_array` and one truth call over the stacked targets give
    the per-target errors' bits."""
    spec = ScaledX1Spec(market_count=n, seed=5)
    pop = sample_scaled_x1_population(spec)
    args = (plain_logit(spec.alpha), pop, spec.truth, np.linspace(0.6, 2.8, 10))
    price, x1_error = ex.price_ccs_check(*args)
    assert (price.value, x1_error) == per_target_price_ccs(*args)


def test_price_ccs_check_with_an_empty_grid_is_a_config_error():
    spec = ScaledX1Spec(market_count=10, seed=5)
    with pytest.raises(ConfigError, match="price_grid"):
        ex.price_ccs_check(plain_logit(spec.alpha), sample_scaled_x1_population(spec),
                           spec.truth, price_grid=[])


def test_obs_set_rows():
    data, _, _ = demeaned_oracle_data(seed=2, n=10)
    assert len(data) == 10 and len(data[2:5]) == 3
    sub = data[np.array([7, 1])]
    np.testing.assert_array_equal(sub.y, data.y[[7, 1]])
    np.testing.assert_array_equal(sub.a, data.a[[7, 1]])
    o = data[7]
    assert (o.y, o.a, o.z.tolist()) == (data.y[7], data.a[7], [float(data.a[7])])
    pl = _pl_data(seed=2, n=10)
    row = pl[3]
    assert row.a.x1.shape == (1,) and row.a.x2.shape == (1, 1) and row.z.shape == (2,)
    assert len(pl[[0, 3]].a.p) == 2


# --- batched rules against the per-observation loop ---------------------------

def _loop_extrapolate(rule, data, targets):
    """Reference: one observation at a time, each with its own target."""
    return np.array([float(ex.extrapolate(rule, o.y, o.a, t)) for o, t in zip(data, targets)])


def _loop_structural(rule, o, t):
    """Reference: the structural prediction of one observation, as composed
    before the rules took arrays."""
    if isinstance(rule, ex.PartiallyLinearRule):
        m = plain_logit(alpha=rule.theta[0], gamma=rule.theta[1:])
        one = [Bundles.repeat(Bundle(b.x1, b.p, b.x2), 1) for b in (o.a, t)]
        return float(predict(m, np.array([[o.y]]), *one)[0, 0])
    base = rule.levels[0]
    if isinstance(rule, ex.DemeanedRule):
        mu = dict(zip(rule.levels, rule.mu))
        y0 = expit(logit(o.y) - mu[o.a] + mu[base])
        return float(expit(logit(y0) - mu[base] + mu[t]))
    y0 = rule.H_inverse(rule.H(float(o.y), o.a), base)
    return float(rule.H_inverse(rule.H(y0, base), t))


def _loop_prop32(rule, data, targets):
    return max(abs(float(ex.extrapolate(rule, o.y, o.a, t)) - _loop_structural(rule, o, t))
               for o in data for t in targets)


def _fitted_cases():
    """The three rules as criteria 5 and 6 fit them, each with observations
    and targets: every level, or price moves of observed bundles."""
    d5, _, mu = demeaned_oracle_data(seed=5)
    d6, _, _ = demeaned_oracle_data(seed=6, n=400)
    p5 = _pl_data(5, 300, x2=False)
    p6 = _pl_data(6, 1000)
    levels = list(range(len(mu)))
    prices = np.linspace(0.6, 2.8, 10)
    return [
        ("demeaned-5", ex.DemeanedRule.fit(d5), d5[:200], levels),
        ("quantile-5", ex.QuantileRule.fit(d5[:2000]), d5[:200], levels),
        ("pl-5", ex.PartiallyLinearRule.fit(p5), p5[:50], p5.a[:10].replace(p=prices[:, None])),
        ("demeaned-6", ex.DemeanedRule.fit(d6), d6[:50], levels),
        ("pl-6", ex.PartiallyLinearRule.fit(p6), p6[:50], p6.a[:10].replace(p=prices[:, None])),
    ]


@pytest.fixture(scope="module")
def fitted_cases():
    return _fitted_cases()


def test_batched_extrapolate_equals_the_per_observation_loop(fitted_cases):
    for name, rule, data, targets in fitted_cases:
        y, a = data.y, data.a
        for t in targets:  # one target for every row
            got = ex.extrapolate(rule, y, a, t)
            np.testing.assert_array_equal(got, _loop_extrapolate(rule, data, [t] * len(data)),
                                          err_msg=name)
        # one target per row, every third row at its own treatment
        rows = np.arange(len(data))
        own = rows % 3 == 0
        if isinstance(a, Bundles):
            moved = a.replace(p=np.where(own[:, None], a.p, a.p + 0.25))
            per_row = [o.a if k else o.a.replace(p=o.a.p + 0.25) for o, k in zip(data, own)]
        else:
            moved = np.where(own, a, (a + 1) % len(rule.levels))
            per_row = moved.tolist()
        got = ex.extrapolate(rule, y, a, moved)
        np.testing.assert_array_equal(got, _loop_extrapolate(rule, data, per_row), err_msg=name)
        np.testing.assert_array_equal(got[own], y[own], err_msg=name)
        assert ex.extrapolate(rule, y, a, a) is y  # all rows at their own treatment


def test_batched_check_prop32_equals_the_per_observation_loop(fitted_cases):
    for name, rule, data, targets in fitted_cases:
        got = ex.check_prop32(rule, data, targets)
        assert got == _loop_prop32(rule, data, targets), name
        assert got <= 1e-10, name


def test_batched_rules_name_a_level_outside_the_support(fitted_cases):
    _, rule, data, _ = fitted_cases[0]
    y, a = data[:8].y, data[:8].a
    with pytest.raises(ConfigError, match="treatment level 7 outside"):
        ex.extrapolate(rule, y, a, np.where(np.arange(8) == 5, 7, a))
    with pytest.raises(ConfigError, match="treatment level 9 outside"):
        rule.H(y, np.full(8, 9))
