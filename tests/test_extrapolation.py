import numpy as np
import pytest
from scipy.special import expit, logit

from cdlab import extrapolation as ex
from cdlab.acceptance import _pl_data, demeaned_oracle_data
from cdlab.counterfactual import CounterfactualEngine
from cdlab.demand import plain_logit
from cdlab.errors import ConfigError, NonUnique
from cdlab.population import market_rng
from cdlab.transforms import LogitInverse
from cdlab.types import Bundles, SharesVector, validate_shares


def test_rule_family_validation():
    with pytest.raises(ConfigError):
        ex.RuleFamily("spline")
    with pytest.raises(ConfigError):
        ex.demeaned_family("sqrt")


@pytest.mark.parametrize("n", [1, 7, 401])
def test_oracle_data_draws_each_block_once(n):
    """Reference: every observation redraws its block's shock and permutation
    from the block's two substreams; a truncated last block included."""
    data, shocks, mu = demeaned_oracle_data(seed=12, n=n)
    assert len(data) == len(shocks) == n
    for i, (o, xi) in enumerate(zip(data, shocks)):
        block, pos = divmod(i, 4)
        ref_xi = float(market_rng(12, block, 1).normal(0.0, 0.8))
        lev = int(market_rng(12, block, 2).permutation(4)[pos])
        assert xi == ref_xi
        assert (o.y, o.a, list(o.z)) == (float(expit(mu[lev] + ref_xi)), lev, [float(lev)])


def test_demeaned_fit_equals_per_cell_means():
    """With dummy instruments on a balanced design, the fitted mu are the
    per-level means of f(Y)."""
    data, _, _ = demeaned_oracle_data(seed=11, n=400)
    fam, _ = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    ly = np.array([logit(float(o.y)) for o in data])
    lev = np.array([o.a for o in data])
    for k, level in enumerate(fam.levels):
        np.testing.assert_allclose(fam.theta[k], ly[lev == level].mean(),
                                   atol=1e-8)


def test_demeaned_oracle_recovers_counterfactuals_exactly():
    data, shocks, mu = demeaned_oracle_data(seed=3, n=800)
    fam, _ = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    worst = 0.0
    for o, xi in zip(data[:200], shocks[:200]):
        for t in range(len(mu)):
            pred = ex.extrapolate(fam, o.y, o.a, t)
            worst = max(worst, abs(pred - float(expit(mu[t] + xi))))
    assert worst <= 1e-8


def test_extrapolate_requires_fit_and_known_level():
    with pytest.raises(ConfigError):
        ex.extrapolate(ex.demeaned_family("logit"), 0.4, 0, 1)
    data, _, _ = demeaned_oracle_data(seed=1, n=80)
    fam, _ = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    with pytest.raises(ConfigError):
        ex.extrapolate(fam, 0.4, 0, 99)


def test_extrapolate_returns_y_at_same_treatment():
    data, _, _ = demeaned_oracle_data(seed=2, n=80)
    for fam_proto in (ex.demeaned_family("logit"), ex.quantile_family()):
        fam, _ = ex.solve_orthogonality(fam_proto, data)
        o = data[7]
        assert ex.extrapolate(fam, o.y, o.a, o.a) == o.y


def test_quantile_family_rank_round_trip():
    data, _, _ = demeaned_oracle_data(seed=4, n=400)
    fam, _ = ex.solve_orthogonality(ex.quantile_family(), data)
    o = data[10]
    u = fam.H(float(o.y), o.a)
    np.testing.assert_allclose(fam.H_inverse(u, o.a), float(o.y), atol=1e-10)
    # ranks transport monotonically across levels
    lo = ex.extrapolate(fam, float(o.y), o.a, fam.levels[0])
    hi = ex.extrapolate(fam, float(o.y) + 1e-3, o.a, fam.levels[0])
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
    fam, _ = ex.solve_orthogonality(ex.partially_linear_family(n_params=2), data)
    alpha, gamma = fam.theta
    assert abs(alpha - 1.3) < 0.1
    assert abs(gamma - 0.6) < 0.1


def _nelder_mead_two_step(data):
    """Reference fit: the partially linear two-step GMM criterion minimised
    by Nelder-Mead, identity weight first, then the inverse covariance of
    the first step's moment contributions."""
    from scipy.optimize import minimize

    B = ex.instrument_basis(data)
    u = logit([float(o.y.values[0]) for o in data]) - np.array([o.a.x1[0] for o in data])
    X = np.array([np.concatenate([o.a.p, -o.a.x2[0]]) for o in data])

    def contrib(theta):
        return (u + X @ theta)[:, None] * B

    def crit(theta, W):
        g = contrib(theta).mean(axis=0)
        return g @ W @ g

    def solve(W, start):
        return minimize(crit, start, args=(W,), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-30, "maxiter": 20000}).x

    theta1 = solve(np.eye(B.shape[1]), np.zeros(X.shape[1]))
    W = np.linalg.inv(np.cov(contrib(theta1), rowvar=False, bias=True))
    return solve(W, theta1)


@pytest.mark.parametrize("seed,n,x2", [(6, 1000, True), (5, 300, False)])
def test_partially_linear_closed_form_matches_nelder_mead(seed, n, x2):
    data = _pl_data(seed, n, x2=x2)
    family = ex.partially_linear_family(n_params=2 if x2 else 1)
    fam, _ = ex.solve_orthogonality(family, data)
    np.testing.assert_allclose(fam.theta, _nelder_mead_two_step(data), atol=1e-7, rtol=0)


def test_refitting_a_fitted_family_keeps_its_dimension():
    data = _pl_data(seed=6, n=200)
    fam, _ = ex.solve_orthogonality(ex.partially_linear_family(n_params=2), data)
    refit, _ = ex.solve_orthogonality(fam, data)
    assert refit.n_params == 2
    np.testing.assert_array_equal(refit.theta, fam.theta)


def test_partially_linear_nonunique_with_redundant_param_map():
    data = _pl_data(seed=7, n=200, x2=False)
    fam = ex.partially_linear_family(param_map=((1.0, 1.0),))
    with pytest.raises(NonUnique) as err:
        ex.solve_orthogonality(fam, data)
    assert len(err.value.candidates) >= 2


def test_sample_size_guard():
    data = _pl_data(seed=8, n=12)
    with pytest.raises(ConfigError):
        ex.solve_orthogonality(ex.partially_linear_family(n_params=2), data)
    for family in (ex.demeaned_family("logit"), ex.quantile_family()):
        with pytest.raises(ConfigError, match="no observations"):
            ex.solve_orthogonality(family, demeaned_oracle_data(seed=8, n=0)[0])


def test_instrument_basis_dummies_vs_polynomials():
    few = [ex.Obs(0.5, 0, np.array([float(k % 3)])) for k in range(30)]
    B = ex.instrument_basis(few)
    assert B.shape == (30, 3)
    rng = market_rng(0, 0)
    many = [ex.Obs(0.5, 0, rng.normal(size=2)) for _ in range(30)]
    B2 = ex.instrument_basis(many, degree=2)
    assert B2.shape == (30, 6)  # 1, z1, z2, z1^2, z1 z2, z2^2


def test_check_prop32_demeaned_and_partially_linear():
    data, _, mu = demeaned_oracle_data(seed=9, n=200)
    dfam, _ = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    rep = ex.check_prop32(dfam, data[:20], targets=list(range(len(mu))))
    assert rep.passed and rep.max_gap <= 1e-10

    pl_data = _pl_data(seed=9, n=400)
    pfam, _ = ex.solve_orthogonality(ex.partially_linear_family(n_params=2), pl_data)
    targets = [o.a.replace(p=np.array([pp]))
               for o, pp in zip(pl_data[:5], np.linspace(0.6, 2.8, 5))]
    rep2 = ex.check_prop32(pfam, pl_data[:20], targets=targets)
    assert rep2.passed and rep2.max_gap <= 1e-10


def test_price_ccs_check_contrast():
    from cdlab.dgps import ScaledX1Spec, sample_scaled_x1_population

    spec = ScaledX1Spec(market_count=60, seed=5)
    pop = sample_scaled_x1_population(spec)
    h = LogitInverse(alpha=spec.alpha, gamma=())
    rep = ex.price_ccs_check(h, pop, spec.truth,
                             price_grid=np.linspace(0.6, 2.8, 5))
    assert rep.price_correct
    assert rep.max_price_error <= 1e-8
    assert max(rep.x1_error_by_type.values()) > 0.01


# --- batched rules against the per-observation loop ---------------------------

def _value(y):
    return float(y.values[0]) if isinstance(y, SharesVector) else float(y)


def _loop_extrapolate(fam, data, targets):
    """Reference: one observation at a time, each with its own target."""
    return np.array([_value(ex.extrapolate(fam, o.y, o.a, t)) for o, t in zip(data, targets)])


def _loop_structural(fam, o, t):
    """Reference: the structural prediction of one observation, as composed
    before the rules took arrays."""
    if fam.kind == "partially-linear-index":
        c = fam._pl_coeffs()
        engine = CounterfactualEngine(plain_logit(alpha=float(c[0]), gamma=tuple(c[1:])))
        return float(engine.predict(o.y, o.a, t).values[0])
    base = fam.levels[0]
    if fam.kind == "demeaned-transform":
        mu = dict(zip(fam.levels, fam.theta))
        y0 = expit(logit(o.y) - mu[o.a] + mu[base])
        return float(expit(logit(y0) - mu[base] + mu[t]))
    y0 = fam.H_inverse(fam.H(float(o.y), o.a), base)
    return float(fam.H_inverse(fam.H(y0, base), t))


def _loop_prop32(fam, data, targets):
    return max(abs(_value(ex.extrapolate(fam, o.y, o.a, t)) - _loop_structural(fam, o, t))
               for o in data for t in targets)


def _fitted_cases():
    """The three families as criteria 5 and 6 fit them, each with observations
    and targets: every level, or price moves of observed bundles."""
    d5, _, mu = demeaned_oracle_data(seed=5)
    d6, _, _ = demeaned_oracle_data(seed=6, n=400)
    p5 = _pl_data(5, 300, x2=False)
    p6 = _pl_data(6, 1000)
    levels = list(range(len(mu)))
    prices = np.linspace(0.6, 2.8, 10)
    fit = lambda fam, data: ex.solve_orthogonality(fam, data)[0]  # noqa: E731
    return [
        ("demeaned-5", fit(ex.demeaned_family("logit"), d5), d5[:200], levels),
        ("quantile-5", fit(ex.quantile_family(), d5[:2000]), d5[:200], levels),
        ("pl-5", fit(ex.partially_linear_family(n_params=1), p5), p5[:50],
         [o.a.replace(p=np.array([pp])) for o, pp in zip(p5[:10], prices)]),
        ("demeaned-6", fit(ex.demeaned_family("logit"), d6), d6[:50], levels),
        ("pl-6", fit(ex.partially_linear_family(n_params=2), p6), p6[:50],
         [o.a.replace(p=np.array([pp])) for o, pp in zip(p6[:10], prices)]),
    ]


@pytest.fixture(scope="module")
def fitted_cases():
    return _fitted_cases()


def test_batched_extrapolate_equals_the_per_observation_loop(fitted_cases):
    for name, fam, data, targets in fitted_cases:
        y, a = ex.stack_obs(data)
        for t in targets:  # one target for every row
            got = ex.extrapolate(fam, y, a, t)
            np.testing.assert_array_equal(got, _loop_extrapolate(fam, data, [t] * len(data)),
                                          err_msg=name)
        # one target per row, every third row at its own treatment
        rows = np.arange(len(data))
        own = rows % 3 == 0
        if isinstance(a, Bundles):
            moved = a.replace(p=np.where(own[:, None], a.p, a.p + 0.25))
            per_row = [o.a if k else o.a.replace(p=o.a.p + 0.25) for o, k in zip(data, own)]
        else:
            moved = np.where(own, a, (a + 1) % len(fam.levels))
            per_row = moved.tolist()
        got = ex.extrapolate(fam, y, a, moved)
        np.testing.assert_array_equal(got, _loop_extrapolate(fam, data, per_row), err_msg=name)
        np.testing.assert_array_equal(got[own], y[own], err_msg=name)
        assert ex.extrapolate(fam, y, a, a) is y  # all rows at their own treatment


def test_batched_check_prop32_equals_the_per_observation_loop(fitted_cases):
    for name, fam, data, targets in fitted_cases:
        got = ex.check_prop32(fam, data, targets).max_gap
        assert got == _loop_prop32(fam, data, targets), name
        assert got <= 1e-10, name


def test_batched_rules_name_a_level_outside_the_support(fitted_cases):
    _, fam, data, _ = fitted_cases[0]
    y, a = ex.stack_obs(data[:8])
    with pytest.raises(ConfigError, match="treatment level 7 outside"):
        ex.extrapolate(fam, y, a, np.where(np.arange(8) == 5, 7, a))
    with pytest.raises(ConfigError, match="treatment level 9 outside"):
        fam.H(y, np.full(8, 9))
