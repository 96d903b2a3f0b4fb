import numpy as np
import pytest

from cdlab.demand import (
    Integration,
    mixed_logit,
    mixing_nodes,
    monte_carlo,
    plain_logit,
    share_curve_1d,
    share_curve_slope_1d,
    share_jacobian,
    shares,
    shares_array,
)
from cdlab.errors import ConfigError, IntegrationFailure, SimplexViolation
from cdlab.types import (
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
)

# Closed-form arithmetic oracle: alpha=0.5, gamma=(0.3,),
# delta=[0.2,-0.4], p=[1,2], x2=[[0.5],[-1.0]]
# index = delta - 0.5 p + 0.3 x2 = [-0.15, -1.7]; share = e^idx / (1 + sum e^idx)
PLAIN_ORACLE = np.array([0.42121540401034474, 0.089402116045808652])

# Adaptive-quadrature oracle (scipy.integrate.quad over the underlying
# normal, abs err < 3e-11): lognormal(0, 0.5) price coefficient,
# delta=[0.5,-0.3], p=[1,2]
MIXED_ORACLE = np.array([0.33367905311901808, 0.062123563800490618])

# Monte Carlo oracle: same configuration, 2e7 draws, SE ~ 2.1e-5
MIXED_MC_ORACLE = np.array([0.3336256, 0.06210349])

# quad oracle for the scalar curve: lognormal(0,0.5), delta=0.3, p=1.5
CURVE_ORACLE = 0.2293504581567893


def test_plain_logit_matches_arithmetic_oracle():
    m = plain_logit(alpha=0.5, gamma=(0.3,))
    a = bundle([0.0, 0.0], [1.0, 2.0], np.array([[0.5], [-1.0]]))
    y = shares(m, np.array([0.2, -0.4]), a)
    np.testing.assert_allclose(y.values, PLAIN_ORACLE, rtol=0, atol=1e-15)


def test_mixed_logit_matches_quadrature_oracle():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    y = shares(m, np.array([0.5, -0.3]), bundle([0.0, 0.0], [1.0, 2.0]))
    np.testing.assert_allclose(y.values, MIXED_ORACLE, rtol=0, atol=1e-10)


def test_mixed_logit_within_three_monte_carlo_ses_of_oracle():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    y = shares(m, np.array([0.5, -0.3]), bundle([0.0, 0.0], [1.0, 2.0]))
    np.testing.assert_allclose(y.values, MIXED_MC_ORACLE, rtol=0, atol=1e-4)


def test_degenerate_mixing_equals_plain_logit_exactly():
    a = bundle([0.1, -0.2], [1.0, 2.5])
    delta = np.array([0.4, -0.6])
    y_plain = shares(plain_logit(alpha=0.8), delta, a)
    y_mixed = shares(mixed_logit(degenerate(0.8)), delta, a)
    np.testing.assert_array_equal(y_plain.values, y_mixed.values)


def test_shares_overflow_safe_for_large_indices():
    # extreme indices must not overflow; the boundary values themselves are
    # rejected by the simplex validation in shares(), so check the raw array
    s = shares_array(plain_logit(), np.array([700.0, -700.0]),
                     bundle([0, 0], [0, 0]))
    assert np.all(np.isfinite(s))
    assert s[0] > 1.0 - 1e-10 and s[1] >= 0.0
    with pytest.raises(SimplexViolation):
        shares(plain_logit(), np.array([700.0, -700.0]), bundle([0, 0], [0, 0]))


def test_delta_shape_and_finiteness_validated():
    m = plain_logit()
    a = bundle([0.0], [1.0])
    with pytest.raises(ConfigError):
        shares(m, np.array([0.1, 0.2]), a)
    with pytest.raises(IntegrationFailure):
        shares(m, np.array([np.nan]), a)


def test_share_jacobian_plain_closed_form():
    m = plain_logit(alpha=0.5)
    a = bundle([0.0, 0.0], [1.0, 2.0])
    delta = np.array([0.3, -0.2])
    s = shares(m, delta, a).values
    np.testing.assert_allclose(share_jacobian(m, delta, a),
                               np.diag(s) - np.outer(s, s), atol=1e-15)


@pytest.mark.parametrize("m", [
    plain_logit(alpha=0.7),
    mixed_logit(lognormal_mixing(0.0, 0.5)),
    mixed_logit(normal_mixing((0.5, 0.2), (0.3, 0.4))),
])
def test_share_jacobian_matches_finite_differences(m):
    a = bundle([0.0, 0.0], [1.0, 2.0], np.array([[0.5], [-0.3]]))
    delta = np.array([0.4, -0.1])
    jac = share_jacobian(m, delta, a)
    step = 1e-6
    fd = np.empty((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        fd[:, k] = (shares(m, delta + e, a).values
                    - shares(m, delta - e, a).values) / (2 * step)
    np.testing.assert_allclose(jac, fd, atol=1e-9)


def test_finite_mixture_weights_average_components():
    comps = (lognormal_mixing(0.0, 0.5), lognormal_mixing(-0.5, 2.0))
    mix = finite_mixture((0.25, 0.75), comps)
    a = bundle([0.0], [1.5])
    delta = np.array([0.3])
    y = shares(mixed_logit(mix), delta, a).values
    parts = [shares(mixed_logit(c), delta, a).values for c in comps]
    np.testing.assert_allclose(y, 0.25 * parts[0] + 0.75 * parts[1], atol=1e-14)


def test_monte_carlo_integration_deterministic_and_close():
    mix = lognormal_mixing(0.0, 0.5)
    a = bundle([0.0, 0.0], [1.0, 2.0])
    delta = np.array([0.5, -0.3])
    m1 = mixed_logit(mix, integration=monte_carlo(200_000, seed=4))
    m2 = mixed_logit(mix, integration=monte_carlo(200_000, seed=4))
    y1, y2 = shares(m1, delta, a), shares(m2, delta, a)
    np.testing.assert_array_equal(y1.values, y2.values)
    np.testing.assert_allclose(y1.values, MIXED_ORACLE, atol=3e-3)


def test_monte_carlo_nodes_are_cached_and_read_only():
    mix = finite_mixture((0.5, 0.5), (lognormal_mixing(0.0, 0.5),
                                      lognormal_mixing(-0.5, 2.0)))
    b1, w1 = mixing_nodes(mix, monte_carlo(300, seed=7))
    b2, w2 = mixing_nodes(mix, monte_carlo(300, seed=7))
    np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(w1, w2)
    for arr in (b1, w1, b2, w2):
        assert not arr.flags.writeable


def test_integration_validation():
    with pytest.raises(ConfigError):
        Integration("trapezoid")
    with pytest.raises(ConfigError):
        Integration("gauss-hermite", nodes=0)


def test_mixing_nodes_weights_sum_to_one():
    for mix in (degenerate(1.0), lognormal_mixing(0.0, 0.5),
                normal_mixing((0.0, 0.0), (1.0, 1.0)),
                finite_mixture((0.5, 0.5), (lognormal_mixing(0.0, 0.5),
                                            lognormal_mixing(-0.5, 2.0)))):
        _, w = mixing_nodes(mix, Integration("gauss-hermite", nodes=16))
        assert abs(w.sum() - 1.0) < 1e-12


def test_share_curve_1d_matches_quadrature_oracle():
    v = share_curve_1d(lognormal_mixing(0.0, 0.5), np.array(0.3), np.array(1.5))
    assert abs(float(v) - CURVE_ORACLE) < 1e-11


def test_share_curve_slope_matches_finite_differences():
    mix = lognormal_mixing(0.0, 0.5)
    delta, p, step = np.array(0.3), np.array(1.5), 1e-6
    slope = float(share_curve_slope_1d(mix, delta, p))
    fd = float(share_curve_1d(mix, delta, p + step)
               - share_curve_1d(mix, delta, p - step)) / (2 * step)
    assert abs(slope - fd) < 1e-9


def test_share_curve_1d_broadcasts():
    mix = lognormal_mixing(0.0, 0.5)
    grid = np.linspace(0.5, 3.0, 7)
    vec = share_curve_1d(mix, np.full(7, 0.3), grid)
    point = [float(share_curve_1d(mix, np.array(0.3), np.array(p))) for p in grid]
    np.testing.assert_allclose(vec, point, atol=1e-15)
