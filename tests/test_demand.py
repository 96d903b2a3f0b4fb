import warnings

import numpy as np
import pytest
import scipy.special

from cdlab.demand import (
    Integration,
    _fixed_index,
    _node_shares,
    _weighted_node_shares,
    expit,
    logit,
    mixed_logit,
    mixing_nodes,
    monte_carlo,
    node_jacobian,
    plain_logit,
    share_curve_1d,
    share_curve_slope_1d,
    shares_array,
)
from cdlab.errors import ConfigError, IntegrationFailure, SimplexViolation
from cdlab.types import (
    Bundles,
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
    validate_share_rows,
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


def market(x1, p, x2=None) -> Bundles:
    """The Bundles of one market: one row."""
    return Bundles.repeat(bundle(x1, p, x2), 1)


def observed(m, delta, a: Bundles) -> np.ndarray:
    """Validated shares (n, J) at the index rows delta under a."""
    return validate_share_rows(shares_array(m, np.atleast_2d(delta), a))


def test_plain_logit_matches_arithmetic_oracle():
    m = plain_logit(alpha=0.5, gamma=(0.3,))
    a = market([0.0, 0.0], [1.0, 2.0], np.array([[0.5], [-1.0]]))
    y = observed(m, [0.2, -0.4], a)
    np.testing.assert_allclose(y, [PLAIN_ORACLE], rtol=0, atol=1e-15)


def test_mixed_logit_matches_quadrature_oracle():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    y = observed(m, [0.5, -0.3], market([0.0, 0.0], [1.0, 2.0]))
    np.testing.assert_allclose(y, [MIXED_ORACLE], rtol=0, atol=1e-10)


def test_mixed_logit_within_three_monte_carlo_ses_of_oracle():
    m = mixed_logit(lognormal_mixing(0.0, 0.5))
    y = observed(m, [0.5, -0.3], market([0.0, 0.0], [1.0, 2.0]))
    np.testing.assert_allclose(y, [MIXED_MC_ORACLE], rtol=0, atol=1e-4)


def test_degenerate_mixing_equals_plain_logit_exactly():
    a = market([0.1, -0.2], [1.0, 2.5])
    delta = [0.4, -0.6]
    y_plain = observed(plain_logit(alpha=0.8), delta, a)
    y_mixed = observed(mixed_logit(degenerate(0.8)), delta, a)
    np.testing.assert_array_equal(y_plain, y_mixed)


def test_shares_overflow_safe_for_large_indices():
    # extreme indices must not overflow; the boundary values themselves are
    # rejected by the simplex validation, so check the raw array
    a = market([0, 0], [0, 0])
    s = shares_array(plain_logit(), np.array([[700.0, -700.0]]), a)
    assert np.all(np.isfinite(s))
    assert s[0, 0] > 1.0 - 1e-10 and s[0, 1] >= 0.0
    with pytest.raises(SimplexViolation, match="market 0:"):
        validate_share_rows(s)


def reduction_node_shares(T, outside=False):
    """`_node_shares` as it was, with numpy's reductions along the product
    axis."""
    peak = np.maximum(T.max(axis=-1, keepdims=True), 0.0)
    lse = peak + np.log(np.exp(-peak) + np.exp(T - peak).sum(axis=-1, keepdims=True))
    if outside:
        T = np.concatenate([T, np.zeros_like(lse)], axis=-1)
    return np.exp(T - lse)


@pytest.mark.parametrize("J", range(1, 31))
def test_node_shares_are_the_bits_of_the_reduction_formula(J):
    """Slice maxima and, below PAIRWISE_MIN products, slice sums give the
    reductions' bits: for (k, M, J) and micro's (n, G, M, J) node indices,
    moderate ones and ones up to +-700 (ties, underflowing terms, and rows
    whose every product sits far below the outside good)."""
    rng = np.random.default_rng(J)
    for shape in [(5, 32, J), (3, 4, 6, J)]:
        for T in (rng.normal(0.0, 3.0, shape), rng.uniform(-700.0, 700.0, shape),
                  rng.uniform(-700.0, -690.0, shape), np.round(rng.normal(0.0, 2.0, shape))):
            for outside in (False, True):
                got = _node_shares(T, outside)
                assert got.shape == shape[:-1] + (J + outside,)
                assert np.array_equal(got, reduction_node_shares(T, outside))


def test_delta_shape_and_finiteness_validated():
    a = market([0.0], [1.0])
    with pytest.raises(ConfigError, match="does not match J=1"):
        shares_array(plain_logit(), np.array([[0.1, 0.2]]), a)
    for m in (plain_logit(), mixed_logit(lognormal_mixing(0.0, 0.5))):
        with pytest.raises(ConfigError, match=r"delta shape \(1,\) is not \(markets, J\)"):
            shares_array(m, np.array([0.1]), a)
    with pytest.raises(IntegrationFailure):
        shares_array(mixed_logit(lognormal_mixing(0.0, 0.5)), np.array([[np.nan]]), a)
    with pytest.raises(SimplexViolation, match="non-finite"):
        observed(plain_logit(), [np.nan], a)


def node_shares(m, delta, a: Bundles):
    """Node shares P (n, M, J + 1), the outside good last, and weights w of
    the markets a at delta (n, J); plain logit is one node of weight 1."""
    if m.kind == "plain-logit":
        return _node_shares(delta + _fixed_index(m, a), outside=True)[:, None, :], np.ones(1)
    return _weighted_node_shares(m, delta, a, outside=True)


def test_share_jacobian_plain_closed_form():
    """One node of weight 1: diag(s) - s s' for the inside goods, and
    -s0 s' for the outside good."""
    m = plain_logit(alpha=0.5)
    a = market([0.0, 0.0], [1.0, 2.0])
    delta = np.array([[0.3, -0.2]])
    P, w = node_shares(m, delta, a)
    s = observed(m, delta, a)[0]
    s0 = 1.0 - s.sum()
    np.testing.assert_allclose(node_jacobian(P, w, w @ P)[0],
                               np.vstack([np.diag(s) - np.outer(s, s), -s0 * s]), atol=1e-15)


@pytest.mark.parametrize("m", [
    plain_logit(alpha=0.7),
    mixed_logit(lognormal_mixing(0.0, 0.5)),
    mixed_logit(normal_mixing((0.5, 0.2), (0.3, 0.4))),
])
def test_share_jacobian_matches_finite_differences(m):
    """Rows 0 and 1 of the Jacobian against central differences of the
    inside shares, row 2 against those of the outside share."""
    a = market([0.0, 0.0], [1.0, 2.0], np.array([[0.5], [-0.3]]))
    delta = np.array([[0.4, -0.1]])
    P, w = node_shares(m, delta, a)
    jac = node_jacobian(P, w, w @ P)[0]
    step = 1e-6
    fd = np.empty((3, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        diff = observed(m, delta + e, a)[0] - observed(m, delta - e, a)[0]
        fd[:, k] = np.append(diff, -diff.sum()) / (2 * step)
    np.testing.assert_allclose(jac, fd, atol=1e-9)


def test_finite_mixture_weights_average_components():
    comps = (lognormal_mixing(0.0, 0.5), lognormal_mixing(-0.5, 2.0))
    mix = finite_mixture((0.25, 0.75), comps)
    a = market([0.0], [1.5])
    delta = [0.3]
    y = observed(mixed_logit(mix), delta, a)
    parts = [observed(mixed_logit(c), delta, a) for c in comps]
    np.testing.assert_allclose(y, 0.25 * parts[0] + 0.75 * parts[1], atol=1e-14)


def test_monte_carlo_integration_deterministic_and_close():
    mix = lognormal_mixing(0.0, 0.5)
    a = market([0.0, 0.0], [1.0, 2.0])
    delta = [0.5, -0.3]
    m1 = mixed_logit(mix, integration=monte_carlo(200_000, seed=4))
    m2 = mixed_logit(mix, integration=monte_carlo(200_000, seed=4))
    y1, y2 = observed(m1, delta, a), observed(m2, delta, a)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_allclose(y1, [MIXED_ORACLE], atol=3e-3)


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


def test_expit_and_logit_are_silent_at_the_ends():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(-800.0) == 0.0 and expit(800.0) == 1.0
        np.testing.assert_array_equal(expit(np.array([-800.0, 800.0])), [0.0, 1.0])
        assert logit(0.0) == -np.inf and logit(1.0) == np.inf
        np.testing.assert_array_equal(logit(np.array([0.0, 1.0])), [-np.inf, np.inf])


def test_expit_writes_in_place_into_out():
    x = np.linspace(-5.0, 5.0, 11)
    want = expit(x)
    got = expit(x, out=x)
    assert got is x
    np.testing.assert_array_equal(x, want)


def test_expit_agrees_with_scipy_to_rounding():
    x = np.random.default_rng(0).normal(0.0, 3.0, 10**6)
    ref = scipy.special.expit(x)
    assert np.max(np.abs(expit(x) - ref) / ref) <= 4e-16


def test_logit_inverts_expit():
    """To the conditioning of the round trip: one rounding of y near 1 moves
    logit(y) by about eps / (1 - y)."""
    x = np.linspace(-30.0, 30.0, 60_001)
    y = expit(x)
    gap = np.abs(logit(y) - x)
    assert np.all(gap <= 4 * np.finfo(float).eps / (1.0 - y))
