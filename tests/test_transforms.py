import numpy as np
import pytest

from cdlab.demand import mixed_logit
from cdlab.errors import ConfigError, InversionFailure
from cdlab.transforms import (
    Affine,
    LogitInverse,
    MixedLogitInverse,
    MonotoneSpline,
    Phi,
)
from cdlab.types import bundle, lognormal_mixing


def test_logit_inverse_round_trip():
    h = LogitInverse(alpha=0.5, gamma=(0.2,))
    p = np.array([1.0, 2.0])
    x2 = np.array([[0.3], [-0.4]])
    y = np.array([0.3, 0.2])
    v = h.apply(y, p, x2)
    np.testing.assert_allclose(h.invert(v, p, x2), y, atol=1e-14)


def test_logit_inverse_rejects_boundary_shares():
    h = LogitInverse()
    with pytest.raises(InversionFailure):
        h.apply(np.array([0.7, 0.3]), np.zeros(2), np.zeros((2, 0)))


def test_logit_inverse_analytic_jacobian_matches_finite_differences():
    h = LogitInverse(alpha=0.5)
    p = np.array([1.0, 2.0])
    x2 = np.zeros((2, 0))
    y = np.array([0.25, 0.35])
    analytic = h.jac_y(y, p, x2)
    fd = super(LogitInverse, h).jac_y(y, p, x2)  # base-class FD fallback
    np.testing.assert_allclose(analytic, fd, atol=1e-6)


def test_mixed_logit_inverse_round_trip_and_jacobian():
    h = MixedLogitInverse(mixed_logit(lognormal_mixing(0.0, 0.5)))
    p = np.array([1.0, 2.0])
    x2 = np.zeros((2, 0))
    y = np.array([0.3, 0.15])
    v = h.apply(y, p, x2)
    np.testing.assert_allclose(h.invert(v, p, x2), y, atol=1e-11)
    fd = super(MixedLogitInverse, h).jac_y(y, p, x2)
    np.testing.assert_allclose(h.jac_y(y, p, x2), fd, rtol=1e-4, atol=1e-6)


def test_affine_round_trip_and_validation():
    h = Affine(A=[[2.0, 0.0], [1.0, 1.0]], b=[0.5, -0.5])
    y = np.array([0.2, 0.3])
    np.testing.assert_allclose(h.invert(h.apply(y, None, None), None, None),
                               y, atol=1e-14)
    with pytest.raises(ConfigError):
        Affine(A=[[1.0, 1.0], [1.0, 1.0]], b=[0.0, 0.0])


def test_monotone_spline_round_trip_including_tails():
    h = MonotoneSpline(knots=[0.0, 0.5, 1.0], values=[0.0, 2.0, 3.0])
    for y in (-0.5, 0.25, 0.75, 1.5):  # tails extrapolate linearly
        v = h.apply(np.array([y]), None, None)
        np.testing.assert_allclose(h.invert(v, None, None), [y], atol=1e-12)
    with pytest.raises(ConfigError):
        MonotoneSpline(knots=[0.0, 0.0], values=[0.0, 1.0])


def test_phi_is_the_baseline_slice_of_h():
    h = LogitInverse(alpha=0.5)
    a0 = bundle([0.3], [1.5])
    phi = Phi(h, a0)
    y = np.array([0.4])
    v = phi.inverse(y)
    np.testing.assert_allclose(phi.apply(v), y, atol=1e-14)
    np.testing.assert_allclose(v, h.apply_bundle(y, a0) - a0.x1)

