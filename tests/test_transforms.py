import numpy as np
import pytest

from cdlab.demand import mixed_logit, share_jacobian
from cdlab.errors import InversionFailure
from cdlab.transforms import LogitInverse, MixedLogitInverse
from cdlab.types import Bundles, bundle, lognormal_mixing

FD_STEP = 1e-5


def fd_jacobian(h, y, a):
    """Central finite differences of h.apply in y."""
    cols = []
    for k in range(len(y)):
        e = np.zeros(len(y))
        e[k] = FD_STEP
        cols.append((h.apply(y + e, a) - h.apply(y - e, a)) / (2 * FD_STEP))
    return np.column_stack(cols)


def test_logit_inverse_round_trip():
    h = LogitInverse(alpha=0.5, gamma=(0.2,))
    a = bundle([0.0, 0.0], [1.0, 2.0], np.array([[0.3], [-0.4]]))
    y = np.array([0.3, 0.2])
    v = h.apply(y, a)
    np.testing.assert_allclose(h.invert(v, a), y, atol=1e-14)


def test_logit_inverse_rejects_boundary_shares():
    h = LogitInverse()
    with pytest.raises(InversionFailure):
        h.apply(np.array([0.7, 0.3]), bundle([0.0, 0.0], [0.0, 0.0]))


def test_logit_inverse_analytic_jacobian_matches_finite_differences():
    """dh/dy of the logit inverse is diag(1 / y) + 1 / outside."""
    h = LogitInverse(alpha=0.5)
    a = bundle([0.0, 0.0], [1.0, 2.0])
    y = np.array([0.25, 0.35])
    analytic = np.diag(1.0 / y) + 1.0 / (1.0 - y.sum())
    np.testing.assert_allclose(analytic, fd_jacobian(h, y, a), atol=1e-6)


def test_mixed_logit_inverse_round_trip_and_jacobian():
    """h inverts the share map, so dh/dy is the inverse share Jacobian."""
    h = MixedLogitInverse(mixed_logit(lognormal_mixing(0.0, 0.5)))
    a = bundle([0.0, 0.0], [1.0, 2.0])
    y = np.array([0.3, 0.15])
    v = h.apply(y, a)
    np.testing.assert_allclose(h.invert(v, a), y, atol=1e-11)
    np.testing.assert_allclose(np.linalg.inv(share_jacobian(h.map, v, a)),
                               fd_jacobian(h, y, a), rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("h", [LogitInverse(alpha=0.5, gamma=(0.2,)),
                               MixedLogitInverse(mixed_logit(lognormal_mixing(0.0, 0.5),
                                                             gamma=(0.2,)))])
def test_stacked_rows_match_one_market_calls(h):
    """Rows under one Bundle, or under Bundles of their own, give what each
    market gives on its own."""
    y = np.array([[0.3, 0.2], [0.1, 0.6], [0.25, 0.25]])
    a = bundle([0.0, 0.0], [1.0, 2.0], np.array([[0.3], [-0.4]]))
    rows = Bundles.stack([a.replace(p=a.p + k) for k in range(3)])
    one = np.array([h.apply(y[k], a) for k in range(3)])
    np.testing.assert_allclose(h.apply(y, a), one, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h.invert(one, a), y, rtol=0, atol=1e-11)
    own = np.array([h.apply(y[k], a.replace(p=a.p + k)) for k in range(3)])
    np.testing.assert_allclose(h.apply(y, rows), own, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h.invert(own, rows), y, rtol=0, atol=1e-11)
