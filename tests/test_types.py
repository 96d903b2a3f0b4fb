import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdlab.errors import ConfigError, SimplexViolation
from cdlab.types import (
    SIMPLEX_EPS,
    Bundle,
    MixingSpec,
    bundle,
    degenerate,
    finite_mixture,
    lognormal_mixing,
    normal_mixing,
    validate_share_rows,
)


class TestValidateShares:
    """validate_share_rows on one-row matrices: one market's share vector."""

    def test_accepts_interior_vector(self):
        s = validate_share_rows([[0.2, 0.3]])
        assert s.shape == (1, 2)
        assert 1.0 - s.sum() == pytest.approx(0.5)

    def test_rejects_zero_and_one(self):
        with pytest.raises(SimplexViolation, match="market 0: share outside"):
            validate_share_rows([[0.0, 0.5]])
        with pytest.raises(SimplexViolation, match="share outside"):
            validate_share_rows([[1.0]])

    def test_rejects_boundary_eps(self):
        with pytest.raises(SimplexViolation, match="share outside"):
            validate_share_rows([[SIMPLEX_EPS]])

    def test_rejects_sum_at_least_one(self):
        with pytest.raises(SimplexViolation, match="shares sum to 1.0 >="):
            validate_share_rows([[0.6, 0.4]])
        with pytest.raises(SimplexViolation, match="shares sum to"):
            validate_share_rows([[0.7, 0.5]])

    def test_rejects_non_finite(self):
        with pytest.raises(SimplexViolation, match="non-finite"):
            validate_share_rows([[np.nan]])
        with pytest.raises(SimplexViolation, match="non-finite"):
            validate_share_rows([[np.inf, 0.1]])

    def test_values_are_read_only(self):
        s = validate_share_rows([[0.5]])
        with pytest.raises(ValueError):
            s[0, 0] = 0.1

    @given(st.lists(st.floats(1e-6, 0.9), min_size=1, max_size=6))
    def test_any_scaled_interior_vector_validates(self, raw):
        v = np.array(raw)
        v = v / v.sum() * 0.9  # total mass 0.9 leaves the outside positive
        s = validate_share_rows(v[None])
        assert np.array_equal(s[0], v)
        assert 1.0 - s.sum() > 0


def _near_eps_rows():
    eps = SIMPLEX_EPS
    up, down = np.nextafter(eps, 1.0), np.nextafter(eps, 0.0)
    top = 1.0 - eps
    return [[eps], [up], [down], [2 * eps], [top], [np.nextafter(top, 0.0)],
            [np.nextafter(top, 1.0)], [0.5, 0.5 - eps], [0.5, np.nextafter(0.5 - eps, 0.0)],
            [0.5, 0.5 - 2 * eps], [up, up], [0.3, np.nan], [np.inf, 0.1], [0.2, 0.3]]


def _on_open_simplex(row) -> bool:
    """The rule, written out: every entry finite and in (eps, 1 - eps), and
    the row sum below 1 - eps, for eps = SIMPLEX_EPS."""
    eps = SIMPLEX_EPS
    return (all(math.isfinite(x) and eps < x < 1.0 - eps for x in row)
            and sum(row) < 1.0 - eps)


@pytest.mark.parametrize("row", _near_eps_rows())
def test_batched_validation_agrees_with_validate_shares(row):
    """validate_share_rows accepts a row exactly where the written-out rule
    does, alone or between two good rows, and names the failing market."""
    def accepted(values):
        try:
            validate_share_rows(values)
        except SimplexViolation:
            return False
        return True

    expected = _on_open_simplex(row)
    assert accepted([row]) == expected
    good = [0.1] * len(row)
    rows = np.array([good, row, good])
    assert accepted(rows) == expected
    if not expected:
        with pytest.raises(SimplexViolation, match="market 7:"):
            validate_share_rows(rows, ids=[6, 7, 8])


class TestBundle:
    def test_shapes_and_defaults(self):
        a = bundle([0.1, 0.2], [1.0, 2.0])
        assert a.J == 2
        assert a.x2.shape == (2, 0)

    def test_scalar_promotion(self):
        a = bundle(0.0, 1.5)
        assert a.J == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            Bundle(np.zeros(2), np.zeros(3), np.zeros((2, 0)))

    def test_replace_swaps_one_field(self):
        a = bundle([0.0], [1.0])
        b = a.replace(p=np.array([2.0]))
        assert b.p[0] == 2.0
        assert np.array_equal(b.x1, a.x1)

    def test_arrays_read_only(self):
        a = bundle([0.0], [1.0])
        with pytest.raises(ValueError):
            a.p[0] = 5.0


class TestMixingSpec:
    def test_kinds_validate(self):
        with pytest.raises(ConfigError):
            MixingSpec("triangular")

    def test_loc_scale_must_align(self):
        with pytest.raises(ConfigError):
            MixingSpec("normal", loc=(0.0, 1.0), scale=(1.0,))

    def test_positive_scale_required(self):
        with pytest.raises(ConfigError):
            normal_mixing(0.0, 0.0)

    def test_degenerate_dim(self):
        assert degenerate(1.0, 2.0).dim == 2

    def test_mixture_weights_on_simplex(self):
        comps = (lognormal_mixing(0.0, 1.0), lognormal_mixing(1.0, 1.0))
        with pytest.raises(ConfigError):
            finite_mixture((0.7, 0.7), comps)
        mix = finite_mixture((0.5, 0.5), comps)
        assert mix.dim == 1

    def test_mixture_requires_components(self):
        with pytest.raises(ConfigError):
            MixingSpec("finite-mixture", weights=(1.0,))
