import numpy as np
import pytest

from cdlab import micro as mi
from cdlab.demand import _gh_nodes
from cdlab.errors import ConfigError, NotIdentified, RootNotBracketed
from cdlab.types import Bundle, normal_mixing


def dgp_1d(**kwargs):
    return mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.8]),
                       alpha=1.0, nu_nodes=16, **kwargs)


def dgp_2d():
    return mi.MicroDgp(Pi=np.array([[1.0, 0.2], [0.0, 0.8]]),
                       sigma=np.array([0.5, 0.3]), alpha=0.7, nu_nodes=8)


def spec_1d(n=20, seed=0, **kwargs):
    return mi.MicroPopulationSpec(market_count=n, price_levels=(1.5,),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 9)),
                                  seed=seed, **kwargs)


def test_dgp_validation():
    with pytest.raises(ConfigError):
        mi.MicroDgp(Pi=np.array([[1.0, 1.0], [1.0, 1.0]]),
                    sigma=np.array([0.5, 0.5]), alpha=1.0)
    with pytest.raises(ConfigError):
        mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([-0.1]), alpha=1.0)


def test_micro_invert_round_trip_1d():
    dgp = dgp_1d()
    delta = np.linspace(-3.0, 3.0, 11)
    p = np.full(11, 1.5)
    y = mi.micro_shares_1d(dgp, delta, p)
    np.testing.assert_allclose(mi.micro_invert_1d(dgp, y, p), delta, atol=1e-10)


def test_micro_invert_round_trip_2d():
    dgp = dgp_2d()
    p = np.array([1.0, 2.0])
    for delta in ([0.5, -0.3], [2.0, 1.0], [-2.0, 0.5], [4.0, 3.5]):
        delta = np.array(delta)
        y = mi.micro_shares(dgp, delta, p)
        back = mi.micro_invert(dgp, y, p)
        np.testing.assert_allclose(back, delta, atol=1e-9)
        # converged in the log-share residual too, not only the share residual
        np.testing.assert_allclose(np.log(mi.micro_shares(dgp, back, p)), np.log(y),
                                   atol=1e-12, rtol=0)


def test_profile_validation():
    with pytest.raises(ConfigError):
        mi.Profile(np.zeros((3, 1)), np.full((2, 1), 0.3))


def test_w_grid_is_g_by_j_or_1d_only_at_j_1():
    shares = np.full((2, 2), 0.3)
    np.testing.assert_array_equal(mi._w_matrix((0.0, 0.5, 1.0), 1), [[0.0], [0.5], [1.0]])
    assert mi.Profile(np.zeros((2, 2)), shares).w_grid.shape == (2, 2)
    # a 1-d grid of 4 values at J = 2 used to be read silently as 2 pairs
    with pytest.raises(ConfigError):
        mi._w_matrix(np.arange(4.0), 2)
    with pytest.raises(ConfigError):
        mi.Profile(np.arange(4.0), shares)
    with pytest.raises(ConfigError):  # (J, G) instead of (G, J)
        mi.Profile(np.zeros((1, 3)), np.full((3, 1), 0.3))


def _scattered_normal_grid(sigma, n):
    """The construction _nu_nodes replaces: the Gauss-Hermite grid of
    normal_mixing(0, sigma[active]), built from hermgauss, scattered into
    the active columns."""
    active = sigma > 0
    k = int(active.sum())
    x, w = np.polynomial.hermite.hermgauss(n)
    w = w / np.sqrt(np.pi)
    z = np.stack([g.ravel() for g in np.meshgrid(*([x] * k), indexing="ij")], axis=1)
    wts = np.prod(np.stack([g.ravel() for g in np.meshgrid(*([w] * k), indexing="ij")],
                           axis=1), axis=1)
    nu = np.zeros((len(z), len(sigma)))
    nu[:, active] = np.zeros(k) + np.sqrt(2.0) * sigma[active] * z
    return nu, wts


@pytest.mark.parametrize("sigma", [[0.8], [0.5, 0.0, 0.3], [0.2, 0.7, 1.1]])
@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_nu_nodes_are_bit_identical_to_the_scattered_normal_grid(sigma, n):
    """1, 2 and 3 active dimensions, through the shared cached grid."""
    sigma = np.array(sigma)
    ref, w_ref = _scattered_normal_grid(sigma, n)
    nu, w = mi._nu_nodes(sigma, n)
    assert nu.tobytes() == ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()
    active = sigma > 0
    b, w_gh = _gh_nodes(normal_mixing(np.zeros(active.sum()), sigma[active]), n)
    assert b.tobytes() == ref[:, active].tobytes() and w_gh.tobytes() == w_ref.tobytes()


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec_1d(assignment="blocked")
    with pytest.raises(ConfigError):
        mi.MicroPopulationSpec(market_count=8, price_levels=(1.0, 2.0),
                               w_grid=(0.0, 1.0), assignment="stratified",
                               endogeneity=0.5)


def test_simulate_micro_deterministic_and_prefix_stable():
    dgp = dgp_1d()
    a = mi.simulate_micro(dgp, spec_1d(n=6, seed=3))
    b = mi.simulate_micro(dgp, spec_1d(n=10, seed=3))
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma.profile.shares, mb.profile.shares)
        np.testing.assert_array_equal(ma.xi, mb.xi)


def test_stratified_assignment_is_balanced_with_shared_shocks():
    dgp = dgp_1d()
    spec = mi.MicroPopulationSpec(market_count=12, price_levels=(0.5, 1.0, 2.0),
                                  w_grid=(0.0, 0.5), seed=0,
                                  assignment="stratified")
    markets = mi.simulate_micro(dgp, spec)
    for b in range(4):
        block = markets[3 * b:3 * b + 3]
        assert sorted(m.level for m in block) == [0, 1, 2]
        assert len({float(m.xi[0]) for m in block}) == 1


def test_endogeneity_correlates_level_with_shock():
    dgp = dgp_1d()
    spec = mi.MicroPopulationSpec(market_count=400, price_levels=(0.5, 1.0, 2.0),
                                  w_grid=(0.0, 0.5), seed=1, endogeneity=0.8)
    markets = mi.simulate_micro(dgp, spec)
    xi = np.array([float(m.xi[0]) for m in markets])
    lev = np.array([m.level for m in markets])
    zl = np.array([m.z_level for m in markets])
    assert np.corrcoef(xi, lev - zl)[0, 1] > 0.3
    assert abs(np.corrcoef(xi, zl)[0, 1]) < 0.15  # Z stays exogenous


def test_parallel_residual_true_vs_identity():
    dgp = dgp_1d()
    spec = spec_1d(n=20, seed=2)
    markets = mi.simulate_micro(dgp, spec)
    a = spec.level_bundle(dgp, 0)
    profiles = [m.profile for m in markets]
    assert mi.parallel_residual(mi.truth_candidate(dgp), profiles, a) <= 1e-8
    assert mi.parallel_residual(mi.identity_candidate(), profiles, a) > 0.01
    assert mi.parallel_residual(mi.logit_candidate(), profiles, a) > 0.01


def test_parallel_residual_single_profile_warns():
    dgp = dgp_1d()
    spec = spec_1d(n=1)
    markets = mi.simulate_micro(dgp, spec)
    with pytest.warns(UserWarning):
        r = mi.parallel_residual(mi.identity_candidate(),
                                 [markets[0].profile], spec.level_bundle(dgp, 0))
    assert r == 0.0


def test_identify_h_and_g_recovers_sigma():
    dgp = dgp_1d()
    spec = spec_1d(n=30, seed=5)
    markets = mi.simulate_micro(dgp, spec)
    a = spec.level_bundle(dgp, 0)
    cand = mi.identify_h_and_g(mi.sigma_family(dgp, alpha_fixed=0.0),
                               [m.profile for m in markets], a,
                               y0=np.array([0.3]), starts=3, seed=0)
    assert abs(abs(cand.params[0]) - 0.8) < 1e-4
    assert cand.residual <= 1e-6
    # recovered index matches Pi w - Pi w0 up to the enforced normalization
    g_true = (cand.w_grid - cand.w_grid[cand.w0_index]) @ dgp.Pi.T
    np.testing.assert_allclose(cand.g_hat, g_true, atol=1e-5)


def test_identify_raises_not_identified_on_flat_family():
    """On a plain-logit DGP every scaled-logit candidate is parallel, and
    different scales are not vertical shifts of each other."""
    dgp = mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.0]),
                      alpha=1.0, nu_nodes=4)
    spec = spec_1d(n=15, seed=6)
    markets = mi.simulate_micro(dgp, spec)
    with pytest.raises(NotIdentified) as err:
        mi.identify_h_and_g(mi.scaled_logit_family(),
                            [m.profile for m in markets],
                            spec.level_bundle(dgp, 0), starts=6, seed=0)
    assert len(err.value.candidates) == 2


def complete_small_model(seed=0):
    dgp = dgp_1d()
    K = 3
    spec = mi.MicroPopulationSpec(market_count=60,
                                  price_levels=(0.5, 1.25, 2.0),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 12)),
                                  seed=seed, assignment="stratified")
    markets = mi.simulate_micro(dgp, spec)
    levels = [spec.level_bundle(dgp, k) for k in range(K)]
    fam = mi.sigma_family(dgp, alpha_fixed=0.0)
    y0 = np.array([0.3])
    cands = [mi.identify_h_and_g(fam, [m.profile for m in markets if m.level == k],
                                 levels[k], y0=y0, starts=2, seed=seed + k)
             for k in range(K)]
    model = mi.instrument_step(cands, markets, levels)
    return dgp, spec, markets, levels, model


def test_instrument_step_and_prediction_under_stratification():
    dgp, spec, markets, levels, model = complete_small_model()
    worst = 0.0
    for m in markets[:12]:
        target = (m.level + 1) % 3
        pred = model.predict_profile(m, target)
        true = mi.true_profile(dgp, m.xi, levels[target], spec.w_grid).shares
        worst = max(worst, float(np.max(np.abs(pred - true))))
    assert worst <= 1e-6


def test_price_coefficient_from_levels():
    *_, model = complete_small_model()
    alpha_hat = mi.price_coefficient_from_levels(model)
    assert abs(alpha_hat - 1.0) < 1e-6


def test_verify_theorem2_passes_under_index_structure():
    dgp = dgp_1d()
    spec = mi.MicroPopulationSpec(market_count=10, price_levels=(0.8, 1.6),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 6)),
                                  seed=7)
    markets = mi.simulate_micro(dgp, spec)
    a0 = spec.level_bundle(dgp, 0)
    rep = mi.verify_theorem2(dgp, markets, a0)
    assert rep.passed
    assert rep.max_profile_conversion <= 1e-8
    assert rep.max_parallel_paths <= 1e-8
    assert rep.max_transformed_shift <= 1e-8


def test_verify_theorem2_fails_when_index_structure_breaks():
    dgp = dgp_1d(sigma_w_slope=0.6)
    spec = mi.MicroPopulationSpec(market_count=10, price_levels=(0.8, 1.6),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 6)),
                                  seed=8)
    markets = mi.simulate_micro(dgp, spec)
    rep = mi.verify_theorem2(dgp, markets, spec.level_bundle(dgp, 0))
    assert not rep.passed


def test_unreachable_candidate_value_is_a_numerical_failure():
    cand = mi.MicroCandidate(h=mi.identity_candidate(), g_hat=np.zeros((1, 1)),
                             w_grid=np.zeros((1, 1)), w0_index=0,
                             params=np.zeros(1), residual=0.0, scale=np.eye(1))
    a = Bundle(np.zeros(1), np.ones(1), np.zeros((1, 0)))
    with pytest.raises(RootNotBracketed) as err:
        cand.h_inverse(np.array([[5.0]]), a)
    assert not isinstance(err.value, ConfigError)
    assert "cannot reach value 5.0" in str(err.value)


def test_vectorised_candidate_inversion_matches_row_bisection():
    dgp = dgp_1d()
    h = mi.truth_candidate(dgp)
    cand = mi.MicroCandidate(h=h, g_hat=np.zeros((1, 1)), w_grid=np.zeros((1, 1)),
                             w0_index=0, params=np.zeros(1), residual=0.0,
                             scale=np.eye(1))
    a = Bundle(np.zeros(1), np.full(1, 1.5), np.zeros((1, 0)))
    y = np.linspace(0.02, 0.95, 15)[:, None]
    vals = h(y, a)
    ref = []
    for v in vals[:, 0]:
        lo, hi = 1e-9, 1.0 - 1e-9
        while hi - lo >= 1e-10:
            mid = 0.5 * (lo + hi)
            if h(np.array([[mid]]), a)[0, 0] <= v:
                lo = mid
            else:
                hi = mid
        ref.append(0.5 * (lo + hi))
    got = cand.h_inverse(vals, a)
    np.testing.assert_allclose(got[:, 0], ref, atol=1e-10, rtol=0)
    np.testing.assert_allclose(got, y, atol=1e-9, rtol=0)


def test_oversized_quadrature_grid_is_a_config_error():
    """16 nodes per intercept at J = 6 would be 16^6 Gauss-Hermite nodes."""
    dgp = mi.MicroDgp(Pi=np.eye(6), sigma=np.full(6, 0.5), alpha=1.0)
    with pytest.raises(ConfigError):
        mi.micro_shares(dgp, np.zeros(6), np.ones(6))
