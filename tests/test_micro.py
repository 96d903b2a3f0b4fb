import dataclasses

import numpy as np
import pytest
from scipy.special import expit, logit

from cdlab import micro as mi
from cdlab.acceptance import micro_dgp
from cdlab.demand import _gh_nodes
from cdlab.errors import (ConfigError, NoConvergence, NotIdentified, RootNotBracketed,
                          SimplexViolation)
from cdlab.inversion import InversionConfig
from cdlab.streams import market_streams
from cdlab.types import Bundle, bundle, normal_mixing


def dgp_1d(**kwargs):
    return mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.8]),
                       alpha=1.0, nu_nodes=16, **kwargs)


def scaled_logit_family():
    """Candidates theta * logit(y): on a plain-logit DGP every member is
    parallel, and members differ by more than a vertical shift."""

    def build(params):
        theta = float(params[0])
        return mi.Candidate(lambda m, a: theta * logit(np.asarray(m, dtype=float)),
                            lambda v, a: expit(np.asarray(v, dtype=float) / theta))

    return mi.CandidateFamily(build=build, bounds=(0.5, 3.0))


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


def test_sigma_w_slope_is_rejected_above_one_product():
    """The J >= 2 share kernel has no demographic-varying scale, so a slope
    there would be silently ignored."""
    with pytest.raises(ConfigError, match="sigma_w_slope"):
        mi.MicroDgp(Pi=np.eye(2), sigma=np.array([0.5, 0.3]), alpha=0.7,
                    sigma_w_slope=0.6)
    assert dgp_1d(sigma_w_slope=0.6).sigma_w_slope == 0.6


def test_micro_invert_round_trip_1d():
    dgp = dgp_1d()
    delta = np.linspace(-3.0, 3.0, 11)[:, None]
    p = np.full((11, 1), 1.5)
    y = mi.micro_shares(dgp, delta, p)
    np.testing.assert_allclose(mi.micro_invert(dgp, y, p), delta, atol=1e-10)


def test_micro_invert_passes_max_iter_to_the_1d_solver():
    """At J = 1 micro_invert runs the share-curve solver under the iteration
    cap of its InversionConfig."""
    dgp = dgp_1d()
    y, p = np.array([0.3]), np.array([1.5])
    with pytest.raises(NoConvergence):
        mi.micro_invert(dgp, y, p, InversionConfig(max_iter=1))
    np.testing.assert_allclose(mi.micro_shares(dgp, mi.micro_invert(dgp, y, p), p), y,
                               atol=1e-12, rtol=0)


@pytest.mark.parametrize("dgp", [dgp_1d(), dgp_2d()], ids=["J=1", "J=2"])
def test_micro_share_map_and_inversion_are_row_by_row(dgp):
    """On (k, G, J) inputs, micro_shares and micro_invert give each row the
    bits it gets alone."""
    rng = np.random.default_rng(dgp.J)
    delta = rng.uniform(-2.0, 2.0, (3, 4, dgp.J))
    p = rng.uniform(0.5, 2.0, (3, 1, dgp.J))
    y = mi.micro_shares(dgp, delta, p)
    back = mi.micro_invert(dgp, y, p)
    assert y.shape == back.shape == delta.shape
    for i, g in np.ndindex(3, 4):
        assert mi.micro_shares(dgp, delta[i, g], p[i, 0]).tobytes() == y[i, g].tobytes()
        assert mi.micro_invert(dgp, y[i, g], p[i, 0]).tobytes() == back[i, g].tobytes()
    np.testing.assert_allclose(back, delta, atol=1e-9, rtol=0)


@pytest.mark.parametrize("dgp", [dgp_1d(), dgp_2d()], ids=["J=1", "J=2"])
def test_micro_invert_refuses_a_nan_share_naming_its_row(dgp):
    """A nan share used to run the solver's whole iteration budget before
    NoConvergence; it is a SimplexViolation naming the row."""
    y = np.full((3, dgp.J), 0.2)
    y[2, -1] = np.nan
    with pytest.raises(SimplexViolation, match="market 2: inside share nan is not finite"):
        mi.micro_invert(dgp, y, np.ones(dgp.J))


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


def test_truth_candidate_at_j2_matches_a_row_loop():
    """The candidate inverts and maps forward all rows of a J = 2 share
    matrix in one call; a loop over the rows agrees to 1e-12."""
    dgp = dgp_2d()
    cand = mi.truth_candidate(dgp)
    a = Bundle(np.zeros(2), np.array([1.0, 2.0]), np.zeros((2, 0)))
    rng = np.random.default_rng(5)
    Y = mi.micro_shares(dgp, rng.uniform(-2.0, 3.0, (12, 2)), a.p)
    V = cand(Y, a)
    assert V.shape == Y.shape
    np.testing.assert_allclose(V, [mi.micro_invert(dgp, row, a.p) for row in Y],
                               atol=1e-12, rtol=0)
    np.testing.assert_allclose(cand.shares(V, a), [mi.micro_shares(dgp, v, a.p) for v in V],
                               atol=1e-12, rtol=0)
    np.testing.assert_allclose(cand.shares(V, a), Y, atol=1e-12, rtol=0)


def test_sigma_family_checks_pi_once(monkeypatch):
    """Pi is checked (an SVD) when the template is built, not again for each
    candidate, and a candidate inverts with the sigma it was built with."""
    template = dgp_2d()
    fam = mi.sigma_family(template, alpha_fixed=0.0)
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *args: calls.append(1) or cond(*args))
    cands = [fam.build(np.array([s])) for s in (0.2, -0.9, 1.7)]
    assert calls == []
    a = Bundle(np.zeros(2), np.array([1.0, 2.0]), np.zeros((2, 0)))
    Y = np.array([[0.3, 0.2], [0.1, 0.6]])
    ref = mi.MicroDgp(Pi=template.Pi, sigma=np.full(2, 0.9), alpha=0.0,
                      nu_nodes=template.nu_nodes)
    np.testing.assert_array_equal(cands[1](Y, a), mi.truth_candidate(ref)(Y, a))
    with pytest.raises(ConfigError):
        template.with_coefficients(np.array([-0.1, 0.2]), 0.0)


def test_profile_validation():
    with pytest.raises(ConfigError):
        mi.Profile(np.zeros((3, 1)), np.full((2, 1), 0.3))


def test_simulated_profiles_are_validated_once_and_name_the_grid_point():
    """simulate_micro validates the stacked shares and hands each profile a
    read-only view of its rows; a share outside the open simplex names its
    market and grid point, and a profile built directly still validates."""
    dgp = dgp_1d()
    markets = mi.simulate_micro(dgp, spec_1d(n=5, seed=2))
    shares = [m.profile.shares for m in markets]
    assert all(not s.flags.writeable and s.shape == (9, 1) for s in shares)
    assert shares[0].base is not None and all(s.base is shares[0].base for s in shares)
    # at w = 40 the first market's share rounds to 1
    spec = mi.MicroPopulationSpec(market_count=3, price_levels=(1.5,),
                                  w_grid=(0.0, 0.5, 40.0), seed=0)
    with pytest.raises(SimplexViolation, match=r"^market 0 at grid point 2: share outside"):
        mi.simulate_micro(dgp, spec)
    with pytest.raises(SimplexViolation, match=r"^market 1: share outside"):
        mi.Profile(np.linspace(-1.0, 1.0, 3), np.array([0.2, 1.0, 0.4]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 200])
@pytest.mark.parametrize("nans", [0, 1, 3])
def test_median_rows_are_the_bits_of_np_median(n, nans):
    """The sorted middle row, or the mean of the two middle rows, against
    np.median over axis 0; a column with a NaN is NaN, the others keep
    their bits."""
    rng = np.random.default_rng(n + 10 * nans)
    D = rng.normal(size=(n, 7, 2)) * 10.0 ** rng.integers(-3, 4, size=(n, 7, 2))
    D[rng.integers(0, n, 4), [0, 2, 3, 5], 1] = [0.0, -0.0, np.inf, -np.inf]
    for _ in range(nans):
        D[rng.integers(n), rng.integers(7), rng.integers(2)] = np.nan
    got, ref = mi._median_rows(D), np.median(D, axis=0)
    np.testing.assert_array_equal(got, ref)
    assert np.isnan(got).sum() == np.isnan(D).any(axis=0).sum()


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
    with pytest.raises(ConfigError, match=r"price_levels must hold at least 1 level, got \(\)"):
        mi.MicroPopulationSpec(market_count=8, price_levels=(), w_grid=(0.0, 1.0))
    # parallel paths over one grid point, or over copies of one, are vacuous
    for w_grid in [(), (0.5,), (0.5, 0.5), ((0.0, 1.0), (0.0, 1.0))]:
        with pytest.raises(ConfigError, match="w_grid must hold at least 2 distinct points"):
            mi.MicroPopulationSpec(market_count=8, price_levels=(1.0,), w_grid=w_grid)


def test_a_collinear_grid_is_a_config_error_naming_w_grid():
    """At J = 2, grid points on one line give dg/dw near w0 of rank 1."""
    dgp = dgp_2d()
    spec = mi.MicroPopulationSpec(market_count=6, price_levels=((1.0, 2.0),), seed=0,
                                  w_grid=tuple((t, t) for t in np.linspace(-1.0, 1.0, 6)))
    profiles = [m.profile for m in mi.simulate_micro(dgp, spec)]
    with pytest.raises(ConfigError, match=r"w_grid: dg/dw fitted on the 4 points nearest "
                                          r"w0 = \[-1.0, -1.0\] has rank below J = 2"):
        mi.identify_h_and_g(mi.sigma_family(dgp, alpha_fixed=dgp.alpha), profiles,
                            spec.level_bundle(dgp, 0), starts=3, seed=0)


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


def test_stratified_blocks_follow_their_substreams():
    """Reference: each market redraws its block's shock and permutation; the
    last block of 7 markets in blocks of 3 is truncated."""
    dgp = dgp_1d()
    spec = mi.MicroPopulationSpec(market_count=7, price_levels=(0.5, 1.0, 2.0),
                                  w_grid=(0.0, 0.5), seed=4, assignment="stratified")
    markets = mi.simulate_micro(dgp, spec)
    assert len(markets) == 7
    for i, m in enumerate(markets):
        block, pos = divmod(i, 3)
        xi = dgp.xi_law.sample(market_streams(4, [[block, 1]]), 1)[0]
        level = int(market_streams(4, [[block, 2]]).permutation(3)[0, pos])
        np.testing.assert_array_equal(m.xi, xi)
        assert (m.level, m.z_level) == (level, level)
    assert len({id(m.xi) for m in markets}) == 7  # no market shares its shock array


@pytest.mark.parametrize("dgp, spec", [
    (dgp_1d(), spec_1d(n=25, seed=11)),
    (dgp_1d(), mi.MicroPopulationSpec(market_count=7, price_levels=(0.5, 1.0, 2.0),
                                      w_grid=tuple(np.linspace(-1.0, 1.0, 9)), seed=4,
                                      assignment="stratified")),  # truncated last block
    (dgp_1d(), mi.MicroPopulationSpec(market_count=30, price_levels=(0.5, 1.0, 2.0),
                                      w_grid=tuple(np.linspace(-1.0, 1.0, 9)), seed=1,
                                      endogeneity=0.8)),
    (dgp_1d(sigma_w_slope=0.6), spec_1d(n=12, seed=8)),
    (dgp_2d(), mi.MicroPopulationSpec(market_count=9, price_levels=((1.0, 2.0), (1.5, 0.5)),
                                      w_grid=((-1.0, 0.0), (0.0, 0.5), (0.5, 1.0)),
                                      seed=2)),
], ids=["iid", "stratified", "endogenous", "sigma-w-slope", "J2"])
def test_simulate_micro_is_bit_identical_to_per_market_true_profile(dgp, spec):
    markets = mi.simulate_micro(dgp, spec)
    assert len(markets) == spec.market_count
    for m in markets:
        a = spec.level_bundle(dgp, m.level)
        np.testing.assert_array_equal(m.a.p, a.p)
        ref = mi.true_profile(dgp, m.xi, a, spec.w_grid)
        assert m.profile.shares.tobytes() == ref.shares.tobytes()
        np.testing.assert_array_equal(m.profile.w_grid, ref.w_grid)
    assert len({id(m.profile.w_grid) for m in markets}) == 1  # one shared grid


@pytest.mark.parametrize("per_block", [2, 3])
@pytest.mark.parametrize("dgp", [dgp_1d(), dgp_2d()], ids=["J1", "J2"])
def test_profile_blocks_leave_the_shares_unchanged(monkeypatch, dgp, per_block):
    """Blocks of 2 and 3 markets (a truncated last block of 1) give the bytes
    of per-market true_profile, a block of one market each."""
    w_grid = np.linspace(-1.0, 1.0, 2 * dgp.J).reshape(2, dgp.J)
    spec = mi.MicroPopulationSpec(market_count=10, price_levels=(np.full(dgp.J, 1.5),),
                                  w_grid=w_grid, seed=5)
    nodes = len(mi._nu_nodes(dgp.sigma, dgp.nu_nodes)[1])
    monkeypatch.setattr(mi, "MAX_BLOCK_ELEMENTS", per_block * 2 * nodes * dgp.J)
    for m in mi.simulate_micro(dgp, spec):
        ref = mi.true_profile(dgp, m.xi, m.a, w_grid)
        assert m.profile.shares.tobytes() == ref.shares.tobytes()


def test_true_profile_matches_the_per_grid_point_share_map():
    """Reference: one micro_shares call per grid point at J = 2, and the
    J = 1 share curve at each point's own index and scale."""
    dgp = dgp_2d()
    W = np.array([[-1.0, 0.0], [0.0, 0.5], [0.5, 1.0]])
    xi = np.array([0.3, -0.2])
    a = Bundle(np.zeros(2), np.array([1.0, 2.0]), np.zeros((2, 0)))
    ref = np.array([mi.micro_shares(dgp, dgp.Pi @ w + xi, a.p) for w in W])
    np.testing.assert_allclose(mi.true_profile(dgp, xi, a, W).shares, ref,
                               rtol=1e-14, atol=0)
    dgp = dgp_1d(sigma_w_slope=0.6)
    w = np.linspace(-1.0, 1.0, 9)
    a = Bundle(np.zeros(1), np.array([1.5]), np.zeros((1, 0)))
    ref = [mi.micro_shares(dgp, [wv + 0.3], a.p, sigma_scale=1.0 + 0.6 * wv) for wv in w]
    np.testing.assert_allclose(mi.true_profile(dgp, np.array([0.3]), a, w).shares, ref,
                               rtol=1e-14, atol=0)


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
    logit_candidate = scaled_logit_family().build(np.array([1.0]))
    assert mi.parallel_residual(logit_candidate, profiles, a) > 0.01


def per_profile_residual(candidate_h, profiles, a):
    """Reference: one candidate call per profile."""
    devs = []
    for prof in profiles:
        H = candidate_h(prof.shares, a)
        devs.append(H - H[0])
    D = np.array(devs)
    return float(np.max(np.abs(D - np.median(D, axis=0))))


@pytest.fixture(scope="module")
def criterion_7_profiles():
    dgp = micro_dgp()
    spec = mi.MicroPopulationSpec(market_count=200, price_levels=(1.5,),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 20)), seed=7)
    return dgp, [m.profile for m in mi.simulate_micro(dgp, spec)], spec.level_bundle(dgp, 0)


@pytest.mark.parametrize("sigma", [0.3, 0.8, 1.7, 3.9])
def test_stacked_parallel_residual_equals_per_profile_loop(criterion_7_profiles, sigma):
    dgp, profiles, a = criterion_7_profiles
    cand = mi.sigma_family(dgp, alpha_fixed=0.0).build(np.array([sigma]))
    assert mi.parallel_residual(cand, profiles, a) == per_profile_residual(cand, profiles, a)


def test_parallel_residual_requires_one_grid():
    dgp = dgp_1d()
    markets = mi.simulate_micro(dgp, spec_1d(n=3, seed=3))
    a = markets[0].a
    profiles = [m.profile for m in markets]
    # an equal grid in another array is accepted
    moved = mi.Profile(np.linspace(-1.0, 1.0, 9), profiles[0].shares)
    assert mi.parallel_residual(mi.identity_candidate(), profiles + [moved], a) >= 0.0
    other = mi.Profile(np.linspace(-1.0, 1.5, 9), profiles[0].shares)
    with pytest.raises(ConfigError):
        mi.parallel_residual(mi.identity_candidate(), profiles + [other], a)
    short = mi.Profile(np.linspace(-1.0, 1.0, 8), profiles[0].shares[:8])
    with pytest.raises(ConfigError):
        mi.parallel_residual(mi.identity_candidate(), [short] + profiles, a)


def test_parallel_residual_single_profile_warns():
    dgp = dgp_1d()
    spec = spec_1d(n=1)
    markets = mi.simulate_micro(dgp, spec)
    with pytest.warns(UserWarning):
        r = mi.parallel_residual(mi.identity_candidate(),
                                 [markets[0].profile], spec.level_bundle(dgp, 0))
    assert r == 0.0


def scan_reference(n, seed):
    """The scan points from numpy's own Philox: the words of substream
    (0, 0) of the seed start at the counter (0, 0, 0, 2), and numpy moves
    its counter on before each block. Of the 2 n uniforms (w >> 11) 2**-53, the
    first n are u; point i lies in stratum k_i - 1, the index of the i-th
    smallest of the other n, ties by index: x_i = (k_i - u_i) / n."""
    philox = np.random.Philox(key=np.array([seed % 2**64, seed >> 64], dtype=np.uint64),
                              counter=(2 << 192) - 1)
    v = (philox.random_raw(2 * n) >> np.uint64(11)) * 2.0**-53
    k = np.array(sorted(range(n), key=lambda i: (v[n + i], i))) + 1
    return (k - v[:n]) / n


def test_scan_draws_are_one_substream_draw():
    for seed in (*range(100), 2**64 + 5, 2**128 - 1):
        for n in (1, 3, 8, 17):
            assert mi._latin_hypercube_1d(n, seed).tobytes() == scan_reference(n, seed).tobytes()


def test_scan_draws_are_not_market_0s_words():
    """A search seeded like the population it fits draws its scan from a key
    of its own: points built from market 0's substream (0,) the scan's way
    share none of the scan's points."""
    for seed in range(50):
        for n in (1, 3, 8):
            v = market_streams(seed, np.arange(3)).random(2 * n)[0]
            market_0 = (np.argsort(v[n:], kind="stable") + 1 - v[:n]) / n
            assert not np.any(mi._latin_hypercube_1d(n, seed) == market_0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 100])
def test_scan_draws_hold_one_point_per_stratum(n):
    for seed in range(50):
        x = mi._latin_hypercube_1d(n, seed)
        assert np.all((0.0 <= x) & (x < 1.0))
        assert sorted(np.floor(x * n).astype(int).tolist()) == list(range(n))


def counting(family):
    """The family with a list that grows by one per build call."""
    calls = []

    def build(params):
        calls.append(float(params[0]))
        return family.build(params)

    return dataclasses.replace(family, build=build), calls


def test_identify_refines_a_scan_minimum_that_ties_its_right_neighbour():
    """A family constant above sigma = 0.5 ties every scan point there, so
    the best scan point ties its right neighbour. The secant slope through
    them is zero, the refinement builds no point, and the scan point stays:
    nothing on the plateau is lower."""
    dgp = dgp_1d()
    spec = spec_1d(n=20, seed=3)
    markets = mi.simulate_micro(dgp, spec)
    inner = mi.sigma_family(dgp)
    fam, calls = counting(dataclasses.replace(
        inner, build=lambda p: inner.build(np.minimum(p, 0.5))))
    profiles, a = [m.profile for m in markets], spec.level_bundle(dgp, 0)
    cand = mi.identify_h_and_g(fam, profiles, a, y0=np.array([0.3]), starts=8, seed=0)
    assert len(calls) == len(set(calls)) == 10  # the bounds and 8 draws
    assert cand.params[0] == min(x for x in calls if x > 0.5)
    assert cand.residual == mi.parallel_residual(inner.build(np.array([0.5])), profiles, a)


def test_identify_keeps_the_scan_point_over_a_refined_point_of_higher_residual():
    """With no parallel member, the refinement's point of least sum of squares
    can have a larger deviation than the best scan point. The scan point is
    then kept, so the result has the lowest residual seen."""
    rng = np.random.default_rng(8)
    W = np.array([0.0, 1.0])
    profiles = [mi.Profile(W, rng.uniform(0.05, 0.9, (2, 1))) for _ in range(6)]

    def build(params):
        t = float(params[0])

        def h(m, a):
            return np.log(m) - t * (0.2 * m + 1.2 * m**2) - 0.7 * t**2 * m**3

        return mi.Candidate(h, h)

    fam, calls = counting(mi.CandidateFamily(build=build, bounds=(0.0, 4.0)))
    a = Bundle(np.zeros(1), np.ones(1), np.zeros((1, 0)))
    Y, W = mi._stacked_rows(profiles)
    cand = mi.identify_h_and_g(fam, profiles, a, starts=6, seed=0)
    spread = {x: mi._spread(mi._increments(build([x]), Y, W, a))[:2] for x in calls}
    scan, refined = calls[:8], calls[8:]
    least_squares = min(refined, key=lambda x: spread[x][1])
    assert cand.params[0] in scan and cand.residual == min(spread[x][0] for x in scan)
    assert spread[least_squares][1] < spread[cand.params[0]][1]
    assert spread[least_squares][0] > cand.residual


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_identify_stops_when_no_member_is_parallel(seed):
    """Data whose random-coefficient scale moves with w (`sigma_w_slope`) have
    no parallel member in the sigma family. The least-squares residual is
    then large, and undamped Gauss-Newton steps overshoot the minimum; at
    these seeds they cycled for more than 600 builds. Halving each step that
    does not lower the sum of squares ends the search within 60."""
    dgp = dgp_1d(sigma_w_slope=0.6)
    spec = spec_1d(n=20, seed=seed)
    markets = mi.simulate_micro(dgp, spec)
    inner = mi.sigma_family(dgp)

    def build(params):
        if len(calls) > 60:
            raise AssertionError("more than 60 candidate builds")
        return inner.build(params)

    fam, calls = counting(dataclasses.replace(inner, build=build))
    profiles, a = [m.profile for m in markets], spec.level_bundle(dgp, 0)
    cand = mi.identify_h_and_g(fam, profiles, a, starts=3, seed=seed)
    assert len(calls) == len(set(calls))
    assert cand.residual == mi.parallel_residual(inner.build(cand.params), profiles, a) > 0.1


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
    assert cand.swallowed_failures == 0
    # recovered index matches Pi w - Pi w0 up to the enforced normalization
    g_true = (cand.w_grid - cand.w_grid[0]) @ dgp.Pi.T
    np.testing.assert_allclose(cand.g_hat, g_true, atol=1e-5)


def test_identify_counts_swallowed_failures():
    """A family whose build fails on part of its bounds: each failed
    objective evaluation is counted, and the fit still recovers sigma."""
    dgp = dgp_1d()
    spec = spec_1d(n=12, seed=5)
    markets = mi.simulate_micro(dgp, spec)
    inner = mi.sigma_family(dgp, alpha_fixed=0.0)
    failed = []

    def build(params):
        if params[0] > 3.0:
            failed.append(params[0])
            raise FloatingPointError("overflow")
        if params[0] > 2.0:
            failed.append(params[0])
            raise NoConvergence(200, 1.0)
        return inner.build(params)

    fam = mi.CandidateFamily(build=build, bounds=inner.bounds)
    cand = mi.identify_h_and_g(fam, [m.profile for m in markets],
                               spec.level_bundle(dgp, 0), y0=np.array([0.3]),
                               starts=3, seed=0)
    assert cand.swallowed_failures == len(failed) > 0
    assert abs(abs(cand.params[0]) - 0.8) < 1e-4


def test_identify_raises_not_identified_on_flat_family():
    """On a plain-logit DGP every scaled-logit candidate is parallel, and
    different scales are not vertical shifts of each other."""
    dgp = mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.0]),
                      alpha=1.0, nu_nodes=4)
    spec = spec_1d(n=15, seed=6)
    markets = mi.simulate_micro(dgp, spec)
    with pytest.raises(NotIdentified) as err:
        mi.identify_h_and_g(scaled_logit_family(),
                            [m.profile for m in markets],
                            spec.level_bundle(dgp, 0), starts=6, seed=0)
    assert len(err.value.candidates) == 2


def test_identify_builds_few_candidates_per_fit():
    """Cost guard on the level-0 fit of the micro-completion benchmark at seed
    7919 (2 markets of 20 grid points) and on criterion 8's four level fits
    at seeds 0 and 25 (50 markets each): a scan of 5 points and the secant
    Gauss-Newton refinement build each point once and at most 12 points, and
    the accepted point's candidate is reused, not built again."""
    dgp = micro_dgp()
    inner = mi.sigma_family(dgp, alpha_fixed=0.0)
    for market_count, seed, levels in ((8, 7919, [0]), (200, 0, range(4)), (200, 25, range(4))):
        spec = mi.MicroPopulationSpec(market_count=market_count,
                                      price_levels=(0.5, 1.0, 1.5, 2.0),
                                      w_grid=tuple(np.linspace(-1.0, 1.0, 20)),
                                      seed=seed + 8, assignment="stratified")
        markets = mi.simulate_micro(dgp, spec)
        for k in levels:
            profiles = [m.profile for m in markets if m.level == k]
            a = spec.level_bundle(dgp, k)
            fam, calls = counting(inner)
            cand = mi.identify_h_and_g(fam, profiles, a, y0=np.array([0.3]), starts=3,
                                       seed=seed + k)
            assert len(calls) == len(set(calls)) <= 12
            assert abs(cand.params[0] - 0.8) <= 1e-10
            assert cand.residual == mi.parallel_residual(inner.build(cand.params), profiles, a)


def test_identify_finds_a_minimum_at_a_bound():
    """On a plain-logit DGP the best sigma is the lower bound 0."""
    dgp = mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.0]), alpha=1.0)
    spec = spec_1d(n=20, seed=5)
    markets = mi.simulate_micro(dgp, spec)
    cand = mi.identify_h_and_g(mi.sigma_family(dgp, alpha_fixed=0.0),
                               [m.profile for m in markets], spec.level_bundle(dgp, 0),
                               y0=np.array([0.3]), starts=3, seed=0)
    assert abs(cand.params[0]) < 1e-5
    assert cand.residual <= 1e-10


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


def test_batched_instrument_step_agrees_with_per_market_candidate_calls():
    """Reference: the same candidates, called on one market's row at a time."""
    dgp, spec, markets, levels, model = complete_small_model()

    def row_by_row(cand):
        def h(Y, a):
            return np.concatenate([cand.h(y[None, :], a) for y in Y])
        return dataclasses.replace(cand, h=mi.Candidate(h, cand.h.shares))

    ref = mi.instrument_step([row_by_row(c) for c in model.candidates], markets, levels)
    np.testing.assert_allclose(model.levels_c, ref.levels_c, rtol=0, atol=1e-12)


def test_price_coefficient_from_levels():
    *_, model = complete_small_model()
    alpha_hat = mi.price_coefficient_from_levels(model)
    assert abs(alpha_hat - 1.0) < 1e-6
    # one price, or one price twice, fits no slope: 0 / 0 would give nan
    for prices in [(1.5,), (1.0, 1.0)]:
        one = dataclasses.replace(model, dgp_levels=tuple(bundle(0.0, p) for p in prices),
                                  levels_c=np.zeros((len(prices), 1)))
        with pytest.raises(ConfigError, match=r"price_levels must hold at least 2 distinct "
                                              rf"prices to fit the price slope, got \[{prices[0]}"):
            mi.price_coefficient_from_levels(one)


def test_verify_theorem2_passes_under_index_structure():
    dgp = dgp_1d()
    spec = mi.MicroPopulationSpec(market_count=10, price_levels=(0.8, 1.6),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 6)),
                                  seed=7)
    markets = mi.simulate_micro(dgp, spec)
    a0 = spec.level_bundle(dgp, 0)
    checks = mi.verify_theorem2(dgp, markets, a0)
    assert [(c.name, c.threshold, c.op) for c in checks] == [
        ("profile_conversion", 1e-8, "<="), ("parallel_paths", 1e-8, "<="),
        ("transformed_shift", 1e-8, "<=")]
    assert all(c.value <= 1e-8 and c.passed for c in checks)


def test_verify_theorem2_fails_when_index_structure_breaks():
    dgp = dgp_1d(sigma_w_slope=0.6)
    spec = mi.MicroPopulationSpec(market_count=10, price_levels=(0.8, 1.6),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 6)),
                                  seed=8)
    markets = mi.simulate_micro(dgp, spec)
    checks = mi.verify_theorem2(dgp, markets, spec.level_bundle(dgp, 0))
    assert not all(c.passed for c in checks)


def test_unreachable_candidate_value_is_a_numerical_failure():
    cand = mi.MicroCandidate(h=mi.identity_candidate(), g_hat=np.zeros((1, 1)),
                             w_grid=np.zeros((1, 1)),
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
                             params=np.zeros(1), residual=0.0, scale=np.eye(1))
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
