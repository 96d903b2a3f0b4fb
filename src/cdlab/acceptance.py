"""Acceptance criteria: one function per numbered check.

Each criterion builds its own fixed DGP from a base seed, measures the
quantities under test, and returns a result with named checks. The CLI
`acceptance` subcommand and the test suite both run these functions, so
the shipped gate and the emitted summary cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import extrapolation as ex
from . import micro as mi
from .counterfactual import verify_theorem1
from .demand import expit, mixed_logit, plain_logit, share_curve_1d, shares_array
from .dgps import ScaledX1Spec, sample_scaled_x1_population
from .diagnostics import Fig1Spec, conditional_variance, crossing_curves
from .errors import ConfigError
from .inversion import invert_rows
from .population import PopulationSpec, market_rng, market_rngs, sample_population
from .types import Bundles, bundle, lognormal_mixing, validate_share_rows


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    op: str  # "<=" or ">"

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.threshold
        if self.op == ">":
            return self.value > self.threshold
        raise ValueError(f"unknown comparison {self.op!r}")


@dataclass
class CriterionResult:
    number: int
    name: str
    checks: list = field(default_factory=list)
    runtime: float = 0.0
    budget: float | None = None  # seconds, when the criterion has one

    @property
    def passed(self) -> bool:
        ok = all(c.passed for c in self.checks)
        if self.budget is not None:
            ok = ok and self.runtime < self.budget
        return ok


def _timed(fn):
    def wrapper(seed: int = 0) -> CriterionResult:
        t0 = time.perf_counter()
        result = fn(seed)
        result.runtime = time.perf_counter() - t0
        return result

    return wrapper


@_timed
def criterion_1(seed: int) -> CriterionResult:
    """Mixed-logit inversion round trip for J in {1, 5, 25}."""
    mixing = lognormal_mixing(0.0, 0.3)
    m = mixed_logit(mixing)
    rng = market_rng(seed, 1)
    draws = {J: [(rng.uniform(-5.0, 5.0, J), rng.uniform(0.5, 3.0, J)) for _ in range(100)]
             for J in (1, 5, 25)}
    worst = 0.0
    for J, pairs in draws.items():  # 100 markets of each J in one solve
        delta, p = (np.array(v) for v in zip(*pairs))
        a = Bundles(np.zeros(delta.shape), p, np.zeros(delta.shape + (0,)))
        back = invert_rows(m, shares_array(m, delta, a), a)
        worst = max(worst, float(np.max(np.abs(back - delta))))
    return CriterionResult(1, "inversion round trip", budget=5.0, checks=[
        Check("round_trip_sup_norm", worst, 1e-10, "<="),
    ])


def _single_type_spec(seed: int, market_count: int = 100, J: int = 2) -> PopulationSpec:
    return PopulationSpec(
        J=J, market_count=market_count,
        mixing_by_type=(lognormal_mixing(0.0, 0.3),),
        type_probabilities=(1.0,), seed=seed,
    )


@_timed
def criterion_2(seed: int) -> CriterionResult:
    """Three equivalent homogeneity formulations, plus the two-type failure."""
    spec = _single_type_spec(seed + 2)
    pop = sample_population(spec)
    m = spec.share_map(0)
    a0 = bundle(np.zeros(spec.J), np.full(spec.J, 1.5))
    grid = [bundle(np.full(spec.J, x1), np.full(spec.J, p))
            for x1, p in zip(np.linspace(-0.5, 0.5, 10), np.linspace(0.6, 2.8, 10))]
    rep = verify_theorem1(m, a0, grid, pop, spec.truth)

    fig1 = Fig1Spec(market_count=100, seed=seed + 2)
    fspec = fig1.population_spec()
    fgrid = [bundle(0.0, p) for p in np.linspace(0.6, 2.8, 10)]
    frep = verify_theorem1(mixed_logit(fig1.blue), bundle(0.0, 1.5), fgrid,
                           sample_population(fspec), fspec.truth)
    return CriterionResult(2, "theorem 1 equivalence", checks=[
        Check("index_model", rep.max_index_model, 1e-8, "<="),
        Check("inverse_model", rep.max_inverse_model, 1e-8, "<="),
        Check("transformed_shift", rep.max_transformed_shift, 1e-8, "<="),
        Check("two_type_hom_gap", frep.max_transformed_shift, 0.01, ">"),
    ])


@_timed
def criterion_3(seed: int) -> CriterionResult:
    """Crossing demand curves through each sampled market's (P, Y)."""
    spec = Fig1Spec(market_count=2000, seed=seed + 3)
    pop = sample_population(spec.population_spec())
    good = 0
    for i, pair in enumerate(crossing_curves(spec, pop)):
        if pair is None:  # the opposite type cannot reach the observed share
            continue
        y_obs = float(pop.y[i, 0])
        opp_mix = spec.mixing(1 - pop.zeta[i])
        at_p = float(share_curve_1d(opp_mix, np.array(pair.xi_opposite),
                                    pop.a.p[i, 0], spec.quad_nodes))
        if abs(at_p - y_obs) <= 1e-8 and abs(pair.own_slope - pair.opposite_slope) > 1e-3:
            good += 1
    return CriterionResult(3, "crossing demand curves", budget=30.0, checks=[
        Check("fraction_with_crossing_witness", good / len(pop), 0.95, ">"),
    ])


@_timed
def criterion_4(seed: int) -> CriterionResult:
    """Zero conditional variance under one type; positive under two."""
    a = bundle(0.0, 1.5)
    a_prime = bundle(0.0, 2.0)
    spec = PopulationSpec(J=1, market_count=10_000,
                          mixing_by_type=(lognormal_mixing(0.0, 0.5),),
                          type_probabilities=(1.0,), seed=seed + 4)
    v_single = conditional_variance(sample_population(spec), spec, a, a_prime, bins=200)
    fig1 = Fig1Spec(market_count=10_000, seed=seed + 4)
    fspec = fig1.population_spec()
    v_two = conditional_variance(sample_population(fspec), fspec, a, a_prime, bins=200)
    return CriterionResult(4, "zero-variance diagnostic", checks=[
        Check("single_type_conditional_variance", v_single, 1e-10, "<="),
        Check("two_type_conditional_variance", v_two, 1e-4, ">"),
    ])


def demeaned_oracle_data(seed: int, n: int = 10_000, levels: int = 4):
    """Logit-demeaned DGP with block-stratified finite-support treatment.

    Each block of `levels` consecutive observations shares one shock and
    receives every treatment level exactly once, so level-cell shock means
    cancel exactly and the fitted rule reproduces the truth to solver
    precision rather than sampling precision. Block b's shock and
    permutation come from substreams (b, 1) and (b, 2).
    """
    mu = np.array([0.0, 0.7, -0.4, 1.2])[:levels]
    blocks = range(-(-n // levels))
    shocks = [r.normal(0.0, 0.8) for r in market_rngs(seed, [(b, 1) for b in blocks])]
    perms = [r.permutation(levels) for r in market_rngs(seed, [(b, 2) for b in blocks])]
    xi = np.repeat(np.array(shocks, dtype=float), levels)[:n]
    lev = np.array(perms, dtype=int).reshape(-1)[:n]
    y = validate_share_rows(expit(mu[lev] + xi)[:, None])[:, 0]
    return ex.ObsSet(y, lev, lev.astype(float)[:, None]), xi, mu


def _pl_data(seed: int, n: int, x2: bool = True):
    """Partially linear logit data, market i from substream i:
    Y = Lambda(x1 - 1.3 p + 0.6 x2 + xi), instruments (p, x2)."""
    d2 = int(x2)
    draws = np.empty((n, 3 + d2))  # xi, x1, p and x2 of each market
    for i, rng in enumerate(market_rngs(seed, range(n))):
        draws[i, 0] = rng.normal(0.0, 0.5)
        draws[i, 1] = rng.uniform(-1.0, 1.0)
        draws[i, 2] = rng.uniform(0.5, 3.0)
        if x2:
            draws[i, 3] = rng.uniform(-1.0, 1.0)
    xi, x1, p = draws[:, 0], draws[:, 1], draws[:, 2]
    index = x1 - 1.3 * p + 0.6 * draws[:, 3] if x2 else x1 - 1.3 * p
    y = validate_share_rows(expit(index + xi)[:, None])[:, 0]
    a = Bundles(x1[:, None], p[:, None], draws[:, 3:].reshape(n, 1, d2))
    return ex.ObsSet(y, a, draws[:, 2:])  # instruments (p, x2) or (p,)


@_timed
def criterion_5(seed: int) -> CriterionResult:
    """Extrapolation identity for all families; demeaned-family oracle."""
    data, shocks, mu = demeaned_oracle_data(seed + 5)
    dfam, _ = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    qfam, _ = ex.solve_orthogonality(ex.quantile_family(), data[:2000])
    pl_data = _pl_data(seed + 5, 300, x2=False)
    pfam, _ = ex.solve_orthogonality(ex.partially_linear_family(n_params=1), pl_data)

    ident = 0.0
    for fam, obs in ((dfam, data[:20]), (qfam, data[:20]), (pfam, pl_data[:20])):
        same = ex.extrapolate(fam, obs.y, obs.a, obs.a)
        ident = max(ident, float(np.max(np.abs(same - obs.y))))

    head, xi = data[:1000], shocks[:1000]
    oracle = 0.0
    for t in range(len(mu)):
        pred = ex.extrapolate(dfam, head.y, head.a, t)
        oracle = max(oracle, float(np.max(np.abs(pred - expit(mu[t] + xi)))))
    return CriterionResult(5, "extrapolation identity and oracle", checks=[
        Check("same_treatment_identity", ident, 0.0, "<="),
        Check("demeaned_oracle_error", oracle, 1e-6, "<="),
    ])


@_timed
def criterion_6(seed: int) -> CriterionResult:
    """Rule-based and structural predictions coincide (both directions)."""
    data, _, mu = demeaned_oracle_data(seed + 6, n=400)
    dfam, _ = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    r1 = ex.check_prop32(dfam, data[:50], targets=list(range(len(mu))))
    pl_data = _pl_data(seed + 6, 1000)
    pfam, _ = ex.solve_orthogonality(ex.partially_linear_family(n_params=2), pl_data)
    targets = pl_data.a[:10].replace(p=np.linspace(0.6, 2.8, 10)[:, None])
    r2 = ex.check_prop32(pfam, pl_data[:50], targets=targets)
    return CriterionResult(6, "rule/structural agreement", checks=[
        Check("demeaned_max_gap", r1.max_gap, 1e-10, "<="),
        Check("partially_linear_max_gap", r2.max_gap, 1e-10, "<="),
    ])


def micro_dgp() -> mi.MicroDgp:
    return mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.8]),
                       alpha=1.0, nu_nodes=16)


@_timed
def criterion_7(seed: int) -> CriterionResult:
    """Parallelism accepts the true transform and rejects the identity."""
    dgp = micro_dgp()
    spec = mi.MicroPopulationSpec(market_count=200, price_levels=(1.5,),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 20)),
                                  seed=seed + 7)
    markets = mi.simulate_micro(dgp, spec)
    a = spec.level_bundle(dgp, 0)
    profiles = [m.profile for m in markets]
    r_true = mi.parallel_residual(mi.truth_candidate(dgp), profiles, a)
    r_ident = mi.parallel_residual(mi.identity_candidate(), profiles, a)
    return CriterionResult(7, "parallel-trends candidate test", budget=60.0, checks=[
        Check("true_candidate_residual", r_true, 1e-8, "<="),
        Check("identity_candidate_residual", r_ident, 0.05, ">"),
    ])


def _micro_levels_rep(seed: int, negative_control: bool = False) -> np.ndarray:
    """Fit level constants on an endogenously assigned micro population."""
    dgp = micro_dgp()
    price_levels = (0.5, 1.25, 2.0)
    spec = mi.MicroPopulationSpec(market_count=400, price_levels=price_levels,
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 12)),
                                  seed=seed, endogeneity=0.35)
    markets = mi.simulate_micro(dgp, spec)
    levels = [spec.level_bundle(dgp, k) for k in range(len(price_levels))]
    fam = mi.sigma_family(dgp, alpha_fixed=0.0)
    profs0 = [m.profile for m in markets if m.level == 0][:30]
    cand = mi.identify_h_and_g(fam, profs0, levels[0], y0=np.array([0.3]),
                               starts=3, seed=seed)
    if negative_control:
        markets = [dataclasses.replace(m, z=np.array([float(m.level)]))
                   for m in markets]
    model = mi.instrument_step([cand] * len(price_levels), markets, levels)
    return model.levels_c[:, 0].copy()


@_timed
def criterion_8(seed: int) -> CriterionResult:
    """Completion of the micro model: exact under stratified randomization,
    unbiased under endogenous treatment with a valid instrument, and
    detectably biased under the invalid instrument Z := A."""
    dgp = micro_dgp()
    K = 4
    spec = mi.MicroPopulationSpec(market_count=200,
                                  price_levels=(0.5, 1.0, 1.5, 2.0),
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 20)),
                                  seed=seed + 8, assignment="stratified")
    markets = mi.simulate_micro(dgp, spec)
    levels = [spec.level_bundle(dgp, k) for k in range(K)]
    fam = mi.sigma_family(dgp, alpha_fixed=0.0)
    y0 = np.array([0.3])
    cands = []
    for k in range(K):
        profs = [m.profile for m in markets if m.level == k]
        cands.append(mi.identify_h_and_g(fam, profs, levels[k], y0=y0,
                                         starts=3, seed=seed + k))
    model = mi.instrument_step(cands, markets, levels)
    worst = 0.0
    for m in markets[:50]:
        target = (m.level + 2) % K
        pred = model.predict_profile(m, target)
        true = mi.true_profile(dgp, m.xi, levels[target], spec.w_grid).shares
        worst = max(worst, float(np.max(np.abs(pred - true))))

    price_levels = (0.5, 1.25, 2.0)
    true_c = dgp.alpha * (np.array(price_levels) - price_levels[0])
    reps = np.array([_micro_levels_rep(seed + 100 + s) for s in range(12)])
    neg = np.array([_micro_levels_rep(seed + 100 + s, negative_control=True)
                    for s in range(12)])
    mean = reps.mean(axis=0)
    se = reps.std(axis=0, ddof=1) / np.sqrt(len(reps))
    exo_dev = float(np.max(np.abs(mean - true_c)[1:] / se[1:]))
    nm = neg.mean(axis=0)
    nse = neg.std(axis=0, ddof=1) / np.sqrt(len(neg))
    neg_dev = float(np.min(np.abs(nm - true_c)[1:] / nse[1:]))
    return CriterionResult(8, "micro completion", budget=30.0, checks=[
        Check("stratified_profile_error", worst, 1e-6, "<="),
        Check("endogenous_dev_in_ses", exo_dev, 2.0, "<="),
        Check("negative_control_dev_in_ses", neg_dev, 3.0, ">"),
    ])


@_timed
def criterion_9(seed: int) -> CriterionResult:
    """Price counterfactuals transport exactly; x1 counterfactuals do not."""
    spec = ScaledX1Spec(market_count=300, seed=seed + 9)
    pop = sample_scaled_x1_population(spec)
    rep = ex.price_ccs_check(plain_logit(spec.alpha), pop, spec.truth,
                             price_grid=np.linspace(0.6, 2.8, 10))
    worst_x1 = max(rep.x1_error_by_type.values())
    return CriterionResult(9, "price-correctness contrast", checks=[
        Check("price_counterfactual_error", rep.max_price_error, 1e-8, "<="),
        Check("x1_counterfactual_error", worst_x1, 0.01, ">"),
    ])


ALL_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_criteria(numbers=None, seed: int = 0) -> list:
    """Run the numbered criteria (None: all); no number, or a number that
    names no criterion, is a ConfigError."""
    if numbers is not None and not numbers:
        raise ConfigError("criteria must name at least 1 criterion, got []")
    numbers = sorted(ALL_CRITERIA if numbers is None else numbers)
    unknown = [n for n in numbers if n not in ALL_CRITERIA]
    if unknown:
        raise ConfigError(f"unknown acceptance criteria {unknown}; the criteria are "
                          f"{min(ALL_CRITERIA)}-{max(ALL_CRITERIA)}")
    return [ALL_CRITERIA[n](seed) for n in numbers]
