"""Acceptance criteria: one function per numbered check.

Each criterion builds its own fixed DGP from a base seed, measures the
quantities under test, and returns a result with named checks. The CLI
`acceptance` subcommand and the test suite both run these functions, so
the shipped gate and the emitted summary cannot drift apart. The checks
that a `cdl` subcommand also writes (`theorem1_checks`, `variance_pair`,
`complete_micro_model` and `price_ccs`), and the populations they share
(`single_type_population`, `fig1_population`, `one_level_population` and
`stratified_population`), are set up here once, for the subcommand and its
criterion alike.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import extrapolation as ex
from . import laws
from . import micro as mi
from .counterfactual import verify_theorem1
from .demand import expit, expit_mixture, mixed_logit, node_offsets, plain_logit, shares_array
from .dgps import ScaledX1Spec, sample_scaled_x1_population
from .diagnostics import conditional_variance, crossing_curves
from .errors import ConfigError
from .inversion import invert_rows
from .population import Population, PopulationSpec, sample_population
from .streams import block_keys, market_streams
from .types import Bundles, Check, bundle, lognormal_mixing, validate_share_rows


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
    rng = market_streams(seed, [1])
    worst = 0.0
    for J in (1, 5, 25):  # 100 markets of each J in one solve
        delta = rng.uniform(-5.0, 5.0, 100 * J)[0].reshape(100, J)
        p = rng.uniform(0.5, 3.0, 100 * J)[0].reshape(100, J)
        a = Bundles(np.zeros(delta.shape), p, np.zeros(delta.shape + (0,)))
        back = invert_rows(m, shares_array(m, delta, a), a)
        worst = max(worst, float(np.max(np.abs(back - delta))))
    return CriterionResult(1, "inversion round trip", budget=5.0, checks=[
        Check("round_trip_sup_norm", worst, 1e-10, "<="),
    ])


def single_type_population(market_count: int, seed: int, J: int = 1) -> PopulationSpec:
    """The single-type lognormal(0, 0.3) population of criterion 2's theorem
    checks, and of `cdl simulate`, `invert`, `predict` and `verify-thm1`
    when their config gives none."""
    return PopulationSpec(J=J, market_count=market_count,
                          mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                          type_probabilities=(1.0,), seed=seed)


def fig1_population(market_count: int, seed: int) -> PopulationSpec:
    """Fig. 1's two-type single-product population, types 0 and 1 equally
    likely: both price coefficients are lognormal, (0, 0.5) and (-0.5, 2),
    so type 1 is markedly more price sensitive in the tail. Criteria 2-4
    and `cdl fig1` sample it."""
    return PopulationSpec(J=1, market_count=market_count,
                          mixing_by_type=(lognormal_mixing(0.0, 0.5),
                                          lognormal_mixing(-0.5, 2.0)),
                          type_probabilities=(0.5, 0.5), seed=seed)


def theorem1_checks(spec: PopulationSpec) -> list[Check]:
    """`verify_theorem1` on a sample of the single-type population spec, at
    the baseline bundle (x1, p) = (0, 1.5) and ten grid bundles from
    (-0.5, 0.6) to (0.5, 2.8) in every product: criterion 2's three checks,
    which `cdl verify-thm1` writes."""
    a0 = bundle(np.zeros(spec.J), np.full(spec.J, 1.5))
    grid = [bundle(np.full(spec.J, x1), np.full(spec.J, p))
            for x1, p in zip(np.linspace(-0.5, 0.5, 10), np.linspace(0.6, 2.8, 10))]
    return verify_theorem1(spec.share_map(0), a0, grid, sample_population(spec), spec.truth)


@_timed
def criterion_2(seed: int) -> CriterionResult:
    """Three equivalent homogeneity formulations, plus the two-type failure."""
    fspec = fig1_population(100, seed + 2)
    fgrid = [bundle(0.0, p) for p in np.linspace(0.6, 2.8, 10)]
    *_, shift = verify_theorem1(fspec.share_map(0), bundle(0.0, 1.5), fgrid,
                                sample_population(fspec), fspec.truth)
    return CriterionResult(2, "theorem 1 equivalence", checks=[
        *theorem1_checks(single_type_population(100, seed + 2, J=2)),
        Check("two_type_hom_gap", shift.value, 0.01, ">"),
    ])


@_timed
def criterion_3(seed: int) -> CriterionResult:
    """Crossing demand curves through each sampled market's (P, Y)."""
    spec = fig1_population(2000, seed + 3)
    pop = sample_population(spec)
    _, _, own_slope, opp_slope, xi_opp = crossing_curves(spec, pop)  # NaN: unreachable
    at_p = np.empty(len(pop))
    for t in (0, 1):  # each opposite curve at the observed price, one call per type
        rows = np.flatnonzero(pop.zeta != t)
        at_p[rows] = expit_mixture(xi_opp[rows], *node_offsets(spec.share_map(t), pop.a[rows]))
    good = np.count_nonzero((np.abs(at_p - pop.y[:, 0]) <= 1e-8)
                            & (np.abs(own_slope - opp_slope) > 1e-3))
    return CriterionResult(3, "crossing demand curves", budget=30.0, checks=[
        Check("fraction_with_crossing_witness", good / len(pop), 0.95, ">"),
    ])


def variance_pair(spec: PopulationSpec, pop: Population, bins: int) -> tuple[float, float]:
    """The conditional variance of Y(p = 2.0) given Y(p = 1.5), in `bins`
    bins, of pop, a sample of the two-type population spec, and of a sample
    of its first type alone at the same market count and seed: criterion
    4's two values, which `cdl fig1` writes."""
    a, a_prime = bundle(0.0, 1.5), bundle(0.0, 2.0)
    single = dataclasses.replace(spec, mixing_by_type=spec.mixing_by_type[:1],
                                 type_probabilities=(1.0,))
    return (conditional_variance(pop, spec, a, a_prime, bins=bins),
            conditional_variance(sample_population(single), single, a, a_prime, bins=bins))


@_timed
def criterion_4(seed: int) -> CriterionResult:
    """Zero conditional variance under one type; positive under two."""
    spec = fig1_population(10_000, seed + 4)
    v_two, v_single = variance_pair(spec, sample_population(spec), 200)
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
    blocks = np.arange(-(-n // levels))
    xi = np.repeat(market_streams(seed, block_keys(blocks, 1)).normal(0.0, 0.8), levels)[:n]
    lev = market_streams(seed, block_keys(blocks, 2)).permutation(levels).reshape(-1)[:n]
    y = validate_share_rows(expit(mu[lev] + xi)[:, None])[:, 0]
    return ex.ObsSet(y, lev, lev.astype(float)[:, None]), xi, mu


# The laws of xi, x1, p and x2 in `_pl_data`.
_PL_LAWS = (laws.normal(0.0, 0.5), laws.uniform(-1.0, 1.0), laws.uniform(0.5, 3.0),
            laws.uniform(-1.0, 1.0))


def _pl_data(seed: int, n: int, x2: bool = True):
    """Partially linear logit data, market i from substream i, all markets'
    in one cipher pass: Y = Lambda(x1 - 1.3 p + 0.6 x2 + xi), instruments
    (p, x2)."""
    d2 = int(x2)
    drawn = _PL_LAWS[:3 + d2]
    rng = market_streams(seed, np.arange(n))
    rng.reserve(sum(law.blocks(1) for law in drawn))
    draws = np.column_stack([law.sample(rng, 1) for law in drawn])  # xi, x1, p and x2
    xi, x1, p = draws[:, 0], draws[:, 1], draws[:, 2]
    index = x1 - 1.3 * p + 0.6 * draws[:, 3] if x2 else x1 - 1.3 * p
    y = validate_share_rows(expit(index + xi)[:, None])[:, 0]
    a = Bundles(x1[:, None], p[:, None], draws[:, 3:].reshape(n, 1, d2))
    return ex.ObsSet(y, a, draws[:, 2:])  # instruments (p, x2) or (p,)


@_timed
def criterion_5(seed: int) -> CriterionResult:
    """Extrapolation identity for all rules; demeaned-rule oracle."""
    data, shocks, mu = demeaned_oracle_data(seed + 5)
    demeaned = ex.DemeanedRule.fit(data)
    pl_data = _pl_data(seed + 5, 300, x2=False)
    ident = 0.0
    for rule, obs in ((demeaned, data[:20]), (ex.QuantileRule.fit(data[:2000]), data[:20]),
                      (ex.PartiallyLinearRule.fit(pl_data), pl_data[:20])):
        same = ex.extrapolate(rule, obs.y, obs.a, obs.a)
        ident = max(ident, float(np.max(np.abs(same - obs.y))))

    head, xi = data[:1000], shocks[:1000]
    oracle = 0.0
    for t in range(len(mu)):
        pred = ex.extrapolate(demeaned, head.y, head.a, t)
        oracle = max(oracle, float(np.max(np.abs(pred - expit(mu[t] + xi)))))
    return CriterionResult(5, "extrapolation identity and oracle", checks=[
        Check("same_treatment_identity", ident, 0.0, "<="),
        Check("demeaned_oracle_error", oracle, 1e-6, "<="),
    ])


@_timed
def criterion_6(seed: int) -> CriterionResult:
    """Rule-based and structural predictions coincide (both directions)."""
    data, _, mu = demeaned_oracle_data(seed + 6, n=400)
    gap1 = ex.check_prop32(ex.DemeanedRule.fit(data), data[:50], targets=list(range(len(mu))))
    pl_data = _pl_data(seed + 6, 1000)
    targets = pl_data.a[:10].replace(p=np.linspace(0.6, 2.8, 10)[:, None])
    gap2 = ex.check_prop32(ex.PartiallyLinearRule.fit(pl_data), pl_data[:50], targets=targets)
    return CriterionResult(6, "rule/structural agreement", checks=[
        Check("demeaned_max_gap", gap1, 1e-10, "<="),
        Check("partially_linear_max_gap", gap2, 1e-10, "<="),
    ])


def micro_dgp() -> mi.MicroDgp:
    return mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.8]),
                       alpha=1.0, nu_nodes=16)


_MICRO_W_GRID = tuple(np.linspace(-1.0, 1.0, 20))


def one_level_population(market_count: int, w_grid, seed: int):
    """The one-level micro population (price 1.5) on which criterion 7 tests
    parallelism and `cdl fig2` draws it: its markets, their bundle, and the
    candidates compared on them, identity first, by name."""
    dgp = micro_dgp()
    spec = mi.MicroPopulationSpec(market_count=market_count, price_levels=(1.5,),
                                  w_grid=w_grid, seed=seed)
    return mi.simulate_micro(dgp, spec), spec.level_bundle(dgp, 0), {
        "identity": mi.identity_candidate(), "true": mi.truth_candidate(dgp)}


@_timed
def criterion_7(seed: int) -> CriterionResult:
    """Parallelism accepts the true transform and rejects the identity."""
    markets, a, candidates = one_level_population(200, _MICRO_W_GRID, seed + 7)
    profiles = [m.profile for m in markets]
    r_true, r_ident = (mi.parallel_residual(candidates[name], profiles, a)
                       for name in ("true", "identity"))
    return CriterionResult(7, "parallel-trends candidate test", budget=60.0, checks=[
        Check("true_candidate_residual", r_true, 1e-8, "<="),
        Check("identity_candidate_residual", r_ident, 0.05, ">"),
    ])


def stratified_population(market_count: int, price_levels, w_grid, seed: int):
    """The stratified micro population that criterion 8 completes and
    `cdl verify-thm2` and `cdl micro-identify` write from: dgp, spec and
    markets."""
    dgp = micro_dgp()
    spec = mi.MicroPopulationSpec(market_count=market_count, price_levels=price_levels,
                                  w_grid=w_grid, seed=seed, assignment="stratified")
    return dgp, spec, mi.simulate_micro(dgp, spec)


def _fit_sigma_family(dgp: mi.MicroDgp, profiles, a, y0: float,
                      seed: int) -> mi.MicroCandidate:
    """The sigma family of dgp (price coefficient pinned at 0) fitted to the
    profiles at bundle a: 3 scan starts, search seed `seed`, baseline y0."""
    return mi.identify_h_and_g(mi.sigma_family(dgp, alpha_fixed=0.0), profiles, a,
                               y0=np.array([y0]), starts=3, seed=seed)


def _micro_levels_rep(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Level constants of an endogenously assigned micro population, fitted
    with its instrument and with the invalid instrument Z := A (the negative
    control); both instrument steps share one simulation and one candidate."""
    dgp = micro_dgp()
    price_levels = (0.5, 1.25, 2.0)
    spec = mi.MicroPopulationSpec(market_count=400, price_levels=price_levels,
                                  w_grid=tuple(np.linspace(-1.0, 1.0, 12)),
                                  seed=seed, endogeneity=0.35)
    markets = mi.simulate_micro(dgp, spec)
    levels = [spec.level_bundle(dgp, k) for k in range(len(price_levels))]
    profs0 = [m.profile for m in markets if m.level == 0][:30]
    cands = [_fit_sigma_family(dgp, profs0, levels[0], 0.3, seed)] * len(price_levels)
    valid = mi.instrument_step(cands, markets, levels)
    negative = mi.instrument_step(cands, [dataclasses.replace(m, z=np.array([float(m.level)]))
                                          for m in markets], levels)
    return valid.levels_c[:, 0].copy(), negative.levels_c[:, 0].copy()


def complete_micro_model(dgp: mi.MicroDgp, spec: mi.MicroPopulationSpec, markets,
                         y0: float, seed: int) -> mi.CompletedMicroModel:
    """The micro model completed from markets simulated from dgp under spec:
    at each treatment level k, the sigma family fitted to that level's
    profiles (search seed seed + k, baseline share y0), then the instrument
    step. Criterion 8's stratified completion, which `cdl micro-identify`
    writes."""
    levels = [spec.level_bundle(dgp, k) for k in range(len(spec.price_levels))]
    cands = [_fit_sigma_family(dgp, [m.profile for m in markets if m.level == k], a, y0,
                               seed + k)
             for k, a in enumerate(levels)]
    return mi.instrument_step(cands, markets, levels)


@_timed
def criterion_8(seed: int) -> CriterionResult:
    """Completion of the micro model: exact under stratified randomization,
    unbiased under endogenous treatment with a valid instrument, and
    detectably biased under the invalid instrument Z := A."""
    dgp, spec, markets = stratified_population(200, (0.5, 1.0, 1.5, 2.0), _MICRO_W_GRID,
                                               seed + 8)
    model = complete_micro_model(dgp, spec, markets, 0.3, seed)
    worst = 0.0
    for m in markets[:50]:
        target = (m.level + 2) % len(model.dgp_levels)
        pred = model.predict_profile(m, target)
        true = mi.true_profile(dgp, m.xi, model.dgp_levels[target], spec.w_grid).shares
        worst = max(worst, float(np.max(np.abs(pred - true))))

    price_levels = (0.5, 1.25, 2.0)
    true_c = dgp.alpha * (np.array(price_levels) - price_levels[0])
    reps, neg = map(np.array, zip(*[_micro_levels_rep(seed + 100 + s) for s in range(12)]))
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


def price_ccs(spec: ScaledX1Spec) -> tuple[Check, dict]:
    """`price_ccs_check` of the plain-logit share map on a sample of spec's
    population, at ten prices from 0.6 to 2.8: criterion 9's check, which
    `cdl price-ccs` writes."""
    return ex.price_ccs_check(plain_logit(spec.alpha), sample_scaled_x1_population(spec),
                              spec.truth, price_grid=np.linspace(0.6, 2.8, 10))


@_timed
def criterion_9(seed: int) -> CriterionResult:
    """Price counterfactuals transport exactly; x1 counterfactuals do not."""
    price, x1_error = price_ccs(ScaledX1Spec(market_count=300, seed=seed + 9))
    return CriterionResult(9, "price-correctness contrast", checks=[
        price, Check("x1_counterfactual_error", max(x1_error.values()), 0.01, ">"),
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
