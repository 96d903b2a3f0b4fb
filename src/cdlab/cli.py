"""Command-line experiment runner.

Each subcommand reads an optional JSON config (authoritative), applies flag
overrides, runs the experiment, and writes CSV (canonical) plus SVG
(convenience) artifacts into the output directory.

Exit codes: 0 success, 1 validation error, 2 numerical failure -- the
latter with a machine-readable report.csv naming the failing check.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import acceptance as acc
from . import extrapolation as ex
from . import micro as mi
from .config import EXPERIMENTS, ExperimentConfig, apply_overrides, load_config
from .counterfactual import CounterfactualEngine, verify_theorem1
from .demand import shares_array
from .dgps import ScaledX1Spec, sample_scaled_x1_population
from .diagnostics import Fig1Spec, conditional_variance, crossing_curves
from .errors import CdlabError, ConfigError, RootNotBracketed
from .inversion import invert_rows
from .population import (PopulationSpec, check_seed, potential_outcomes, sample_population,
                         true_counterfactuals)
from .svgplot import Panel, write_svg
from .transforms import LogitInverse, MixedLogitInverse
from .types import Bundles, bundle, lognormal_mixing

#: Marker colors per latent type, matching the two-type figure convention.
TYPE_COLORS = ("#1f77b4", "#ff7f0e")


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV with full round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v
                             for v in row])


def _default_population(seed: int) -> PopulationSpec:
    return PopulationSpec(J=1, market_count=200,
                          mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                          type_probabilities=(1.0,), seed=seed)


def _population(cfg: ExperimentConfig) -> PopulationSpec:
    if cfg.population is not None:
        return cfg.population
    return _default_population(cfg.seed)


# --- experiments -------------------------------------------------------------

def run_simulate(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    rows = []
    for i, d in enumerate(sample_population(spec)):
        for j in range(spec.J):
            rows.append([i, d.zeta, j, float(d.a.x1[j]), float(d.a.p[j]),
                         float(d.xi[j]), float(d.z[j]), float(d.y.values[j])])
    write_csv(out / "population.csv",
              ["market_id", "type", "product", "x1", "p", "xi", "z", "share"],
              rows)


def _stacked(spec: PopulationSpec, pop):
    """The sampled markets' shares (n, J), bundles and types, and the rows
    of each type present."""
    y = np.array([d.y.values for d in pop]).reshape(len(pop), spec.J)
    zeta = np.array([d.zeta for d in pop], dtype=int)
    types = [(t, r) for t in range(spec.n_types) if len(r := np.flatnonzero(zeta == t))]
    return y, Bundles.stack([d.a for d in pop]), zeta, types


def run_invert(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    pop = sample_population(spec)
    y, a, _, types = _stacked(spec, pop)
    delta, resid = np.empty(y.shape), np.empty(len(pop))
    for t, r in types:  # all markets of a type in one solve
        m = spec.share_map(t)
        delta[r] = invert_rows(m, y[r], a[r], ids=r)
        resid[r] = np.abs(shares_array(m, delta[r], a[r]) - y[r]).max(axis=1)
    rows = [[i, j, float(delta[i, j]), float(d.a.x1[j] + d.xi[j]), float(resid[i])]
            for i, d in enumerate(pop) for j in range(spec.J)]
    write_csv(out / "inversion.csv",
              ["market_id", "product", "delta_hat", "delta_true", "residual"],
              rows)


def run_predict(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    price_shift = float(cfg.options.get("price_shift", 0.5))
    pop = sample_population(spec)
    y, a, zeta, types = _stacked(spec, pop)
    target = a.replace(p=a.p + price_shift)
    pred = np.empty(y.shape)
    for t, r in types:  # all markets of a type in one solve
        pred[r] = CounterfactualEngine(spec.share_map(t)).predict(y[r], a[r], target[r])
    truth = true_counterfactuals(spec, [d.xi for d in pop], zeta, target)
    rows = [[i, j, float(y[i, j]), float(pred[i, j]), float(truth[i, j])]
            for i in range(len(pop)) for j in range(spec.J)]
    write_csv(out / "predictions.csv",
              ["market_id", "product", "observed_share", "predicted_share",
               "true_share"], rows)


def run_fig1(cfg: ExperimentConfig, out: Path) -> None:
    spec = Fig1Spec(market_count=int(cfg.options.get("market_count", 2000)),
                    seed=cfg.seed)
    plotted = int(cfg.options.get("curves_plotted", 12))
    pop = sample_population(spec.population_spec())
    rows = []
    panel = Panel(title="crossing demand curves", xlabel="price", ylabel="share")
    labels = {0: "type 0", 1: "type 1"}
    for i, (d, pair) in enumerate(zip(pop[:plotted], crossing_curves(spec, pop[:plotted]))):
        if pair is None:
            raise RootNotBracketed(f"market {i}: share {d.y.values[0]} unreachable "
                                   f"by the opposite type")
        for g, own, opp in zip(pair.grid, pair.own, pair.opposite):
            rows.append([i, d.zeta, float(g), float(own), float(opp)])
        panel.add(pair.grid, pair.own, color=TYPE_COLORS[d.zeta],
                  label=labels.pop(d.zeta, ""))
        panel.add(pair.grid, pair.opposite, color=TYPE_COLORS[1 - d.zeta],
                  label=labels.pop(1 - d.zeta, ""), dash="4,3")
    write_csv(out / "curves.csv",
              ["market_id", "type", "grid_price", "own_share", "opposite_share"],
              rows)
    write_svg(out / "fig1.svg", [panel])

    a, a_prime = bundle(0.0, 1.5), bundle(0.0, 2.0)
    pspec = spec.population_spec()
    bins = max(2, min(50, spec.market_count // 10))
    v_two = conditional_variance(pop, pspec, a, a_prime, bins=bins)
    single = PopulationSpec(J=1, market_count=spec.market_count,
                            mixing_by_type=(spec.blue,),
                            type_probabilities=(1.0,), seed=cfg.seed)
    v_one = conditional_variance(sample_population(single), single, a, a_prime,
                                 bins=bins)
    write_csv(out / "variance_report.csv",
              ["population", "bins", "conditional_variance"],
              [["two-type", bins, v_two], ["single-type", bins, v_one]])


def run_verify_thm1(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    if len(spec.mixing_by_type) != 1:
        raise ConfigError("verify-thm1 requires a single-type population")
    pop = sample_population(spec)
    m = spec.share_map(0)
    a0 = bundle(np.zeros(spec.J), np.full(spec.J, 1.5))
    grid = [bundle(np.full(spec.J, x1), np.full(spec.J, p))
            for x1, p in zip(np.linspace(-0.5, 0.5, 10), np.linspace(0.6, 2.8, 10))]
    rep = verify_theorem1(MixedLogitInverse(m), a0, grid, pop,
                          partial(potential_outcomes, spec))
    write_csv(out / "thm1_report.csv", ["check", "max_deviation", "passed"],
              [[name, val, passed] for name, val, passed in rep.rows()])
    if not rep.passed:
        raise CdlabError(f"theorem 1 equivalence failed at tol {rep.tol}")


def _micro_setup(cfg: ExperimentConfig):
    dgp = acc.micro_dgp()
    spec = mi.MicroPopulationSpec(
        market_count=int(cfg.options.get("market_count", 60)),
        price_levels=tuple(cfg.options.get("price_levels", (0.5, 1.0, 1.5, 2.0))),
        w_grid=tuple(cfg.options.get("w_grid", np.linspace(-1.0, 1.0, 20))),
        seed=cfg.seed, assignment="stratified")
    return dgp, spec, mi.simulate_micro(dgp, spec)


def run_verify_thm2(cfg: ExperimentConfig, out: Path) -> None:
    dgp, spec, markets = _micro_setup(cfg)
    a0 = spec.level_bundle(dgp, 0)
    rep = mi.verify_theorem2(dgp, markets[:20], a0)
    write_csv(out / "thm2_report.csv", ["check", "max_deviation", "passed"], [
        ["profile_conversion", rep.max_profile_conversion,
         rep.max_profile_conversion <= rep.tol],
        ["parallel_paths", rep.max_parallel_paths,
         rep.max_parallel_paths <= rep.tol],
        ["transformed_shift", rep.max_transformed_shift,
         rep.max_transformed_shift <= rep.tol],
    ])
    if not rep.passed:
        raise CdlabError(f"theorem 2 equivalence failed at tol {rep.tol}")


def run_fig2(cfg: ExperimentConfig, out: Path) -> None:
    dgp = acc.micro_dgp()
    spec = mi.MicroPopulationSpec(
        market_count=int(cfg.options.get("market_count", 12)),
        price_levels=(1.5,),
        w_grid=tuple(cfg.options.get("w_grid", np.linspace(-1.0, 1.0, 20))),
        seed=cfg.seed)
    markets = mi.simulate_micro(dgp, spec)
    a = spec.level_bundle(dgp, 0)
    w = np.asarray(spec.w_grid)
    candidates = [("identity", mi.identity_candidate()),
                  ("true", mi.truth_candidate(dgp))]
    raw_rows, trans_rows = [], []
    panels = []
    for name, cand in candidates:
        title = ("(a) rejected candidate" if name == "identity"
                 else "(b) true transform")
        panel = Panel(title=title, xlabel="w", ylabel="transformed share")
        for i, m in enumerate(markets):
            H = cand(m.profile.shares, a)[:, 0]
            centered = H - H[m.profile.w0_index]
            for wv, rv, tv in zip(w, m.profile.shares[:, 0], centered):
                trans_rows.append([i, float(wv), float(tv), name])
                if name == "identity":
                    raw_rows.append([i, float(wv), float(rv), name])
            panel.add(w, centered, color=TYPE_COLORS[i % 2])
        panels.append(panel)
    write_csv(out / "paths_raw.csv",
              ["market_id", "w", "value", "candidate_name"], raw_rows)
    write_csv(out / "paths_transformed.csv",
              ["market_id", "w", "value", "candidate_name"], trans_rows)
    write_svg(out / "fig2.svg", panels)


def run_extrapolate(cfg: ExperimentConfig, out: Path) -> None:
    n = int(cfg.options.get("n", 2000))
    data, _, mu = acc.demeaned_oracle_data(cfg.seed, n=n)
    fam, rep = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    y, a = ex.stack_obs(data[:200])
    pred = np.array([ex.extrapolate(fam, y, a, t) for t in range(len(mu))])
    rows = [[i, t, float(pred[t, i])] for i in range(len(y)) for t in range(len(mu))]
    write_csv(out / "predictions.csv", ["market_id", "target_a", "y_tilde"], rows)
    # A fit that is not unique raises NonUnique, so `unique` is always True;
    # the column stays because perfbench's transport-rules check reads it.
    write_csv(out / "gmm_report.csv", ["parameter", "estimate", "criterion", "unique"],
              [[k, float(th), rep.criterion, True] for k, th in enumerate(rep.theta)])


def run_prop32(cfg: ExperimentConfig, out: Path) -> None:
    result = acc.criterion_6(cfg.seed)
    write_csv(out / "prop32_report.csv",
              ["family", "max_gap", "tol", "passed"],
              [[c.name, c.value, c.threshold, c.passed] for c in result.checks])
    if not result.passed:
        raise CdlabError("rule/structural agreement exceeded tolerance")


def run_micro_identify(cfg: ExperimentConfig, out: Path) -> None:
    dgp, spec, markets = _micro_setup(cfg)
    K = len(spec.price_levels)
    levels = [spec.level_bundle(dgp, k) for k in range(K)]
    fam = mi.sigma_family(dgp, alpha_fixed=0.0)
    y0 = np.array([float(cfg.options.get("y0", 0.3))])
    cands = []
    for k in range(K):
        profs = [m.profile for m in markets if m.level == k]
        cands.append(mi.identify_h_and_g(fam, profs, levels[k], y0=y0,
                                         starts=3, seed=cfg.seed + k))
    model = mi.instrument_step(cands, markets, levels)
    write_csv(out / "g_hat.csv", ["w", "g_hat"],
              [[float(wv), float(gv)] for wv, gv in
               zip(cands[0].w_grid[:, 0], cands[0].g_hat[:, 0])])
    share_grid = np.linspace(0.05, 0.9, 18)
    h_rows = []
    for k in range(K):
        vals = model.h_full(share_grid[:, None], k)[:, 0]
        h_rows.extend([[k, float(s), float(v)] for s, v in zip(share_grid, vals)])
    write_csv(out / "h_hat.csv", ["level", "share", "h_hat"], h_rows)
    alpha_hat = mi.price_coefficient_from_levels(model)
    m_rows = [[k, float(levels[k].p[0]), float(model.levels_c[k, 0]),
               float(cands[k].residual)] for k in range(K)]
    write_csv(out / "moment_report.csv",
              ["level", "price", "c_hat", "parallel_residual"], m_rows)
    write_csv(out / "estimates.csv", ["parameter", "estimate"],
              [["alpha", alpha_hat], ["sigma", float(abs(cands[0].params[0]))]])


def run_price_ccs(cfg: ExperimentConfig, out: Path) -> None:
    spec = ScaledX1Spec(market_count=int(cfg.options.get("market_count", 300)),
                        seed=cfg.seed)
    pop = sample_scaled_x1_population(spec)
    h = LogitInverse(alpha=spec.alpha, gamma=())
    rep = ex.price_ccs_check(h, pop, spec.truth,
                             price_grid=np.linspace(0.6, 2.8, 10))
    rows = [["max_price_error", rep.max_price_error, rep.price_tol,
             rep.price_correct]]
    for zeta in sorted(rep.x1_error_by_type):
        rows.append([f"x1_error_type_{zeta}", rep.x1_error_by_type[zeta],
                     "", ""])
    write_csv(out / "price_ccs_report.csv",
              ["check", "value", "threshold", "passed"], rows)


def run_acceptance(cfg: ExperimentConfig, out: Path) -> None:
    numbers = cfg.options.get("criteria")
    numbers = [int(n) for n in numbers] if numbers else None
    results = acc.run_criteria(numbers, seed=cfg.seed)
    rows = []
    print(f"{'criterion':<42} {'check':<34} {'value':>12}  result")
    for r in results:
        for c in r.checks:
            rows.append([r.number, r.name, c.name, c.value, c.threshold,
                         c.op, c.passed])
            print(f"{r.number}. {r.name:<39} {c.name:<34} {c.value:>12.3e}"
                  f"  {'pass' if c.passed else 'FAIL'}")
        if r.budget is not None:
            print(f"{'':<43} runtime {r.runtime:.1f}s of {r.budget:.0f}s"
                  f"  {'pass' if r.runtime < r.budget else 'FAIL'}")
    write_csv(out / "acceptance.csv",
              ["criterion", "name", "check", "value", "threshold",
               "comparison", "passed"], rows)
    # figure artifacts named by the criteria
    fig_cfg = ExperimentConfig("fig1", seed=cfg.seed,
                               options={"market_count": 200})
    run_fig1(fig_cfg, out)
    run_fig2(ExperimentConfig("fig2", seed=cfg.seed), out)
    failing = [f"{r.number}:{c.name}" for r in results
               for c in r.checks if not c.passed]
    failing += [f"{r.number}:runtime" for r in results if r.budget is not None
                and r.runtime >= r.budget]
    if failing:
        raise CdlabError("acceptance criteria failed: " + ", ".join(failing))


RUNNERS = {
    "simulate": run_simulate,
    "invert": run_invert,
    "predict": run_predict,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "verify-thm1": run_verify_thm1,
    "verify-thm2": run_verify_thm2,
    "extrapolate": run_extrapolate,
    "prop32": run_prop32,
    "micro-identify": run_micro_identify,
    "price-ccs": run_price_ccs,
    "acceptance": run_acceptance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdl", description="demand-model counterfactual laboratory")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment manifest")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--set", action="append", dest="overrides", default=[],
                       metavar="KEY=VALUE", help="override an option leaf")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
            if cfg.experiment != args.experiment:
                raise ConfigError(
                    f"config is for {cfg.experiment!r}, invoked as {args.experiment!r}")
        else:
            cfg = ExperimentConfig(args.experiment)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed, "--seed")
        if args.out is not None:
            cfg.output_dir = args.out
        apply_overrides(cfg, args.overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        RUNNERS[cfg.experiment](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CdlabError as exc:
        write_csv(out / "report.csv", ["experiment", "failure"],
                  [[cfg.experiment, str(exc)]])
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
