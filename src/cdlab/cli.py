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
from pathlib import Path

import numpy as np

from . import acceptance as acc
from . import extrapolation as ex
from . import micro as mi
from .config import OPTIONS, ExperimentConfig, apply_overrides, load_config
from .counterfactual import predict, verify_theorem1
from .demand import plain_logit, shares_array
from .dgps import ScaledX1Spec, sample_scaled_x1_population
from .diagnostics import Fig1Spec, conditional_variance, crossing_curves
from .errors import CdlabError, ConfigError, RootNotBracketed
from .inversion import invert_rows
from .population import PopulationSpec, check_seed, sample_population
from .svgplot import Panel, write_svg
from .types import bundle, lognormal_mixing

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
    return cfg.population if cfg.population is not None else _default_population(cfg.seed)


def _market_rows(*columns):
    """One CSV row per market and product, market by market, from columns
    that broadcast to (n, J): (n, 1) for a market's value, (J,) a product's."""
    return zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*columns)))


def _types(spec: PopulationSpec, zeta: np.ndarray):
    """Each type present in zeta, with the rows that have it."""
    return [(t, r) for t in range(spec.n_types) if len(r := np.flatnonzero(zeta == t))]


# --- experiments -------------------------------------------------------------

def run_simulate(cfg: ExperimentConfig, out: Path) -> None:
    pop = sample_population(_population(cfg))
    write_csv(out / "population.csv",
              ["market_id", "type", "product", "x1", "p", "xi", "z", "share"],
              _market_rows(np.arange(len(pop))[:, None], pop.zeta[:, None],
                           np.arange(pop.y.shape[1]), pop.a.x1, pop.a.p, pop.xi, pop.z, pop.y))


def run_invert(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    pop = sample_population(spec)
    y, a = pop.y, pop.a
    delta, resid = np.empty(y.shape), np.empty(len(pop))
    for t, r in _types(spec, pop.zeta):  # all markets of a type in one solve
        m = spec.share_map(t)
        delta[r] = invert_rows(m, y[r], a[r], ids=r)
        resid[r] = np.abs(shares_array(m, delta[r], a[r]) - y[r]).max(axis=1)
    write_csv(out / "inversion.csv",
              ["market_id", "product", "delta_hat", "delta_true", "residual"],
              _market_rows(np.arange(len(pop))[:, None], np.arange(spec.J), delta,
                           a.x1 + pop.xi, resid[:, None]))


def run_predict(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    price_shift = cfg.option("price_shift")
    pop = sample_population(spec)
    y, a = pop.y, pop.a
    target = a.replace(p=a.p + price_shift)
    pred = np.empty(y.shape)
    for t, r in _types(spec, pop.zeta):  # all markets of a type in one solve
        pred[r] = predict(spec.share_map(t), y[r], a[r], target[r])
    write_csv(out / "predictions.csv",
              ["market_id", "product", "observed_share", "predicted_share",
               "true_share"],
              _market_rows(np.arange(len(pop))[:, None], np.arange(spec.J), y, pred,
                           spec.truth(pop, target)))


def run_fig1(cfg: ExperimentConfig, out: Path) -> None:
    spec = Fig1Spec(market_count=cfg.option("market_count"), seed=cfg.seed)
    pop = sample_population(spec.population_spec())
    shown = pop[:cfg.option("curves_plotted")]
    rows = []
    panel = Panel(title="crossing demand curves", xlabel="price", ylabel="share")
    labels = {0: "type 0", 1: "type 1"}
    for i, (zeta, pair) in enumerate(zip(shown.zeta.tolist(), crossing_curves(spec, shown))):
        if pair is None:
            raise RootNotBracketed(f"market {i}: share {shown.y[i, 0]} unreachable "
                                   f"by the opposite type")
        for g, own, opp in zip(pair.grid, pair.own, pair.opposite):
            rows.append([i, zeta, float(g), float(own), float(opp)])
        panel.add(pair.grid, pair.own, color=TYPE_COLORS[zeta],
                  label=labels.pop(zeta, ""))
        panel.add(pair.grid, pair.opposite, color=TYPE_COLORS[1 - zeta],
                  label=labels.pop(1 - zeta, ""), dash="4,3")
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
    a0 = bundle(np.zeros(spec.J), np.full(spec.J, 1.5))
    grid = [bundle(np.full(spec.J, x1), np.full(spec.J, p))
            for x1, p in zip(np.linspace(-0.5, 0.5, 10), np.linspace(0.6, 2.8, 10))]
    rep = verify_theorem1(spec.share_map(0), a0, grid, pop, spec.truth)
    write_csv(out / "thm1_report.csv", ["check", "max_deviation", "passed"],
              [[name, val, passed] for name, val, passed in rep.rows()])
    if not rep.passed:
        raise CdlabError(f"theorem 1 equivalence failed at tol {rep.tol}")


def _micro_setup(cfg: ExperimentConfig):
    dgp = acc.micro_dgp()
    spec = mi.MicroPopulationSpec(
        market_count=cfg.option("market_count"), price_levels=cfg.option("price_levels"),
        w_grid=cfg.option("w_grid"),
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
        market_count=cfg.option("market_count"), price_levels=(1.5,),
        w_grid=cfg.option("w_grid"),
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
    data, _, mu = acc.demeaned_oracle_data(cfg.seed, n=cfg.option("n"))
    fam, rep = ex.solve_orthogonality(ex.demeaned_family("logit"), data)
    shown = data[:200]
    pred = np.array([ex.extrapolate(fam, shown.y, shown.a, t) for t in range(len(mu))])
    rows = [[i, t, float(pred[t, i])] for i in range(len(shown)) for t in range(len(mu))]
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
    y0 = np.array([cfg.option("y0")])
    cands = []
    for k in range(K):
        profs = [m.profile for m in markets if m.level == k]
        cands.append(mi.identify_h_and_g(fam, profs, levels[k], y0=y0,
                                         starts=3, seed=cfg.seed + k))
    model = mi.instrument_step(cands, markets, levels)
    alpha_hat = mi.price_coefficient_from_levels(model)
    write_csv(out / "g_hat.csv", ["w", "g_hat"],
              [[float(wv), float(gv)] for wv, gv in
               zip(cands[0].w_grid[:, 0], cands[0].g_hat[:, 0])])
    share_grid = np.linspace(0.05, 0.9, 18)
    h_rows = []
    for k in range(K):
        vals = model.h_full(share_grid[:, None], k)[:, 0]
        h_rows.extend([[k, float(s), float(v)] for s, v in zip(share_grid, vals)])
    write_csv(out / "h_hat.csv", ["level", "share", "h_hat"], h_rows)
    m_rows = [[k, float(levels[k].p[0]), float(model.levels_c[k, 0]),
               float(cands[k].residual)] for k in range(K)]
    write_csv(out / "moment_report.csv",
              ["level", "price", "c_hat", "parallel_residual"], m_rows)
    write_csv(out / "estimates.csv", ["parameter", "estimate"],
              [["alpha", alpha_hat], ["sigma", float(abs(cands[0].params[0]))]])


def run_price_ccs(cfg: ExperimentConfig, out: Path) -> None:
    spec = ScaledX1Spec(market_count=cfg.option("market_count"), seed=cfg.seed)
    pop = sample_scaled_x1_population(spec)
    rep = ex.price_ccs_check(plain_logit(spec.alpha), pop, spec.truth,
                             price_grid=np.linspace(0.6, 2.8, 10))
    rows = [["max_price_error", rep.max_price_error, rep.price_tol,
             rep.price_correct]]
    for zeta in sorted(rep.x1_error_by_type):
        rows.append([f"x1_error_type_{zeta}", rep.x1_error_by_type[zeta],
                     "", ""])
    write_csv(out / "price_ccs_report.csv",
              ["check", "value", "threshold", "passed"], rows)


def run_acceptance(cfg: ExperimentConfig, out: Path) -> None:
    results = acc.run_criteria(cfg.option("criteria"), seed=cfg.seed)
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
    for name, options in OPTIONS.items():
        listing = "".join(f"  {o}: {f}\n" for o, f in options.items())
        p = sub.add_parser(name, epilog=listing and "options (--set NAME=VALUE):\n" + listing,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="JSON experiment manifest")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--set", action="append", dest="overrides", default=[],
                       metavar="NAME=VALUE", help="override an option")
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
