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
import functools
import sys
from pathlib import Path

import numpy as np

from . import acceptance as acc
from . import extrapolation as ex
from . import micro as mi
from .config import OPTIONS, ExperimentConfig, apply_overrides, load_config
from .counterfactual import predict
from .demand import shares_array
from .dgps import ScaledX1Spec
from .diagnostics import Fig1Spec, crossing_curves
from .errors import CdlabError, ConfigError, RootNotBracketed
from .inversion import invert_rows
from .population import PopulationSpec, sample_population
from .svgplot import Panel, write_svg
from .types import lognormal_mixing

#: Marker colors per latent type, matching the two-type figure convention.
TYPE_COLORS = ("#1f77b4", "#ff7f0e")


#: The characters that make csv.writer quote a field.
QUOTED = frozenset(',"\r\n')
#: Lines of a per-market table formatted and written together. Small enough
#: that a chunk's temporaries are reused from pass to pass: chunks of 1,024
#: rows kept about 0.3 MB more resident memory in `cdl fig1` runs.
CSV_CHUNK = 128


class Table(tuple):
    """A per-market table: columns that broadcast to (n, J), one line per
    market and product, market by market. An (n, 1) column holds a market's
    value, a (J,) or 0-d column a product's."""

    def __new__(cls, *columns):
        return super().__new__(cls, map(np.asarray, columns))


def _field(v, lone):
    """A cell as csv.writer writes it, a float as %.17g; `lone` when it is
    its line's only field, which csv.writer quotes when empty."""
    s = "%.17g" % v if isinstance(v, float) else str(v)
    return s if QUOTED.isdisjoint(s) and (s or not lone) else '"%s"' % s.replace('"', '""')


def _write_table(fh, table: Table) -> None:
    """The lines of a Table, each value formatted once along the axis on
    which it is constant: a product's values (a (J,) or 0-d column) are
    baked into the line format, a market's ((n, 1)) are formatted once per
    market, and only (n, J) cells one by one. A chunk of about CSV_CHUNK
    lines is one `%` call."""
    n, J = np.broadcast_shapes(*(c.shape for c in table), (1, 1))
    lone, slots, cells = len(table) == 1, [], []
    for c in map(np.atleast_2d, table):
        if len(c) == 1:  # one value per product
            slots.append([_field(v, lone).replace("%", "%%") for v in
                          np.broadcast_to(c, (1, J))[0].tolist()])
        elif c.dtype.kind == "f" and c.shape[1] == J:
            slots.append(["%.17g"] * J)
            cells.append(c)
        else:
            slots.append(["%s"] * J)
            cells.append(np.frompyfunc(_field, 2, 1)(c, lone))
    line = "".join(",".join(f) + "\r\n" for f in zip(*slots))
    step = max(1, CSV_CHUNK // max(J, 1))
    for i in range(0, n, step):
        chunk = np.empty((min(step, n - i), J, len(cells)), object)
        for k, c in enumerate(cells):
            chunk[:, :, k] = c[i:i + step]
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV: csv.writer's quoting, floats as %.17g (which round-trip),
    CRLF line ends.

    `rows` is a Table or an iterable of rows. Rows go through csv.writer. A
    Table is formatted column by column (`_write_table`) into the bytes that
    csv.writer writes for the rows its columns broadcast to: its product
    values once per product, its market values once per market.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        if isinstance(rows, Table):
            _write_table(fh, rows)
        else:
            writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in row]
                             for row in rows)


def _default_population(seed: int) -> PopulationSpec:
    return PopulationSpec(J=1, market_count=200,
                          mixing_by_type=(lognormal_mixing(0.0, 0.3),),
                          type_probabilities=(1.0,), seed=seed)


def _population(cfg: ExperimentConfig) -> PopulationSpec:
    return cfg.population if cfg.population is not None else _default_population(cfg.seed)


def _types(spec: PopulationSpec, zeta: np.ndarray):
    """Each type present in zeta, with the rows that have it."""
    return [(t, r) for t in range(spec.n_types) if len(r := np.flatnonzero(zeta == t))]


# --- experiments -------------------------------------------------------------

def run_simulate(cfg: ExperimentConfig, out: Path) -> None:
    pop = sample_population(_population(cfg))
    write_csv(out / "population.csv",
              ["market_id", "type", "product", "x1", "p", "xi", "z", "share"],
              Table(np.arange(len(pop))[:, None], pop.zeta[:, None],
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
              Table(np.arange(len(pop))[:, None], np.arange(spec.J), delta,
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
              Table(np.arange(len(pop))[:, None], np.arange(spec.J), y, pred,
                    spec.truth(pop, target)))


def run_fig1(cfg: ExperimentConfig, out: Path) -> None:
    spec = Fig1Spec(market_count=cfg.option("market_count"), seed=cfg.seed)
    pop = sample_population(spec.population_spec())
    shown = pop[:cfg.option("curves_plotted")]
    pairs = crossing_curves(spec, shown)
    panel = Panel(title="crossing demand curves", xlabel="price", ylabel="share")
    labels = {0: "type 0", 1: "type 1"}
    for i, (zeta, pair) in enumerate(zip(shown.zeta.tolist(), pairs)):
        if pair is None:
            raise RootNotBracketed(f"market {i}: share {shown.y[i, 0]} unreachable "
                                   f"by the opposite type")
        panel.add(pair.grid, pair.own, color=TYPE_COLORS[zeta],
                  label=labels.pop(zeta, ""))
        panel.add(pair.grid, pair.opposite, color=TYPE_COLORS[1 - zeta],
                  label=labels.pop(1 - zeta, ""), dash="4,3")
    write_csv(out / "curves.csv",
              ["market_id", "type", "grid_price", "own_share", "opposite_share"],
              Table(np.arange(len(pairs))[:, None], shown.zeta[:, None], pairs[0].grid,
                    np.array([p.own for p in pairs]), np.array([p.opposite for p in pairs])))
    write_svg(out / "fig1.svg", [panel])

    bins = max(2, min(50, spec.market_count // 10))
    v_two, v_one = acc.variance_pair(spec, pop, bins)
    write_csv(out / "variance_report.csv",
              ["population", "bins", "conditional_variance"],
              [["two-type", bins, v_two], ["single-type", bins, v_one]])


def _write_equivalence(path: Path, theorem: int, checks) -> None:
    """A theorem's equivalence report; any failed check is a CdlabError."""
    write_csv(path, ["check", "max_deviation", "passed"],
              [[c.name, c.value, c.passed] for c in checks])
    if not all(c.passed for c in checks):
        raise CdlabError(f"theorem {theorem} equivalence failed at tol {checks[0].threshold}")


def run_verify_thm1(cfg: ExperimentConfig, out: Path) -> None:
    spec = _population(cfg)
    if len(spec.mixing_by_type) != 1:
        raise ConfigError("verify-thm1 requires a single-type population")
    _write_equivalence(out / "thm1_report.csv", 1, acc.theorem1_checks(spec))


def run_verify_thm2(cfg: ExperimentConfig, out: Path) -> None:
    dgp, spec, markets = acc.stratified_population(
        cfg.option("market_count"), cfg.option("price_levels"), cfg.option("w_grid"), cfg.seed)
    _write_equivalence(out / "thm2_report.csv", 2,
                       mi.verify_theorem2(dgp, markets[:20], spec.level_bundle(dgp, 0)))


def run_fig2(cfg: ExperimentConfig, out: Path) -> None:
    markets, a, candidates = acc.one_level_population(cfg.option("market_count"),
                                                      cfg.option("w_grid"), cfg.seed)
    w = np.asarray(cfg.option("w_grid"), dtype=float)
    ids = np.arange(len(markets))[:, None]
    paths, panels = [], []
    for name, cand in candidates.items():
        title = ("(a) rejected candidate" if name == "identity"
                 else "(b) true transform")
        panel = Panel(title=title, xlabel="w", ylabel="transformed share")
        centered = mi._stacked_increments(cand, [m.profile for m in markets], a)[:, :, 0]
        for i, path in enumerate(centered):
            panel.add(w, path, color=TYPE_COLORS[i % 2])
        paths.append(centered)
        panels.append(panel)
    write_csv(out / "paths_raw.csv", ["market_id", "w", "value", "candidate_name"],
              Table(ids, w, np.array([m.profile.shares[:, 0] for m in markets]), "identity"))
    write_csv(out / "paths_transformed.csv", ["market_id", "w", "value", "candidate_name"],
              Table(np.tile(ids, (len(paths), 1)), w, np.concatenate(paths),
                    np.repeat(list(candidates), len(markets))[:, None]))
    write_svg(out / "fig2.svg", panels)


def run_extrapolate(cfg: ExperimentConfig, out: Path) -> None:
    data, _, mu = acc.demeaned_oracle_data(cfg.seed, n=cfg.option("n"))
    rule = ex.DemeanedRule.fit(data)
    shown = data[:200]
    pred = np.array([ex.extrapolate(rule, shown.y, shown.a, t) for t in range(len(mu))])
    write_csv(out / "predictions.csv", ["market_id", "target_a", "y_tilde"],
              Table(np.arange(len(shown))[:, None], np.arange(len(mu)), pred.T))
    # A fit that is not unique raises NonUnique, so `unique` is always True;
    # the column stays because perfbench's transport-rules check reads it.
    write_csv(out / "gmm_report.csv", ["parameter", "estimate", "criterion", "unique"],
              [[k, mu_k, rule.criterion, True] for k, mu_k in enumerate(rule.mu)])


def run_prop32(cfg: ExperimentConfig, out: Path) -> None:
    result = acc.criterion_6(cfg.seed)
    write_csv(out / "prop32_report.csv",
              ["family", "max_gap", "tol", "passed"],
              [[c.name, c.value, c.threshold, c.passed] for c in result.checks])
    if not result.passed:
        raise CdlabError("rule/structural agreement exceeded tolerance")


def run_micro_identify(cfg: ExperimentConfig, out: Path) -> None:
    dgp, spec, markets = acc.stratified_population(
        cfg.option("market_count"), cfg.option("price_levels"), cfg.option("w_grid"), cfg.seed)
    model = acc.complete_micro_model(dgp, spec, markets, cfg.option("y0"), cfg.seed)
    cands, K = model.candidates, len(model.candidates)
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
    m_rows = [[k, float(a.p[0]), float(model.levels_c[k, 0]),
               float(cands[k].residual)] for k, a in enumerate(model.dgp_levels)]
    write_csv(out / "moment_report.csv",
              ["level", "price", "c_hat", "parallel_residual"], m_rows)
    write_csv(out / "estimates.csv", ["parameter", "estimate"],
              [["alpha", alpha_hat], ["sigma", float(abs(cands[0].params[0]))]])


def run_price_ccs(cfg: ExperimentConfig, out: Path) -> None:
    price, x1_error = acc.price_ccs(ScaledX1Spec(market_count=cfg.option("market_count"),
                                                 seed=cfg.seed))
    write_csv(out / "price_ccs_report.csv", ["check", "value", "threshold", "passed"],
              [["max_price_error", price.value, price.threshold, price.passed]]
              + [[f"x1_error_type_{z}", x1_error[z], "", ""] for z in sorted(x1_error)])


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cdl` parser, built once per process: parse_args leaves it as it
    was, and `--set`'s append action copies its default list."""
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
            cfg.reseed(args.seed)
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
