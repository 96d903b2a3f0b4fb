"""The benchmark's four workloads.

Each workload writes its generated `cdl` configs from the seed
(`prepare`), runs one pass of `cdl` subcommands, acceptance criteria and
`cdlab.micro` calls (`run`, the timed part), and then checks the outputs
(`check`). A pass takes one to two seconds, so that a run times many
passes and reports their median. Acceptance criteria 1-4 take 3-8 s each
at their fixed sizes; their code runs here through the `cdl` subcommands
that call it at a size the benchmark sets. cdlab is called through module
attributes, so the span wrappers of a traced pass see every call.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

import cdlab.acceptance as acc
import cdlab.cli as cli
import cdlab.micro as mi

INVERSION_RESIDUAL_TOL = 1e-10  # the inversion's own share tolerance is 1e-12
# Criterion 1 gates its round trip at 1e-10; these solves sit at a 2 %
# outside share, where the same share tolerance leaves delta less exact.
DELTA_TOL = 1e-9
PREDICTION_TOL = 1e-10
PROFILE_TOL = 1e-6  # criterion 8's stratified profile gate
ORACLE_TOL = 1e-6  # criterion 5's demeaned-oracle gate
CROSSING_TOL = 1e-8  # diagnostics.CURVE_POINT_TOL


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _read_rows(path: Path) -> list[dict]:
    """The CSV's rows, or none when the run did not write it."""
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column_gap(rows, a: str, b: str) -> float:
    return max((abs(float(r[a]) - float(r[b])) for r in rows), default=np.inf)


def _exit_checks(codes: dict) -> list[Check]:
    return [Check(f"{cmd} exit code", rc == 0, f"exit {rc}") for cmd, rc in codes.items()]


def _criteria_checks(results, out: Path) -> list[Check]:
    """Named acceptance checks and runtime budgets; writes the rows the
    `cdl acceptance` subcommand writes to acceptance.csv."""
    checks, rows = [], []
    for r in results:
        for c in r.checks:
            rows.append([r.number, r.name, c.name, c.value, c.threshold, c.op, c.passed])
            checks.append(Check(f"criterion {r.number}: {c.name}", c.passed,
                                f"{c.value:.3e} {c.op} {c.threshold:g}"))
        if r.budget is not None:
            checks.append(Check(f"criterion {r.number}: runtime", r.runtime < r.budget,
                                f"{r.runtime:.2f}s of {r.budget:g}s"))
    cli.write_csv(out / "acceptance.csv",
                  ["criterion", "name", "check", "value", "threshold",
                   "comparison", "passed"], rows)
    return checks


def _report_checks(out: Path, report: str) -> list[Check]:
    """The named rows of a `cdl` report CSV (`check` or `family`, `passed`)."""
    rows = _read_rows(out / report)
    return [Check(f"{report}: {r.get('check') or r.get('family')}", r["passed"] == "True")
            for r in rows] or [Check(f"{report} written", False)]


class Workload:
    """Base: `canonical` names the CSVs compared byte for byte across
    passes; `configs` the `cdl` subcommands a pass runs, each with its
    generated population (or None) and options."""

    name = ""
    canonical: tuple = ()

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs
        self.values: dict = {}  # per-layer numbers measured by the checks

    def configs(self) -> dict:
        return {}

    def prepare(self) -> None:
        """Write the `cdl` configs; a fresh `cdl` process reads its config too."""
        self.inputs.mkdir(parents=True, exist_ok=True)
        for cmd, (population, options) in self.configs().items():
            cfg = {"schema_version": 1, "experiment": cmd, "seed": self.seed,
                   "population": population, "options": options}
            (self.inputs / f"{cmd}.json").write_text(json.dumps(cfg, indent=1))

    def cdl(self, out: Path) -> dict:
        """Run each configured subcommand; its exit code by name."""
        return {f"cdl {cmd}": cli.main([cmd, "--config", str(self.inputs / f"{cmd}.json"),
                                        "--out", str(out)])
                for cmd in self.configs()}

    def run(self, out: Path) -> dict:
        return {"codes": self.cdl(out)}

    def check(self, out: Path, result: dict) -> list[Check]:
        raise NotImplementedError


class InvertSaturated(Workload):
    name = "invert-saturated"
    canonical = ("inversion.csv", "predictions.csv")
    J = 25
    MARKETS = 40
    # x1 = 2.3 puts the median outside share near 0.02; the inversion cost
    # depends on that share, so it is fixed here rather than drawn. xi has
    # scale 0.3, not the default 1, so that the share evaluations a pass
    # makes vary little from seed to seed (IQR 2.5 % of the median, against
    # 7 % at scale 1).
    X1 = 2.3
    XI_SCALE = 0.3

    def configs(self):
        population = {
            "J": self.J, "market_count": self.MARKETS,
            "mixing_by_type": [{"kind": "lognormal", "loc": [0.0], "scale": [0.3]}],
            "type_probabilities": [1.0],
            "x1_law": {"kind": "constant", "value": self.X1},
            "xi_law": {"kind": "normal", "loc": 0.0, "scale": self.XI_SCALE},
            "integration": {"kind": "gauss-hermite", "nodes": 32},
            "seed": self.seed,
        }
        return {"invert": (population, {}), "predict": (population, {"price_shift": 0.5})}

    def check(self, out, result):
        checks = _exit_checks(result["codes"])
        n_rows = self.MARKETS * self.J
        inv = _read_rows(out / "inversion.csv")
        resid = max((float(r["residual"]) for r in inv), default=np.inf)
        delta_err = _column_gap(inv, "delta_hat", "delta_true")
        pred = _read_rows(out / "predictions.csv")
        pred_err = _column_gap(pred, "predicted_share", "true_share")
        self.values["round_trip_err"] = delta_err
        return checks + [
            Check("inversion.csv rows", len(inv) == n_rows, f"{len(inv)} of {n_rows}"),
            Check("inversion.csv residual", resid <= INVERSION_RESIDUAL_TOL, f"{resid:.3e}"),
            Check("inversion.csv delta_hat = delta_true", delta_err <= DELTA_TOL,
                  f"{delta_err:.3e}"),
            Check("predictions.csv rows", len(pred) == n_rows, f"{len(pred)} of {n_rows}"),
            Check("predictions.csv predicted = true_share", pred_err <= PREDICTION_TOL,
                  f"{pred_err:.3e}"),
        ]


class MarketsMany(Workload):
    """`cdl fig1`: crossing demand curves through sampled two-type J = 1
    markets, and the conditional variance of one-type and two-type
    populations; criteria 3 and 4 run the same code on 2,000 curves and
    2 x 10,000 markets."""

    name = "markets-many"
    canonical = ("curves.csv", "variance_report.csv")
    MARKETS = 1000
    CURVES = 100

    def configs(self):
        return {"fig1": (None, {"market_count": self.MARKETS,
                                "curves_plotted": self.CURVES})}

    def check(self, out, result):
        checks = _exit_checks(result["codes"])
        curves = {}
        for r in _read_rows(out / "curves.csv"):
            curves.setdefault(r["market_id"], []).append(
                float(r["own_share"]) - float(r["opposite_share"]))
        # Own and opposite curves pass through the same observed point with
        # different slopes, so their gap changes sign on the price grid.
        crossing = sum(1 for gap in curves.values()
                       if min(gap) <= CROSSING_TOL and max(gap) >= -CROSSING_TOL)
        var = {r["population"]: float(r["conditional_variance"])
               for r in _read_rows(out / "variance_report.csv")}
        single, two = var.get("single-type", np.inf), var.get("two-type", 0.0)
        return checks + [
            Check("curves.csv markets", len(curves) == self.CURVES,
                  f"{len(curves)} of {self.CURVES}"),
            Check("fraction of curve pairs that cross", crossing / self.CURVES > 0.95,
                  f"{crossing} of {self.CURVES}"),
            Check("single-type conditional variance", single <= 1e-10, f"{single:.3e}"),
            Check("two-type conditional variance", two > 1e-4, f"{two:.3e}"),
        ]


class MicroCompletion(Workload):
    """Criterion 8's stratified completion pipeline, on fewer markets, then
    criterion 7.

    Criterion 8 runs the pipeline on 200 markets and adds 24 endogenous
    and negative-control replicates, statistical checks that take most of
    its 50-67 s; the replicates are left out.
    """

    name = "micro-completion"
    canonical = ("profiles.csv", "acceptance.csv")
    LEVELS = (0.5, 1.0, 1.5, 2.0)
    MARKETS = 8
    PREDICTED = 4

    def prepare(self):
        super().prepare()
        self.dgp = acc.micro_dgp()
        self.spec = mi.MicroPopulationSpec(
            market_count=self.MARKETS, price_levels=self.LEVELS,
            w_grid=tuple(np.linspace(-1.0, 1.0, 20)),
            seed=self.seed + 8, assignment="stratified")

    def run(self, out):
        dgp, spec = self.dgp, self.spec
        K = len(self.LEVELS)
        markets = mi.simulate_micro(dgp, spec)
        levels = [spec.level_bundle(dgp, k) for k in range(K)]
        fam = mi.sigma_family(dgp, alpha_fixed=0.0)
        cands = [mi.identify_h_and_g(fam, [m.profile for m in markets if m.level == k],
                                     levels[k], y0=np.array([0.3]), starts=3,
                                     seed=self.seed + k)
                 for k in range(K)]
        model = mi.instrument_step(cands, markets, levels)
        preds = []
        for m in markets[:self.PREDICTED]:
            target = (m.level + 2) % K
            preds.append((m, target, model.predict_profile(m, target)))
        return {"levels": levels, "predictions": preds,
                "criteria": acc.run_criteria([7], seed=self.seed)}

    def check(self, out, result):
        worst, rows = 0.0, []
        for i, (m, target, pred) in enumerate(result["predictions"]):
            true = mi.true_profile(self.dgp, m.xi, result["levels"][target],
                                   self.spec.w_grid).shares
            worst = max(worst, float(np.max(np.abs(pred - true))))
            rows += [[i, target, g, float(v)] for g, v in enumerate(pred[:, 0])]
        cli.write_csv(out / "profiles.csv", ["market_id", "target_level", "w_index",
                                             "predicted_share"], rows)
        self.values["profile_err"] = worst
        n_rows = self.PREDICTED * len(self.spec.w_grid)
        checks = [Check("predicted profiles", len(rows) == n_rows, f"{len(rows)} rows"),
                  Check("profile error vs true_profile", worst <= PROFILE_TOL,
                        f"{worst:.3e}")]
        return checks + _criteria_checks(result["criteria"], out)


class TransportRules(Workload):
    """`cdl verify-thm1` (criterion 2's first half, on fewer markets),
    `cdl prop32` (criterion 6), `cdl price-ccs` (criterion 9's check, on
    fewer markets) and `cdl extrapolate`, then criterion 5, the only one
    that fits the quantile family."""

    name = "transport-rules"
    canonical = ("thm1_report.csv", "prop32_report.csv", "price_ccs_report.csv",
                 "predictions.csv", "gmm_report.csv", "acceptance.csv")
    EXTRAPOLATED = 200  # markets `cdl extrapolate` writes predictions for

    def configs(self):
        population = {
            "J": 2, "market_count": 40,
            "mixing_by_type": [{"kind": "lognormal", "loc": [0.0], "scale": [0.3]}],
            "type_probabilities": [1.0], "seed": self.seed + 2,
        }
        return {"verify-thm1": (population, {}), "prop32": (None, {}),
                "price-ccs": (None, {"market_count": 100}), "extrapolate": (None, {})}

    def run(self, out):
        return dict(super().run(out), criteria=acc.run_criteria([5], seed=self.seed))

    def check(self, out, result):
        checks = _exit_checks(result["codes"])
        checks += _report_checks(out, "thm1_report.csv")
        checks += _report_checks(out, "prop32_report.csv")
        ccs = {r["check"]: float(r["value"])
               for r in _read_rows(out / "price_ccs_report.csv")}
        price_err = ccs.pop("max_price_error", np.inf)
        x1_err = max(ccs.values(), default=0.0)
        rows = _read_rows(out / "predictions.csv")
        _, shocks, mu = acc.demeaned_oracle_data(self.seed, n=self.EXTRAPOLATED)
        err = max((abs(float(r["y_tilde"])
                       - float(expit(mu[int(r["target_a"])] + shocks[int(r["market_id"])])))
                   for r in rows), default=np.inf)
        n_rows = self.EXTRAPOLATED * len(mu)
        gmm = _read_rows(out / "gmm_report.csv")
        checks += [
            Check("price-ccs price counterfactual error", price_err <= 1e-8,
                  f"{price_err:.3e}"),
            Check("price-ccs x1 counterfactual error", x1_err > 0.01, f"{x1_err:.3e}"),
            Check("extrapolate predictions rows", len(rows) == n_rows,
                  f"{len(rows)} of {n_rows}"),
            Check("extrapolate oracle error", err <= ORACLE_TOL, f"{err:.3e}"),
            Check("extrapolate fit unique", bool(gmm) and all(r["unique"] == "True"
                                                              for r in gmm)),
        ]
        return checks + _criteria_checks(result["criteria"], out)


WORKLOADS = {w.name: w for w in (InvertSaturated, MarketsMany, MicroCompletion,
                                 TransportRules)}
