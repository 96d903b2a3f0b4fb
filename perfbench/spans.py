"""In-memory span recorder for the traced run, and the per-layer metrics
derived from its spans.

Spans are recorded from outside the package: each wrapped function is
replaced, at the name its caller looks up, by a wrapper that appends one
span (name, parent, start, end) to flat arrays. Self time and the
per-solve counts come from the parent links after the run. Every wrapper
is removed again by :meth:`Recorder.uninstall`, so untraced passes run
the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

_FAMILY_NAMES = {"demeaned-transform": "demeaned", "quantile-rank": "quantile",
                 "partially-linear-index": "partially_linear"}


# Info hooks: called as hook(args, result) after a wrapped call returns;
# the value is kept with the span.
def _j_outside(args, result):
    return (int(args[1].J), float(args[1].outside))


def _markets(args, result):
    return int(args[0].market_count)


def _points(args, result):
    return int(np.size(args[1]))


def _profile_points(args, result):
    return int(sum(np.size(p.shares) for p in args[1]))


def _family(args, result):
    return _FAMILY_NAMES.get(args[0].kind, args[0].kind)


def _nfev(args, result):
    return int(result.nfev)


def _bytes(args, result):
    return Path(args[0]).stat().st_size


# (owner, attribute, span name, info hook). The owner is a module path, a
# "module:Class" path, or "module:DICT" with attribute None, whose entries
# are all wrapped. Several bindings of one function share a span name: a
# module that ran `from .demand import shares_array` holds its own
# reference, and that is the one its callers use.
WRAP_POINTS = [
    ("cdlab.inversion", "shares_array", "demand.shares", None),
    ("cdlab.demand", "shares_array", "demand.shares", None),
    ("cdlab.transforms", "shares_array", "demand.shares", None),
    ("cdlab.population", "shares", "demand.shares", None),
    ("cdlab.counterfactual", "shares", "demand.shares", None),
    ("cdlab.acceptance", "shares", "demand.shares", None),
    ("cdlab.inversion", "share_jacobian", "demand.share_jacobian", None),
    ("cdlab.demand", "share_jacobian", "demand.share_jacobian", None),
    ("cdlab.diagnostics", "share_curve_1d", "demand.share_curve_1d", None),
    ("cdlab.demand", "share_curve_1d", "demand.share_curve_1d", None),
    ("cdlab.diagnostics", "share_curve_slope_1d", "demand.share_curve_slope_1d", None),
    ("cdlab.inversion", "invert", "inversion.invert", _j_outside),
    ("cdlab.cli", "invert", "inversion.invert", _j_outside),
    ("cdlab.acceptance", "invert", "inversion.invert", _j_outside),
    ("cdlab.transforms", "invert", "inversion.invert", _j_outside),
    ("cdlab.cli", "sample_population", "population.sample_population", _markets),
    ("cdlab.acceptance", "sample_population", "population.sample_population", _markets),
    ("cdlab.diagnostics", "true_counterfactual", "population.true_counterfactual", None),
    ("cdlab.cli", "true_counterfactual", "population.true_counterfactual", None),
    ("cdlab.acceptance", "true_counterfactual", "population.true_counterfactual", None),
    ("cdlab.acceptance", "crossing_curve", "diagnostics.crossing_curve", None),
    ("cdlab.cli", "crossing_curve", "diagnostics.crossing_curve", None),
    ("cdlab.acceptance", "conditional_variance", "diagnostics.conditional_variance", None),
    ("cdlab.cli", "conditional_variance", "diagnostics.conditional_variance", None),
    ("cdlab.micro", "simulate_micro", "micro.simulate_micro", None),
    ("cdlab.micro", "identify_h_and_g", "micro.identify_h_and_g", None),
    # identify_h_and_g imports minimize inside the function body.
    ("scipy.optimize", "minimize", "micro.nelder_mead", _nfev),
    ("cdlab.micro", "parallel_residual", "micro.parallel_residual", _profile_points),
    ("cdlab.micro", "micro_invert_1d", "micro.micro_invert_1d", _points),
    ("cdlab.micro:CompletedMicroModel", "predict_profile", "micro.predict_profile", None),
    ("cdlab.micro", "instrument_step", "micro.instrument_step", None),
    ("cdlab.extrapolation", "solve_orthogonality",
     "extrapolation.solve_orthogonality", _family),
    ("cdlab.extrapolation", "minimize", "extrapolation.nelder_mead", _nfev),
    ("cdlab.extrapolation", "extrapolate", "extrapolation.extrapolate", None),
    ("cdlab.extrapolation", "check_prop32", "extrapolation.check_prop32", None),
    ("cdlab.counterfactual", "predict", "counterfactual.predict", None),
    ("cdlab.acceptance", "verify_theorem1", "counterfactual.verify_theorem1", None),
    ("cdlab.cli", "verify_theorem1", "counterfactual.verify_theorem1", None),
    ("cdlab.cli", "write_csv", "cli.write_csv", _bytes),
    ("cdlab.cli", "main", "cli.main", None),
    ("cdlab.acceptance:ALL_CRITERIA", None, "acceptance.criterion_{key}", None),
]

MODULES = ("demand", "inversion", "population", "diagnostics", "micro",
           "extrapolation", "counterfactual", "cli", "acceptance")
CRITERIA = (5, 7)  # the acceptance criteria a workload pass runs

#: Every per-layer metric the traced run reports, with its unit. A metric
#: that does not apply to a workload reads 0.
LAYER_METRICS = [
    ("demand.shares.calls", "count"),
    ("demand.shares.self_s", "s"),
    ("demand.shares.us_per_call", "us"),
    ("demand.share_jacobian.calls", "count"),
    ("demand.share_jacobian.self_s", "s"),
    ("demand.share_curve_1d.calls", "count"),
    ("demand.share_curve_1d.self_s", "s"),
    ("inversion.invert.calls", "count"),
    ("inversion.invert.self_s", "s"),
    ("inversion.share_evals_per_solve.p50", "count"),
    ("inversion.share_evals_per_solve.max", "count"),
    ("inversion.newton_steps_per_solve.p50", "count"),
    ("inversion.no_convergence", "count"),
    ("inversion.round_trip_err", "1"),
    ("inversion.outside_share.p50", "1"),
    ("population.sample_population.s", "s"),
    ("population.sample_us_per_market", "us"),
    ("population.true_counterfactual.calls", "count"),
    ("population.true_counterfactual.self_s", "s"),
    ("diagnostics.crossing_curve.calls", "count"),
    ("diagnostics.crossing_curve.self_s", "s"),
    ("diagnostics.curve_evals_per_curve", "count"),
    ("diagnostics.root_not_bracketed", "count"),
    ("diagnostics.conditional_variance.self_s", "s"),
    ("micro.simulate_micro.s", "s"),
    ("micro.identify_h_and_g.s", "s"),
    ("micro.nelder_mead.nfev", "count"),
    ("micro.parallel_residual.calls", "count"),
    ("micro.parallel_residual.self_s", "s"),
    ("micro.parallel_residual.us_per_point", "us"),
    ("micro.micro_invert_1d.calls", "count"),
    ("micro.micro_invert_1d.points", "count"),
    ("micro.micro_invert_1d.self_s", "s"),
    ("micro.swallowed_failures", "count"),
    ("micro.predict_profile.s", "s"),
    ("micro.candidate_evals_per_profile", "count"),
    ("micro.instrument_step.s", "s"),
    ("micro.profile_err", "1"),
    ("extrapolation.solve_orthogonality.demeaned.s", "s"),
    ("extrapolation.solve_orthogonality.quantile.s", "s"),
    ("extrapolation.solve_orthogonality.partially_linear.s", "s"),
    ("extrapolation.nelder_mead.solves", "count"),
    ("extrapolation.nelder_mead.nfev", "count"),
    ("extrapolation.extrapolate.calls", "count"),
    ("extrapolation.check_prop32.s", "s"),
    ("counterfactual.predict.calls", "count"),
    ("counterfactual.predict.self_s", "s"),
    ("counterfactual.verify_theorem1.s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.bytes", "bytes"),
] + [(f"acceptance.criterion_{n}.s", "s") for n in CRITERIA] + [
    (f"{m}.self_s", "s") for m in MODULES] + [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

#: Exceptions the identify_h_and_g objective turns into a penalty value.
_SWALLOWED = ("NoConvergence", "FloatingPointError")


def _resolve(owner: str):
    module, _, member = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, member) if member else obj


class Recorder:
    """Flat span arrays plus the wrappers that fill them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.info: dict[int, object] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._nid(name))
        try:
            yield
        except BaseException as exc:
            self.errors[idx] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def _wrapper(self, orig, name: str, info):
        nid = self._nid(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if info is not None:
                self.info[idx] = info(args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, info in WRAP_POINTS:
            try:
                target = _resolve(owner)
            except (ImportError, AttributeError):
                self.missing.append(owner)
                continue
            if attr is None:  # wrap every entry of a dict
                for key, fn in list(target.items()):
                    self._patches.append((target, key, fn, True))
                    target[key] = self._wrapper(fn, name.format(key=key), info)
                continue
            if not hasattr(target, attr):
                self.missing.append(f"{owner}.{attr}")
                continue
            orig = getattr(target, attr)
            self._patches.append((target, attr, orig, False))
            setattr(target, attr, self._wrapper(orig, name, info))

    def uninstall(self):
        while self._patches:
            target, key, orig, is_dict = self._patches.pop()
            if is_dict:
                target[key] = orig
            else:
                setattr(target, key, orig)

    # -- analysis --------------------------------------------------------

    def arrays(self):
        name = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def payload(self, extra: dict) -> dict:
        """The spans as the JSON-ready dict that `dump` writes."""
        spans = [[n, p, round(s, 7), round(e, 7)] for n, p, s, e in
                 zip(self.name_id, self.parent, self.start, self.end)]
        return dict(extra, missing_wrap_points=self.missing, names=self.names,
                    errors={str(k): v for k, v in self.errors.items()},
                    info={str(k): v for k, v in self.info.items()},
                    spans=spans)

    def dump(self, path: Path, extra: dict):
        path.write_text(json.dumps(self.payload(extra)))


def nearest(name, parent, target: int) -> np.ndarray:
    """Index of each span's nearest enclosing span whose name id is
    `target` (itself included), or -1. Parents precede their children."""
    out = [-1] * len(name)
    for i, (n, p) in enumerate(zip(np.asarray(name).tolist(),
                                   np.asarray(parent).tolist())):
        if n == target:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return np.asarray(out, dtype=np.int64)


def _p50(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(rec: Recorder, values: dict) -> dict:
    """Per-layer metrics from the recorded spans.

    `values` carries the numbers the workload's own checks measured
    (round-trip and profile errors) and the wall times of the traced and
    untraced passes.
    """
    name, parent, dur, self_t = rec.arrays()
    ids = rec._name_ids

    def sel(n):
        return name == ids.get(n, -2)

    def calls(n):
        return int(np.count_nonzero(sel(n)))

    def total(n):
        return float(dur[sel(n)].sum())

    def self_s(n):
        return float(self_t[sel(n)].sum())

    def info(n):
        return [rec.info[i] for i in np.flatnonzero(sel(n)) if i in rec.info]

    def errors(n, kinds):
        return sum(1 for i in np.flatnonzero(sel(n)) if rec.errors.get(int(i)) in kinds)

    def per_ancestor(child: str, ancestor: str):
        """Count of `child` spans inside each `ancestor` span."""
        owner = nearest(name, parent, ids.get(ancestor, -2))
        roots = np.flatnonzero(sel(ancestor))
        counts = dict.fromkeys(roots.tolist(), 0)
        for i in np.flatnonzero(sel(child)):
            if int(owner[i]) in counts:
                counts[int(owner[i])] += 1
        return counts

    m = {}
    n_shares = calls("demand.shares")
    m["demand.shares.calls"] = n_shares
    m["demand.shares.self_s"] = self_s("demand.shares")
    m["demand.shares.us_per_call"] = 1e6 * total("demand.shares") / n_shares if n_shares else 0.0
    for fn in ("share_jacobian", "share_curve_1d"):
        m[f"demand.{fn}.calls"] = calls(f"demand.{fn}")
        m[f"demand.{fn}.self_s"] = self_s(f"demand.{fn}")

    m["inversion.invert.calls"] = calls("inversion.invert")
    m["inversion.invert.self_s"] = self_s("inversion.invert")
    evals = per_ancestor("demand.shares", "inversion.invert")
    steps = per_ancestor("demand.share_jacobian", "inversion.invert")
    m["inversion.share_evals_per_solve.p50"] = _p50(list(evals.values()))
    m["inversion.share_evals_per_solve.max"] = max(evals.values(), default=0)
    m["inversion.newton_steps_per_solve.p50"] = _p50(list(steps.values()))
    m["inversion.no_convergence"] = errors("inversion.invert", ("NoConvergence",))
    m["inversion.round_trip_err"] = float(values.get("round_trip_err", 0.0))
    m["inversion.outside_share.p50"] = _p50([o for _, o in info("inversion.invert")])

    sampled = sum(info("population.sample_population"))
    m["population.sample_population.s"] = total("population.sample_population")
    m["population.sample_us_per_market"] = (
        1e6 * total("population.sample_population") / sampled if sampled else 0.0)
    m["population.true_counterfactual.calls"] = calls("population.true_counterfactual")
    m["population.true_counterfactual.self_s"] = self_s("population.true_counterfactual")

    curves = calls("diagnostics.crossing_curve")
    m["diagnostics.crossing_curve.calls"] = curves
    m["diagnostics.crossing_curve.self_s"] = self_s("diagnostics.crossing_curve")
    curve_evals = per_ancestor("demand.share_curve_1d", "diagnostics.crossing_curve")
    m["diagnostics.curve_evals_per_curve"] = (
        sum(curve_evals.values()) / curves if curves else 0.0)
    m["diagnostics.root_not_bracketed"] = errors("diagnostics.crossing_curve",
                                                 ("RootNotBracketed",))
    m["diagnostics.conditional_variance.self_s"] = self_s("diagnostics.conditional_variance")

    for fn in ("simulate_micro", "identify_h_and_g", "predict_profile", "instrument_step"):
        m[f"micro.{fn}.s"] = total(f"micro.{fn}")
    m["micro.nelder_mead.nfev"] = sum(info("micro.nelder_mead"))
    m["micro.parallel_residual.calls"] = calls("micro.parallel_residual")
    m["micro.parallel_residual.self_s"] = self_s("micro.parallel_residual")
    points = sum(info("micro.parallel_residual"))
    m["micro.parallel_residual.us_per_point"] = (
        1e6 * total("micro.parallel_residual") / points if points else 0.0)
    m["micro.micro_invert_1d.calls"] = calls("micro.micro_invert_1d")
    m["micro.micro_invert_1d.points"] = sum(info("micro.micro_invert_1d"))
    m["micro.micro_invert_1d.self_s"] = self_s("micro.micro_invert_1d")
    in_identify = nearest(name, parent, ids.get("micro.identify_h_and_g", -2))
    m["micro.swallowed_failures"] = sum(
        1 for i in np.flatnonzero(sel("micro.parallel_residual"))
        if in_identify[i] >= 0 and rec.errors.get(int(i)) in _SWALLOWED)
    profiles = calls("micro.predict_profile")
    cand_evals = per_ancestor("micro.micro_invert_1d", "micro.predict_profile")
    m["micro.candidate_evals_per_profile"] = (
        sum(cand_evals.values()) / profiles if profiles else 0.0)
    m["micro.profile_err"] = float(values.get("profile_err", 0.0))

    fams = info("extrapolation.solve_orthogonality")
    fit_s = dur[sel("extrapolation.solve_orthogonality")]
    for fam in ("demeaned", "quantile", "partially_linear"):
        m[f"extrapolation.solve_orthogonality.{fam}.s"] = float(
            sum(t for f, t in zip(fams, fit_s) if f == fam))
    m["extrapolation.nelder_mead.solves"] = calls("extrapolation.nelder_mead")
    m["extrapolation.nelder_mead.nfev"] = sum(info("extrapolation.nelder_mead"))
    m["extrapolation.extrapolate.calls"] = calls("extrapolation.extrapolate")
    m["extrapolation.check_prop32.s"] = total("extrapolation.check_prop32")

    m["counterfactual.predict.calls"] = calls("counterfactual.predict")
    m["counterfactual.predict.self_s"] = self_s("counterfactual.predict")
    m["counterfactual.verify_theorem1.s"] = total("counterfactual.verify_theorem1")

    m["cli.write_csv.calls"] = calls("cli.write_csv")
    m["cli.write_csv.s"] = total("cli.write_csv")
    m["cli.write_csv.bytes"] = sum(info("cli.write_csv"))

    for n in CRITERIA:
        m[f"acceptance.criterion_{n}.s"] = total(f"acceptance.criterion_{n}")
    for mod in MODULES:
        mine = np.isin(name, [i for n, i in ids.items() if n.startswith(mod + ".")])
        m[f"{mod}.self_s"] = float(self_t[mine].sum())

    m["trace.wall_s"] = float(values["traced_wall_s"])
    m["trace.untraced_wall_s"] = float(values["untraced_wall_s"])
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.spans"] = len(name)
    return m
