"""Edge-of-domain contract of every `cdl` subcommand.

Option values are drawn from the field table in `cdlab.config`: valid
values, values at a field's least, and values the table refuses (a wrong
type, below the least, NaN or Infinity, an empty list). The subcommands
that take a population also draw its fields, valid or not. Whatever the
draw, a run exits 0, 1 or 2 and raises nothing (so prints no traceback),
and a run that exits 0 writes no NaN or infinite cell in any CSV. Sizes
stay small, so the whole test takes a few seconds.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdlab import cli
from cdlab.config import NUMBER, OPTIONS, POPULATED, SHARE, WHOLE

SMALL = 12  # the largest valid count drawn above a field's least
UPPER = {"n": 400}  # extrapolate needs 10 observations per parameter
FAST_CRITERIA = (1, 2, 5, 6, 7, 9)  # about 0.2 s together; 3, 4 and 8 take seconds
NAN, INF = float("nan"), float("inf")


def valid_values(name, field):
    if name == "criteria":
        return st.lists(st.sampled_from(FAST_CRITERIA), min_size=1, max_size=3, unique=True)
    if field.kind is WHOLE:
        return st.integers(field.least, UPPER.get(name, field.least + SMALL))
    if field.kind is SHARE:
        return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    number = st.floats(-3.0, 3.0)
    if field.many:
        return st.lists(number, min_size=field.least, max_size=field.least + 4)
    return number | st.floats(-1e3, 1e3)


def refused_values(name, field):
    """Values of another kind, below the least, non-finite or empty."""
    if field.many:
        short = [[0.5] * (field.least - 1)] if field.least else []
        return st.sampled_from([[NAN], [INF, 0.5], ["a"], [True], 5, "abc", []] + short)
    bad = ["abc", True, [1]] + ([None] if field.default is not None else [])
    if field.kind is WHOLE:
        bad += [2.5, NAN, field.least - 1]
    elif field.kind is NUMBER:
        bad += [NAN, INF, -INF]
    elif field.kind is SHARE:
        bad += [0, 1, 1.5, NAN]
    return st.sampled_from(bad)


@st.composite
def options(draw, cmd):
    """`--set` texts for some of the subcommand's options."""
    out = {}
    for name, field in OPTIONS[cmd].items():
        choice = draw(st.sampled_from(["default", "valid", "valid", "refused"]))
        if choice == "valid":
            out[name] = json.dumps(draw(valid_values(name, field)))
        elif choice == "refused":
            out[name] = json.dumps(draw(refused_values(name, field)))
    return out


#: Population fields that the table refuses, or that its objects do.
BAD_POPULATION_FIELDS = [
    ("J", 0), ("J", 2.5), ("J", "abc"), ("J", None), ("market_count", 0),
    ("market_count", 2.5), ("market_count", True), ("x2_dim", -1), ("gamma", ["a"]),
    ("gamma", [NAN]), ("mixing_by_type", 5), ("mixing_by_type", []),
    ("mixing_by_type", [{"kind": "lognormal", "loc": ["a"]}]),
    ("mixing_by_type", [{"kind": "lognormal", "scale": [-1.0]}]),
    ("type_probabilities", [NAN]), ("type_probabilities", [0.5]),
    ("price_law", "x"), ("price_law", {"kind": "normal", "loc": 0.0}),
    ("xi_law", {"kind": "uniform", "lo": 1.0, "hi": 0.0}),
    ("x1_law", {"kind": "constant", "value": INF}),
    ("integration", {"nodes": 2.5}), ("integration", {"nodes": "x"}),
    ("integration", {"nodes": 0}), ("integration", {"kind": "monte-carlo", "draws": 0}),
    ("seed", -1), ("seed", 1.5), ("seed", 2**128),
]


@st.composite
def populations(draw):
    J = draw(st.integers(1, 3))
    x2_dim = draw(st.integers(0, 2))
    mixing = {"kind": draw(st.sampled_from(["normal", "lognormal", "degenerate"])),
              "loc": [draw(st.floats(-1.0, 1.0))], "scale": [draw(st.floats(0.05, 1.0))]}
    if mixing["kind"] == "degenerate":
        mixing["scale"] = [0.0]
    pop = {"J": J, "market_count": draw(st.integers(1, 6)), "mixing_by_type": [mixing],
           "type_probabilities": [1.0], "x2_dim": x2_dim,
           "gamma": draw(st.lists(st.floats(-1.0, 1.0), min_size=x2_dim, max_size=x2_dim)),
           "integration": draw(st.sampled_from([
               {"kind": "gauss-hermite", "nodes": draw(st.integers(1, 16))},
               {"kind": "monte-carlo", "draws": draw(st.integers(1, 50)),
                "seed": draw(st.integers(0, 2**64))}])),
           "seed": draw(st.integers(0, 2**64))}
    if draw(st.booleans()):
        pop["mixing_by_type"] = [mixing, {"kind": "lognormal", "loc": [0.3], "scale": [0.6]}]
        pop["type_probabilities"] = [0.5, 0.5]
    if draw(st.booleans()):
        key, value = draw(st.sampled_from(BAD_POPULATION_FIELDS))
        if isinstance(value, dict) and key == "integration":
            value = {**pop["integration"], **value}
        pop[key] = value
    return pop


@st.composite
def runs(draw):
    cmd = draw(st.sampled_from(sorted(OPTIONS)))
    return cmd, draw(options(cmd)), draw(populations()) if cmd in POPULATED else None


def _population(**fields):
    return {"J": 1, "market_count": 3, "mixing_by_type": [{"kind": "lognormal"}],
            "type_probabilities": [1.0], **fields}


def non_finite_cells(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    if not math.isfinite(float(cell)):
                        yield cell
                except ValueError:
                    pass


@settings(max_examples=80, deadline=None)
@given(runs())
# Each case below once ended in a traceback, in an exit code of the wrong
# class, or in a vacuous or nan result.
@example(("verify-thm2", {"w_grid": "[0.5]"}, None))
@example(("verify-thm2", {"w_grid": "[]"}, None))
@example(("verify-thm2", {"price_levels": "[]"}, None))
@example(("verify-thm2", {"w_grid": "[0.5,0.5]"}, None))
@example(("fig2", {"w_grid": "[]"}, None))
@example(("fig2", {"w_grid": "[0.5]"}, None))
@example(("fig2", {"w_grid": "[0.5,0.5]"}, None))
@example(("fig2", {"w_grid": "[NaN,0.5]"}, None))
@example(("micro-identify", {"w_grid": "[0.5]"}, None))
@example(("micro-identify", {"w_grid": "[0.5,0.5]"}, None))
@example(("micro-identify", {"w_grid": "[0.5,0.5,0.7]"}, None))
@example(("micro-identify", {"price_levels": "[1.5]"}, None))
@example(("micro-identify", {"price_levels": "[1.0,1.0]"}, None))
@example(("micro-identify", {"price_levels": "[0.0,1.5199969396623625e-215]"}, None))
@example(("micro-identify", {"w_grid": "[0.0,1.8970274687524524e-266]"}, None))
@example(("micro-identify", {"w_grid": "[0.5,0.5,0.5,0.5,0.7]"}, None))
@example(("micro-identify", {"market_count": "7"}, None))
@example(("micro-identify", {"market_count": "2"}, None))
@example(("micro-identify", {"y0": "1.5"}, None))
@example(("acceptance", {"criteria": "[]"}, None))
@example(("fig1", {"market_count": "1"}, None))
@example(("fig1", {"market_count": "2"}, None))
@example(("fig1", {"market_count": "3"}, None))
@example(("fig1", {"market_count": "4"}, None))
@example(("fig1", {"curves_plotted": "-1"}, None))
@example(("predict", {"price_shift": "NaN"}, None))
@example(("predict", {"price_shift": "abc"}, None))
@example(("extrapolate", {"n": "0"}, None))
@example(("invert", {}, _population(J=2.7)))
@example(("invert", {}, _population(market_count=2.5)))
@example(("invert", {}, _population(market_count=0)))
@example(("invert", {}, _population(integration={"nodes": 2.5})))
@example(("invert", {}, _population(J="abc")))
@example(("invert", {}, _population(J=None)))
@example(("invert", {}, _population(x2_dim=-1)))
@example(("invert", {}, _population(gamma=["a"])))
@example(("invert", {}, _population(mixing_by_type=[{"kind": "lognormal", "loc": ["a"]}])))
@example(("invert", {}, _population(mixing_by_type=5)))
@example(("invert", {}, _population(price_law="x")))
@example(("invert", {}, _population(integration={"nodes": "x"})))
@example(("invert", {}, _population(seed=2**128)))
def test_every_run_exits_0_1_or_2_and_a_pass_writes_finite_csvs(run):
    cmd, sets, population = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        args = [cmd, "--out", str(out)]
        for name, text in sets.items():
            args += ["--set", f"{name}={text}"]
        if population is not None:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps({"schema_version": 1, "experiment": cmd,
                                        "population": population}))
            args += ["--config", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            for path in out.glob("*.csv"):
                assert not list(non_finite_cells(path)), f"{path.name}: {err.getvalue()}"
