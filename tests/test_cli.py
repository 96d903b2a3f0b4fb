import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdlab import cli, laws
from cdlab.config import OPTIONS
from cdlab.errors import NoConvergence, RootNotBracketed


def run(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_writes_population_csv(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--out", out]) == 0
    rows = read_csv(out / "population.csv")
    assert rows[0] == ["market_id", "type", "product", "x1", "p", "xi", "z",
                       "share"]
    assert len(rows) == 201  # default population: 200 markets, one product


def test_invert_round_trip_artifact(tmp_path):
    out = tmp_path / "out"
    assert run(["invert", "--out", out]) == 0
    rows = read_csv(out / "inversion.csv")
    for row in rows[1:]:
        assert abs(float(row[2]) - float(row[3])) < 1e-8


def test_predict_artifact_matches_truth_for_single_type(tmp_path):
    out = tmp_path / "out"
    assert run(["predict", "--out", out]) == 0
    rows = read_csv(out / "predictions.csv")
    for row in rows[1:]:
        assert abs(float(row[3]) - float(row[4])) < 1e-8


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["simulate", "--out", out, "--seed", "7"]) == 0
    assert (out1 / "population.csv").read_bytes() == \
        (out2 / "population.csv").read_bytes()


def test_fig1_emits_curves_figure_and_variance_report(tmp_path):
    out = tmp_path / "out"
    assert run(["fig1", "--out", out, "--set", "market_count=40"]) == 0
    assert (out / "fig1.svg").exists()
    rows = read_csv(out / "curves.csv")
    assert rows[0] == ["market_id", "type", "grid_price", "own_share",
                       "opposite_share"]
    vrows = read_csv(out / "variance_report.csv")
    by_pop = {r[0]: float(r[2]) for r in vrows[1:]}
    assert by_pop["two-type"] > by_pop["single-type"]


def test_fig2_emits_paths_and_two_panel_figure(tmp_path):
    out = tmp_path / "out"
    assert run(["fig2", "--out", out, "--set", "market_count=6"]) == 0
    content = (out / "fig2.svg").read_text()
    assert "(a) rejected candidate" in content
    assert "(b) true transform" in content
    rows = read_csv(out / "paths_transformed.csv")
    names = {r[3] for r in rows[1:]}
    assert names == {"identity", "true"}


def test_verify_thm1_report(tmp_path):
    out = tmp_path / "out"
    assert run(["verify-thm1", "--out", out]) == 0
    rows = read_csv(out / "thm1_report.csv")
    assert len(rows) == 4
    assert all(r[2] == "True" for r in rows[1:])


def test_verify_thm2_report(tmp_path):
    out = tmp_path / "out"
    assert run(["verify-thm2", "--out", out, "--set", "market_count=8"]) == 0
    rows = read_csv(out / "thm2_report.csv")
    assert [r[0] for r in rows[1:]] == ["profile_conversion", "parallel_paths",
                                        "transformed_shift"]


def test_extrapolate_and_prop32(tmp_path):
    out = tmp_path / "out"
    assert run(["extrapolate", "--out", out, "--set", "n=400"]) == 0
    assert (out / "predictions.csv").exists()
    grows = read_csv(out / "gmm_report.csv")
    assert len(grows) == 5  # four treatment levels
    assert run(["prop32", "--out", tmp_path / "p32"]) == 0
    assert (tmp_path / "p32" / "prop32_report.csv").exists()


def test_micro_identify_estimates(tmp_path):
    out = tmp_path / "out"
    assert run(["micro-identify", "--out", out,
                "--set", "market_count=24",
                "--set", "price_levels=[0.5,1.25,2.0]",
                "--set", "w_grid=[-1.0,-0.5,0.0,0.5,1.0]"]) == 0
    est = {r[0]: float(r[1]) for r in read_csv(out / "estimates.csv")[1:]}
    assert abs(est["alpha"] - 1.0) < 1e-4
    assert abs(est["sigma"] - 0.8) < 1e-3
    assert (out / "g_hat.csv").exists()
    assert (out / "h_hat.csv").exists()
    assert (out / "moment_report.csv").exists()


def test_price_ccs_report(tmp_path):
    out = tmp_path / "out"
    assert run(["price-ccs", "--out", out, "--set", "market_count=40"]) == 0
    rows = read_csv(out / "price_ccs_report.csv")
    assert rows[1][0] == "max_price_error"
    assert rows[1][3] == "True"


def test_config_file_drives_run(tmp_path):
    cfg = {"schema_version": 1, "experiment": "simulate",
           "output_dir": str(tmp_path / "from_cfg"), "seed": 2,
           "population": {"J": 1, "market_count": 3,
                          "mixing_by_type": [{"kind": "lognormal",
                                              "loc": [0.0], "scale": [0.4]}],
                          "type_probabilities": [1.0]}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", path]) == 0
    rows = read_csv(tmp_path / "from_cfg" / "population.csv")
    assert len(rows) == 4


def test_exit_code_1_on_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["simulate", "--config", bad]) == 1
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"schema_version": 1, "experiment": "invert"}))
    assert run(["simulate", "--config", ok]) == 1  # experiment mismatch
    assert "error:" in capsys.readouterr().err


def test_negative_seed_flag_exits_1_naming_it(tmp_path, capsys):
    assert run(["simulate", "--seed", "-1", "--out", tmp_path / "out"]) == 1
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("where,cfg", [
    ("seed", {"seed": -1}),
    ("population seed", {"population": {"seed": -2}}),
    ("integration seed", {"population": {"integration": {"kind": "monte-carlo",
                                                         "draws": 10, "seed": -3}}}),
])
def test_negative_config_seed_exits_1_naming_it(tmp_path, capsys, where, cfg):
    population = {"J": 1, "market_count": 3, "mixing_by_type": [{"kind": "lognormal"}],
                  "type_probabilities": [1.0], **cfg.get("population", {})}
    doc = {"schema_version": 1, "experiment": "simulate", "seed": cfg.get("seed", 0),
           "population": population}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert run(["simulate", "--config", path, "--out", tmp_path / "out"]) == 1
    assert f"{where} must be a non-negative integer" in capsys.readouterr().err


def test_multi_word_seed_runs(tmp_path):
    assert run(["simulate", "--seed", 2**64 + 3, "--out", tmp_path]) == 0
    assert len(read_csv(tmp_path / "population.csv")) == 201


def test_oversized_quadrature_grid_exits_1(tmp_path, capsys):
    """A 5-dimensional mixing at 32 Gauss-Hermite nodes asks for 32^5 nodes."""
    cfg = {"schema_version": 1, "experiment": "simulate", "seed": 2,
           "population": {"J": 1, "market_count": 3,
                          "mixing_by_type": [{"kind": "normal", "loc": [0.0] * 5,
                                              "scale": [0.4] * 5}],
                          "type_probabilities": [1.0],
                          "integration": {"kind": "gauss-hermite", "nodes": 32}}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", path, "--out", tmp_path / "out"]) == 1
    assert "32^5 nodes exceeds" in capsys.readouterr().err


def test_exit_code_2_writes_failure_report(tmp_path, monkeypatch):
    def boom(cfg, out):
        raise NoConvergence(5, 0.1)

    monkeypatch.setitem(cli.RUNNERS, "invert", boom)
    out = tmp_path / "out"
    assert run(["invert", "--out", out]) == 2
    rows = read_csv(out / "report.csv")
    assert rows[0] == ["experiment", "failure"]
    assert rows[1][0] == "invert"


def test_unbracketed_root_exits_2_with_report(tmp_path, monkeypatch):
    def boom(cfg, out):
        raise RootNotBracketed("candidate transform cannot reach value 5.0")

    monkeypatch.setitem(cli.RUNNERS, "micro-identify", boom)
    out = tmp_path / "out"
    assert run(["micro-identify", "--out", out]) == 2
    rows = read_csv(out / "report.csv")
    assert rows[1] == ["micro-identify", "candidate transform cannot reach value 5.0"]


def test_saturated_shares_exit_2_naming_the_market(tmp_path, monkeypatch):
    """Shares that round to 1 leave the open simplex: `cdl simulate` and
    `cdl fig1` fail with a report naming the market."""
    cfg = {"schema_version": 1, "experiment": "simulate",
           "population": {"J": 1, "market_count": 5,
                          "x1_law": {"kind": "constant", "value": 500.0},
                          "mixing_by_type": [{"kind": "lognormal", "loc": [0.0],
                                              "scale": [0.5]}],
                          "type_probabilities": [1.0]}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "simulate"
    assert run(["simulate", "--config", path, "--out", out]) == 2
    assert read_csv(out / "report.csv")[1][1].startswith("market 0: share outside")

    monkeypatch.setattr(cli, "Fig1Spec", functools.partial(
        cli.Fig1Spec, xi_law=laws.constant(500.0), type_probabilities=(1.0, 0.0)))
    out = tmp_path / "fig1"
    assert run(["fig1", "--out", out, "--set", "market_count=20"]) == 2
    assert read_csv(out / "report.csv")[1][1].startswith("market 0: share outside")


def test_acceptance_subset_runs_and_reports(tmp_path):
    out = tmp_path / "out"
    assert run(["acceptance", "--out", out, "--set", "criteria=[9]"]) == 0
    rows = read_csv(out / "acceptance.csv")
    assert rows[0][0] == "criterion"
    assert {r[0] for r in rows[1:]} == {"9"}
    assert all(r[6] == "True" for r in rows[1:])
    assert (out / "fig1.svg").exists() and (out / "fig2.svg").exists()


@pytest.mark.parametrize("cmd,source", [
    ("simulate", "config"), ("invert", "config"),
    ("predict", "config"), ("verify-thm1", "config"), ("fig1", "option"),
    ("fig2", "option"), ("price-ccs", "option"), ("verify-thm2", "option"),
])
def test_zero_markets_exit_1_naming_the_market_count(tmp_path, capsys, cmd, source):
    """No markets is a configuration error: no traceback, and no CSV, neither
    a header-only table nor a report row that passes over nothing."""
    out = tmp_path / "out"
    args = [cmd, "--out", out]
    if source == "config":
        cfg = {"schema_version": 1, "experiment": cmd,
               "population": {"J": 2, "market_count": 0,
                              "mixing_by_type": [{"kind": "lognormal", "loc": [0.0],
                                                  "scale": [0.3]}],
                              "type_probabilities": [1.0]}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        args += ["--config", path]
    else:
        args += ["--set", "market_count=0"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "market_count" in err and "must be at least" in err and err.rstrip().endswith("got 0")
    assert not list(out.glob("*.csv"))


def test_every_subcommand_declares_its_options():
    assert set(OPTIONS) == set(cli.RUNNERS)


@pytest.mark.parametrize("cmd", sorted(OPTIONS))
def test_unknown_option_exits_1_naming_it(tmp_path, capsys, cmd):
    """A mistyped option stops the run instead of running the default."""
    out = tmp_path / "out"
    assert run([cmd, "--out", out, "--set", "bogus_option=7"]) == 1
    err = capsys.readouterr().err
    assert f"error: unknown option 'bogus_option' for {cmd}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_option_in_a_config_file_exits_1(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 1, "experiment": "predict",
                                "options": {"price_shfit": 2.0}}))
    assert run(["predict", "--config", path, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "error: unknown option 'price_shfit' for predict; its options are: price_shift" in err


@pytest.mark.parametrize("cmd,override,message", [
    ("price-ccs", "market_count=-5",
     "option 'market_count' for price-ccs must be at least 1, got -5"),
    ("micro-identify", "market_count=-5",
     "option 'market_count' for micro-identify must be at least 1, got -5"),
    ("verify-thm2", "market_count=-5",
     "option 'market_count' for verify-thm2 must be at least 1, got -5"),
    ("fig2", "market_count=2.5", "option 'market_count' for fig2 must be a whole number, got 2.5"),
    ("fig1", "market_count=true", "option 'market_count' for fig1 must be a whole number, got True"),
    ("acceptance", "criteria=[10]", "unknown acceptance criteria [10]; the criteria are 1-9"),
    ("fig1", "curves_plotted=abc", "option 'curves_plotted' for fig1 must be a whole number, got 'abc'"),
    ("predict", "price_shift=abc",
     "option 'price_shift' for predict must be a finite number, got 'abc'"),
    ("extrapolate", "n=abc", "option 'n' for extrapolate must be a whole number, got 'abc'"),
    ("micro-identify", "y0=abc",
     "option 'y0' for micro-identify must be a share in (0, 1), got 'abc'"),
    ("fig1", "curves_plotted=-1", "option 'curves_plotted' for fig1 must be at least 1, got -1"),
    ("fig1", "curves_plotted=0", "option 'curves_plotted' for fig1 must be at least 1, got 0"),
    ("micro-identify", "y0=1.5",
     "option 'y0' for micro-identify must be a share in (0, 1), got 1.5"),
    ("micro-identify", "y0=0", "option 'y0' for micro-identify must be a share in (0, 1), got 0"),
    ("acceptance", "criteria=abc",
     "option 'criteria' for acceptance must be a list of whole numbers, got 'abc'"),
    ("acceptance", "criteria=[]",
     "option 'criteria' for acceptance must be of length at least 1, got []"),
    ("fig1", "market_count=1", "option 'market_count' for fig1 must be at least 4, got 1"),
    ("fig1", "market_count=3", "option 'market_count' for fig1 must be at least 4, got 3"),
    ("micro-identify", "market_count=7",
     "option 'market_count' for micro-identify must be at least 8, 2 per price level, got 7"),
    ("predict", "price_shift=NaN",
     "option 'price_shift' for predict must be a finite number, got nan"),
    ("predict", "price_shift=-Infinity",
     "option 'price_shift' for predict must be a finite number, got -inf"),
    ("fig2", "w_grid=[NaN,0.5]",
     "option 'w_grid' for fig2 must be a list of finite numbers, got [nan, 0.5]"),
    ("fig2", "w_grid=[]", "option 'w_grid' for fig2 must be of length at least 2, got []"),
    ("verify-thm2", "w_grid=[0.5]",
     "option 'w_grid' for verify-thm2 must be of length at least 2, got [0.5]"),
    ("verify-thm2", "price_levels=[]",
     "option 'price_levels' for verify-thm2 must be of length at least 1, got []"),
    ("fig2", "w_grid=[0.5,0.5]", "w_grid must hold at least 2 distinct points, got (0.5, 0.5)"),
    ("verify-thm2", "w_grid=[0.5,0.5]",
     "w_grid must hold at least 2 distinct points, got (0.5, 0.5)"),
    ("micro-identify", "w_grid=[0.5,0.5]",
     "w_grid must hold at least 2 distinct points, got (0.5, 0.5)"),
    ("micro-identify", "w_grid=[0.5,0.5,0.5,0.5,0.7]",
     "w_grid: dg/dw fitted on the 3 points nearest w0 = [0.5] has rank below J = 1"),
    ("micro-identify", "price_levels=[1.5]",
     "price_levels must hold at least 2 distinct prices to fit the price slope, got [1.5]"),
    ("micro-identify", "price_levels=[1.0,1.0]",
     "price_levels must hold at least 2 distinct prices to fit the price slope, got [1.0, 1.0]"),
])
def test_bad_option_values_exit_1_with_a_named_error(tmp_path, capsys, cmd, override, message):
    out = tmp_path / "out"
    assert run([cmd, "--out", out, "--set", override]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not list(out.glob("*.csv"))


#: Population fields that a config file gives and that its reader refuses.
BAD_POPULATIONS = [
    ({"J": 2.7}, "population J must be a whole number, got 2.7"),
    ({"J": "abc"}, "population J must be a whole number, got 'abc'"),
    ({"J": None}, "population J must be a whole number, got None"),
    ({"market_count": 2.5}, "population market_count must be a whole number, got 2.5"),
    ({"x2_dim": -1}, "population x2_dim must be at least 0, got -1"),
    ({"gamma": ["a"]}, "population gamma must be a list of finite numbers, got ['a']"),
    ({"mixing_by_type": [{"kind": "lognormal", "loc": ["a"]}]},
     "population mixing_by_type[0] loc must be a list of finite numbers, got ['a']"),
    ({"mixing_by_type": 5}, "population mixing_by_type must be a list of mappings, got 5"),
    ({"type_probabilities": [float("nan")]},
     "population type_probabilities must be a list of finite numbers, got [nan]"),
    ({"price_law": "x"}, "population price_law must be a mapping with a kind among "
                         "constant, uniform, normal, choice, got 'x'"),
    ({"xi_law": {"kind": "normal", "loc": 0.0}}, "population xi_law requires 'scale'"),
    ({"integration": {"nodes": 2.5}},
     "population integration nodes must be a whole number, got 2.5"),
    ({"integration": {"nodes": "x"}},
     "population integration nodes must be a whole number, got 'x'"),
]


@pytest.mark.parametrize("population,message", BAD_POPULATIONS)
def test_bad_population_values_exit_1_naming_the_field(tmp_path, capsys, population, message):
    """A config file's population takes the values `--set` would: a fraction
    is no whole number, and a string or null is no number."""
    doc = {"schema_version": 1, "experiment": "invert",
           "population": {"J": 1, "market_count": 3, "type_probabilities": [1.0],
                          "mixing_by_type": [{"kind": "lognormal"}], **population}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["invert", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"error: config {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_micro_identify_runs_on_a_grid_with_a_repeated_point(tmp_path):
    """w0 repeated once still leaves an increment near it to fit dg/dw on."""
    out = tmp_path / "out"
    assert run(["micro-identify", "--out", out, "--set", "market_count=8",
                "--set", "w_grid=[0.5,0.5,0.7]"]) == 0
    assert len(read_csv(out / "g_hat.csv")) == 4


def test_help_lists_each_option_with_its_kind_least_and_default(capsys):
    helps = {}
    for cmd, options in OPTIONS.items():
        with pytest.raises(SystemExit):
            run([cmd, "--help"])
        helps[cmd] = capsys.readouterr().out
        assert all(f"  {name}: {field}\n" in helps[cmd] for name, field in options.items())
    text = helps["micro-identify"]
    assert "  market_count: a whole number, at least 1; default 60\n" in text
    assert ("  price_levels: a list of finite numbers, of length at least 1; "
            "default (0.5, 1.0, 1.5, 2.0)\n") in text
    assert "  y0: a share in (0, 1); default 0.3\n" in text


def _loaded_scipy_modules(code):
    """The sorted `scipy` modules loaded after running `code` in a fresh
    interpreter that imports cdlab from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import json, sys; " + code + "; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_importing_the_cli_loads_neither_scipy_optimize_nor_scipy_stats():
    """Every `cdl` run imports cdlab.cli; SciPy adds start-up time and memory
    to each, so no module on that path imports any of it."""
    assert _loaded_scipy_modules("import cdlab.cli") == []


def test_a_candidate_fit_and_micro_identify_load_no_scipy(tmp_path):
    """The candidate search draws its scan in numpy and refines it with
    cdlab's own Brent loops, so neither a fit nor `cdl micro-identify`
    loads any SciPy module."""
    loaded = _loaded_scipy_modules(
        "import numpy as np; from cdlab import cli, micro as mi; "
        "dgp = mi.MicroDgp(Pi=np.array([[1.0]]), sigma=np.array([0.8]), alpha=1.0, nu_nodes=8); "
        "spec = mi.MicroPopulationSpec(market_count=4, price_levels=(1.5,), "
        "w_grid=tuple(np.linspace(-1.0, 1.0, 5)), seed=0); "
        "mi.identify_h_and_g(mi.sigma_family(dgp, alpha_fixed=0.0), "
        "[m.profile for m in mi.simulate_micro(dgp, spec)], spec.level_bundle(dgp, 0), "
        "starts=3, seed=0); "
        f"assert cli.main(['micro-identify', '--out', {str(tmp_path / 'out')!r}, "
        "'--set', 'market_count=8']) == 0")
    assert loaded == []


def test_micro_identify_runs_with_scipy_blocked(tmp_path):
    """SciPy is a test dependency only: with every `scipy` import made to
    fail, `cdl micro-identify` still runs and writes its artifacts."""
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None; from cdlab import cli; "
            f"sys.exit(cli.main(['micro-identify', '--out', {str(out)!r}, "
            "'--set', 'market_count=8']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "estimates.csv", "g_hat.csv", "h_hat.csv", "moment_report.csv"]
