"""The shipped acceptance gate: one test per numbered criterion.

These call the same criterion functions the `cdl acceptance` subcommand
runs, so the CLI summary and the test suite cannot drift apart. Tests
assert both the check values at their stated tolerances and, where a
criterion carries one, the runtime budget.
"""

import csv
import json

import numpy as np
import pytest

from cdlab import acceptance as acc
from cdlab import cli
from cdlab.config import load_config
from cdlab.errors import ConfigError


def checks_by_name(result):
    return {c.name: c for c in result.checks}


def test_criterion_1_inversion_round_trip():
    r = acc.criterion_1(0)
    c = checks_by_name(r)
    assert c["round_trip_sup_norm"].value <= 1e-10
    assert r.runtime < 5.0
    assert r.passed


def test_criterion_2_theorem1_equivalence():
    r = acc.criterion_2(0)
    c = checks_by_name(r)
    assert c["index_model"].value <= 1e-8
    assert c["inverse_model"].value <= 1e-8
    assert c["transformed_shift"].value <= 1e-8
    assert c["two_type_hom_gap"].value > 0.01
    assert r.passed


def test_criterion_3_crossing_demand_curves():
    r = acc.criterion_3(0)
    c = checks_by_name(r)
    assert c["fraction_with_crossing_witness"].value > 0.95
    assert r.runtime < 30.0
    assert r.passed


def test_criterion_4_conditional_variance():
    r = acc.criterion_4(0)
    c = checks_by_name(r)
    assert c["single_type_conditional_variance"].value <= 1e-10
    assert c["two_type_conditional_variance"].value > 1e-4
    assert r.passed


def test_criterion_5_extrapolation_identity_and_oracle():
    r = acc.criterion_5(0)
    c = checks_by_name(r)
    assert c["same_treatment_identity"].value == 0.0
    assert c["demeaned_oracle_error"].value <= 1e-6
    assert r.passed


def test_criterion_6_rule_structural_agreement():
    r = acc.criterion_6(0)
    c = checks_by_name(r)
    assert c["demeaned_max_gap"].value <= 1e-10
    assert c["partially_linear_max_gap"].value <= 1e-10
    assert r.passed


def test_criterion_7_parallel_trends_candidate_test():
    r = acc.criterion_7(0)
    c = checks_by_name(r)
    assert c["true_candidate_residual"].value <= 1e-8
    assert c["identity_candidate_residual"].value > 0.05
    assert r.runtime < 60.0
    assert r.passed


def test_criterion_8_micro_completion():
    r = acc.criterion_8(0)
    c = checks_by_name(r)
    assert c["stratified_profile_error"].value <= 1e-6
    assert c["endogenous_dev_in_ses"].value <= 2.0
    assert c["negative_control_dev_in_ses"].value > 3.0
    assert r.runtime < 30.0
    assert r.passed


def test_criterion_9_price_correctness_contrast():
    r = acc.criterion_9(0)
    c = checks_by_name(r)
    assert c["price_counterfactual_error"].value <= 1e-8
    assert c["x1_counterfactual_error"].value > 0.01
    assert r.passed


def report_values(path, column):
    """A `cdl` report CSV's values in `column`, by its `check` column."""
    with open(path, newline="") as fh:
        return {r["check"]: float(r[column]) for r in csv.DictReader(fh)}


def test_verify_thm1_writes_criterion_2s_values(tmp_path):
    """`cdl verify-thm1` on criterion 2's population at seed 0 (J = 2, 100
    markets, seed 2) writes the criterion's first three values, bit for bit."""
    config = tmp_path / "thm1.json"
    config.write_text(json.dumps({
        "schema_version": 1, "experiment": "verify-thm1", "population": {
            "J": 2, "market_count": 100, "type_probabilities": [1.0], "seed": 2,
            "mixing_by_type": [{"kind": "lognormal", "loc": [0.0], "scale": [0.3]}]}}))
    assert load_config(config).population == acc.single_type_population(100, 2, J=2)
    assert cli.main(["verify-thm1", "--config", str(config), "--out", str(tmp_path)]) == 0
    written = report_values(tmp_path / "thm1_report.csv", "max_deviation")
    assert written == {c.name: c.value for c in acc.criterion_2(0).checks[:3]}


def test_price_ccs_writes_criterion_9s_values(tmp_path):
    """`cdl price-ccs` on criterion 9's population at seed 0 (300 markets,
    seed 9) writes the criterion's price error and, as its largest x1 error
    by type, its x1 error, bit for bit."""
    assert cli.main(["price-ccs", "--seed", "9", "--set", "market_count=300",
                     "--out", str(tmp_path)]) == 0
    written = report_values(tmp_path / "price_ccs_report.csv", "value")
    price = written.pop("max_price_error")
    c = checks_by_name(acc.criterion_9(0))
    assert price == c["price_counterfactual_error"].value
    assert max(written.values()) == c["x1_counterfactual_error"].value


def test_criterion_10_acceptance_artifacts_are_byte_identical(tmp_path):
    """Two runs of the acceptance subcommand produce identical CSV bytes."""
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = cli.main(["acceptance", "--out", str(out),
                         "--set", "criteria=[2,6,9]"])
        assert code == 0
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert "acceptance.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    svgs = sorted(p.name for p in outs[0].glob("*.svg"))
    assert svgs == ["fig1.svg", "fig2.svg"]
    for name in svgs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_criteria_refuses_an_empty_or_unknown_selection():
    """None runs every criterion; an empty list would run none and pass."""
    with pytest.raises(ConfigError, match=r"criteria must name at least 1 criterion, got \[\]"):
        acc.run_criteria([])
    with pytest.raises(ConfigError, match=r"unknown acceptance criteria \[10\]"):
        acc.run_criteria([9, 10])
