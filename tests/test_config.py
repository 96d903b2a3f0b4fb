import json

import pytest

from cdlab import config as cfg
from cdlab.errors import ConfigError
from cdlab.population import PopulationSpec
from cdlab.types import finite_mixture, lognormal_mixing, normal_mixing


def sample_spec():
    return PopulationSpec(
        J=2, market_count=10,
        mixing_by_type=(lognormal_mixing(0.0, 0.5),
                        finite_mixture((0.3, 0.7), (normal_mixing((0.5,), (0.1,)),
                                                    lognormal_mixing(-0.5, 2.0)))),
        type_probabilities=(0.4, 0.6), x2_dim=1, gamma=(0.3,), seed=7)


#: sample_spec() as a config file writes it.
SAMPLE_DICT = {
    "J": 2, "market_count": 10,
    "mixing_by_type": [{"kind": "lognormal", "loc": [0.0], "scale": [0.5]},
                       {"kind": "finite-mixture", "weights": [0.3, 0.7],
                        "components": [{"kind": "normal", "loc": [0.5], "scale": [0.1]},
                                       {"kind": "lognormal", "loc": [-0.5], "scale": [2.0]}]}],
    "type_probabilities": [0.4, 0.6], "x2_dim": 1, "gamma": [0.3], "seed": 7,
    "price_law": {"kind": "uniform", "lo": 0.5, "hi": 3.0},
    "x1_law": {"kind": "constant", "value": 0.0},
    "x2_law": {"kind": "constant", "value": 0.0},
    "xi_law": {"kind": "normal", "loc": 0.0, "scale": 1.0},
    "instrument_law": None, "integration": {"kind": "gauss-hermite", "nodes": 32},
}


def test_population_dict_round_trip():
    assert cfg.population_from_dict(SAMPLE_DICT) == sample_spec()


def test_config_round_trip_through_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 1, "experiment": "predict",
                                "output_dir": "artifacts", "seed": 3,
                                "population": SAMPLE_DICT,
                                "options": {"price_shift": 2.0}}))
    back = cfg.load_config(path)
    assert back.experiment == "predict"
    assert back.output_dir == "artifacts"
    assert back.seed == 3
    assert back.population == sample_spec()
    assert back.options == {"price_shift": 2.0}


def test_schema_version_is_required():
    with pytest.raises(ConfigError, match="schema_version"):
        cfg.config_from_dict({"experiment": "simulate"})
    with pytest.raises(ConfigError, match="schema_version"):
        cfg.config_from_dict({"schema_version": 2, "experiment": "simulate"})


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match="unknown config keys"):
        cfg.config_from_dict({"schema_version": 1, "experiment": "simulate",
                              "outdir": "x"})
    with pytest.raises(ConfigError, match="unknown population keys"):
        cfg.population_from_dict({"J": 1, "market_count": 1,
                                  "mixing_by_type": [{"kind": "degenerate"}],
                                  "type_probabilities": [1.0],
                                  "markets": 3})
    with pytest.raises(ConfigError, match="unknown mixing keys"):
        cfg.mixing_from_dict({"kind": "normal", "sd": 1.0})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        cfg.config_from_dict({"schema_version": 1, "experiment": "frobnicate"})


def test_invalid_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cfg.load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        cfg.load_config(tmp_path / "absent.json")


def test_apply_overrides_parses_json_leaves():
    c = cfg.ExperimentConfig(experiment="micro-identify")
    cfg.apply_overrides(c, ["market_count=25", "price_levels=[0.5, 2.5]", "y0=0.25"])
    assert c.options == {"market_count": 25, "price_levels": [0.5, 2.5], "y0": 0.25}
    assert c.option("price_levels") == (0.5, 2.5)
    assert c.option("w_grid") == cfg.OPTIONS["micro-identify"]["w_grid"].default
    with pytest.raises(ConfigError, match="option 'y0' for micro-identify must be a share "
                                          r"in \(0, 1\), got 'hello'"):
        cfg.apply_overrides(c, ["y0=hello"])


def test_apply_overrides_rejects_malformed():
    c = cfg.ExperimentConfig(experiment="predict")
    with pytest.raises(ConfigError, match="not of the form key=value"):
        cfg.apply_overrides(c, ["price_shift"])
    with pytest.raises(ConfigError, match="unknown option 'price_shift.deep' for predict"):
        cfg.apply_overrides(c, ["price_shift.deep=1"])


def test_unknown_options_fail_loudly():
    with pytest.raises(ConfigError, match="unknown option 'markets' for simulate; "
                                          "its options are: none"):
        cfg.config_from_dict({"schema_version": 1, "experiment": "simulate",
                              "options": {"markets": 5}})
    c = cfg.ExperimentConfig(experiment="fig1")
    with pytest.raises(ConfigError, match="unknown option 'curves' for fig1; "
                                          "its options are: market_count, curves_plotted"):
        cfg.apply_overrides(c, ["market_count=5", "curves=3"])

