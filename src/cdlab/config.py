"""Experiment configuration: versioned JSON manifests.

A config file is the authoritative description of an experiment run; CLI
flags override leaf values. Unknown keys are rejected rather than ignored
so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import laws
from .demand import Integration, gauss_hermite
from .errors import ConfigError
from .population import PopulationSpec, check_seed
from .types import MixingSpec

SCHEMA_VERSION = 1

_W_GRID = tuple(np.linspace(-1.0, 1.0, 20))
_MICRO = {"market_count": 60, "price_levels": (0.5, 1.0, 1.5, 2.0), "w_grid": _W_GRID}

#: Each subcommand's options and their defaults. A config file or `--set`
#: that names any other option is a ConfigError.
OPTIONS = {
    "simulate": {},
    "invert": {},
    "predict": {"price_shift": 0.5},
    "fig1": {"market_count": 2000, "curves_plotted": 12},
    "fig2": {"market_count": 12, "w_grid": _W_GRID},
    "verify-thm1": {},
    "verify-thm2": _MICRO,
    "extrapolate": {"n": 2000},
    "prop32": {},
    "micro-identify": {**_MICRO, "y0": 0.3},
    "price-ccs": {"market_count": 300},
    "acceptance": {"criteria": None},
}
EXPERIMENTS = tuple(OPTIONS)

_TOP_KEYS = {"schema_version", "experiment", "output_dir", "seed",
             "population", "options"}
_POPULATION_KEYS = {"J", "market_count", "mixing_by_type", "type_probabilities",
                    "price_law", "x1_law", "x2_dim", "x2_law", "xi_law",
                    "instrument_law", "gamma", "integration", "seed"}
_MIXING_KEYS = {"kind", "loc", "scale", "weights", "components"}
_INTEGRATION_KEYS = {"kind", "nodes", "draws", "seed"}


@dataclass
class ExperimentConfig:
    experiment: str
    output_dir: str = "out"
    seed: int = 0
    population: PopulationSpec | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment: {self.experiment!r}")
        self._check_options()

    def _check_options(self) -> None:
        """Raise ConfigError naming the first option that the subcommand
        does not declare."""
        declared = OPTIONS[self.experiment]
        for name in self.options:
            if name not in declared:
                raise ConfigError(f"unknown option {name!r} for {self.experiment}; its "
                                  f"options are: {', '.join(declared) or 'none'}")

    def option(self, name: str):
        """The option's value, or its declared default."""
        return self.options.get(name, OPTIONS[self.experiment][name])


def _reject_unknown(d: dict, allowed: set, where: str):
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")


def mixing_from_dict(d: dict) -> MixingSpec:
    _reject_unknown(d, _MIXING_KEYS, "mixing")
    if "kind" not in d:
        raise ConfigError("mixing spec requires a kind")
    components = tuple(mixing_from_dict(c) for c in d.get("components", ()))
    return MixingSpec(kind=d["kind"], loc=tuple(d.get("loc", (0.0,))),
                      scale=tuple(d.get("scale", (1.0,))),
                      weights=tuple(d.get("weights", ())),
                      components=components)


def mixing_to_dict(m: MixingSpec) -> dict:
    out = {"kind": m.kind}
    if m.kind == "finite-mixture":
        out["weights"] = list(m.weights)
        out["components"] = [mixing_to_dict(c) for c in m.components]
    else:
        out["loc"] = list(m.loc)
        out["scale"] = list(m.scale)
    return out


def integration_from_dict(d: dict) -> Integration:
    _reject_unknown(d, _INTEGRATION_KEYS, "integration")
    return Integration(kind=d.get("kind", "gauss-hermite"),
                       nodes=int(d.get("nodes", 32)),
                       draws=int(d.get("draws", 1000)),
                       seed=check_seed(d.get("seed", 0), "integration seed"))


def integration_to_dict(i: Integration) -> dict:
    out = {"kind": i.kind}
    if i.kind == "gauss-hermite":
        out["nodes"] = i.nodes
    else:
        out.update(draws=i.draws, seed=i.seed)
    return out


def population_from_dict(d: dict) -> PopulationSpec:
    _reject_unknown(d, _POPULATION_KEYS, "population")
    for key in ("J", "market_count", "mixing_by_type", "type_probabilities"):
        if key not in d:
            raise ConfigError(f"population requires {key!r}")
    kwargs = dict(
        J=int(d["J"]),
        market_count=int(d["market_count"]),
        mixing_by_type=tuple(mixing_from_dict(m) for m in d["mixing_by_type"]),
        type_probabilities=tuple(float(p) for p in d["type_probabilities"]),
        x2_dim=int(d.get("x2_dim", 0)),
        gamma=tuple(float(g) for g in d.get("gamma", ())),
        seed=check_seed(d.get("seed", 0), "population seed"),
    )
    for name in ("price_law", "x1_law", "x2_law", "xi_law"):
        if name in d:
            kwargs[name] = laws.Law.from_dict(d[name])
    if d.get("instrument_law") is not None:
        kwargs["instrument_law"] = laws.Law.from_dict(d["instrument_law"])
    if "integration" in d:
        kwargs["integration"] = integration_from_dict(d["integration"])
    return PopulationSpec(**kwargs)


def population_to_dict(spec: PopulationSpec) -> dict:
    return {
        "J": spec.J,
        "market_count": spec.market_count,
        "mixing_by_type": [mixing_to_dict(m) for m in spec.mixing_by_type],
        "type_probabilities": list(spec.type_probabilities),
        "price_law": spec.price_law.to_dict(),
        "x1_law": spec.x1_law.to_dict(),
        "x2_dim": spec.x2_dim,
        "x2_law": spec.x2_law.to_dict(),
        "xi_law": spec.xi_law.to_dict(),
        "instrument_law": None if spec.instrument_law is None
        else spec.instrument_law.to_dict(),
        "gamma": list(spec.gamma),
        "integration": integration_to_dict(spec.integration),
        "seed": spec.seed,
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(d, _TOP_KEYS, "config")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {d.get('schema_version')!r}")
    if "experiment" not in d:
        raise ConfigError("config requires an experiment")
    population = None
    if d.get("population") is not None:
        population = population_from_dict(d["population"])
    options = d.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be a mapping")
    return ExperimentConfig(experiment=d["experiment"],
                            output_dir=str(d.get("output_dir", "out")),
                            seed=check_seed(d.get("seed", 0)),
                            population=population, options=dict(options))


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(d)


def dump_config(cfg: ExperimentConfig, path):
    d = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
        "population": None if cfg.population is None
        else population_to_dict(cfg.population),
        "options": cfg.options,
    }
    Path(path).write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")


def apply_overrides(cfg: ExperimentConfig, assignments) -> ExperimentConfig:
    """Apply `name=value` overrides to the options; values parse as JSON
    scalars, falling back to strings."""
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            cfg.options[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg.options[key] = raw
    cfg._check_options()
    return cfg
