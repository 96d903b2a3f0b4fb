"""Experiment configuration: versioned JSON manifests.

A config file is the authoritative description of an experiment run; CLI
flags override leaf values. Every value is read through one table of
fields, so a config file and `--set` accept the same values. Unknown keys
are rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import laws
from .demand import Integration
from .errors import ConfigError
from .population import PopulationSpec
from .streams import check_seed
from .types import MixingSpec

SCHEMA_VERSION = 1
REQUIRED = object()  # the default of a field that must be given


class Kind(NamedTuple):
    """What a value must be: `name` is how --help and the error messages
    call it, and `read(value, where)` returns the value typed, or None when
    it is not of this kind (or raises a ConfigError naming `where`)."""

    name: str
    read: Callable


def _number(value, where=None):
    """The value as a finite float, or None: bools, strings, NaN and
    Infinity (which JSON parsing accepts) are no number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    return None


WHOLE = Kind("whole number", lambda v, where: (
    int(v) if _number(v) is not None and float(v).is_integer() else None))
NUMBER = Kind("finite number", _number)
SHARE = Kind("share in (0, 1)", lambda v, where: (
    v if _number(v) is not None and 0 < v < 1 else None))
TEXT = Kind("string", lambda v, where: v if isinstance(v, str) else None)
SEED = Kind("non-negative integer", check_seed)
MAPPING = Kind("mapping", lambda v, where: dict(v) if isinstance(v, dict) else None)


@dataclass(frozen=True)
class Field:
    """A config value: its kind (a list of values of the kind when `many`),
    its default (None: null also means the default) and its least value, or
    least length for a list."""

    kind: Kind
    default: object = None
    least: int | None = None
    many: bool = False

    @property
    def what(self) -> str:
        return f"a list of {self.kind.name}s" if self.many else f"a {self.kind.name}"

    @property
    def limit(self) -> str:
        return f"{'of length ' * self.many}at least {self.least}"

    def __str__(self) -> str:
        """The field as --help lists it, in the words of its error messages."""
        limit = "" if self.least is None else f", {self.limit}"
        return f"{self.what}{limit}; default {self.default!r}"

    def read(self, value, where: str):
        """The value typed: an int, float or string, the object a mapping
        describes, or a tuple of them when `many`. A value of another kind
        or below the least is a ConfigError naming `where` and the value."""
        if value is None and self.default is None:
            return None
        items = value if self.many else [value]
        typed = ([self.kind.read(v, f"{where}[{i}]" if self.many else where)
                  for i, v in enumerate(items)] if isinstance(items, (list, tuple)) else [None])
        if any(t is None for t in typed):
            raise ConfigError(f"{where} must be {self.what}, got {value!r}")
        if self.least is not None and (len(typed) if self.many else typed[0]) < self.least:
            raise ConfigError(f"{where} must be {self.limit}, got {value!r}")
        return tuple(typed) if self.many else typed[0]


def read_fields(fields: dict, d, where: str) -> dict:
    """The values the mapping d gives, read through `fields`, and the
    defaults that are not None. A key that is not a field, a missing
    required field or a value the field refuses is a ConfigError naming it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping, got {d!r}")
    extra = set(d) - set(fields)
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")
    for name, f in fields.items():
        if f.default is REQUIRED and name not in d:
            raise ConfigError(f"{where} requires {name!r}")
    values = {name: f.read(d[name], f"{where} {name}") if name in d else f.default
              for name, f in fields.items()}
    return {name: v for name, v in values.items() if v is not None}


def mixing_from_dict(d, where: str = "mixing") -> MixingSpec:
    return MixingSpec(**read_fields(_MIXING, d, where))


def integration_from_dict(d, where: str = "integration") -> Integration:
    return Integration(**read_fields(_INTEGRATION, d, where))


def law_from_dict(d, where: str = "law") -> laws.Law:
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ConfigError(f"{where} must be a mapping with a kind among "
                          f"{', '.join(_LAWS)}, got {d!r}")
    params = read_fields({"kind": Field(TEXT), **_LAWS[kind]}, d, where)
    return laws.Law(params.pop("kind"), params)


def population_from_dict(d, where: str = "population") -> PopulationSpec:
    return PopulationSpec(**read_fields(_POPULATION, d, where))


#: The fields of each part of a config. A field whose default is None takes
#: the default of the object the part describes.
MIXING = Kind("mapping", mixing_from_dict)
LAW = Kind("mapping", law_from_dict)
_MIXING = {"kind": Field(TEXT, REQUIRED), "loc": Field(NUMBER, many=True),
           "scale": Field(NUMBER, many=True), "weights": Field(NUMBER, many=True),
           "components": Field(MIXING, many=True)}
_INTEGRATION = {"kind": Field(TEXT, "gauss-hermite"), "nodes": Field(WHOLE, least=1),
                "draws": Field(WHOLE, least=1), "seed": Field(SEED)}
_LAWS = {"constant": {"value": Field(NUMBER, REQUIRED)},
         "uniform": {"lo": Field(NUMBER, REQUIRED), "hi": Field(NUMBER, REQUIRED)},
         "normal": {"loc": Field(NUMBER, REQUIRED), "scale": Field(NUMBER, REQUIRED)},
         "choice": {"values": Field(NUMBER, REQUIRED, least=1, many=True),
                    "probs": Field(NUMBER, REQUIRED, least=1, many=True)}}
_POPULATION = {
    "J": Field(WHOLE, REQUIRED, least=1), "market_count": Field(WHOLE, REQUIRED, least=1),
    "mixing_by_type": Field(MIXING, REQUIRED, least=1, many=True),
    "type_probabilities": Field(NUMBER, REQUIRED, least=1, many=True),
    "price_law": Field(LAW), "x1_law": Field(LAW), "x2_dim": Field(WHOLE, least=0),
    "x2_law": Field(LAW), "xi_law": Field(LAW), "instrument_law": Field(LAW),
    "gamma": Field(NUMBER, many=True),
    "integration": Field(Kind("mapping", integration_from_dict)), "seed": Field(SEED)}
_CONFIG = {"schema_version": Field(WHOLE, REQUIRED), "experiment": Field(TEXT, REQUIRED),
           "output_dir": Field(TEXT), "seed": Field(SEED),
           "population": Field(Kind("mapping", population_from_dict)),
           "options": Field(MAPPING)}

_MICRO = {"market_count": Field(WHOLE, 60, least=1),
          "price_levels": Field(NUMBER, (0.5, 1.0, 1.5, 2.0), least=1, many=True),
          "w_grid": Field(NUMBER, tuple(np.linspace(-1.0, 1.0, 20).tolist()), least=2, many=True)}

#: Each subcommand's options. A config file or `--set` that names any
#: other option, or gives a value its field refuses, is a ConfigError.
OPTIONS = {
    "simulate": {},
    "invert": {},
    "predict": {"price_shift": Field(NUMBER, 0.5)},
    "fig1": {"market_count": Field(WHOLE, 2000, least=4),  # two bins of 2 markets
             "curves_plotted": Field(WHOLE, 12, least=1)},
    "fig2": {"market_count": Field(WHOLE, 12, least=1), "w_grid": _MICRO["w_grid"]},
    "verify-thm1": {},
    "verify-thm2": _MICRO,
    "extrapolate": {"n": Field(WHOLE, 2000, least=1)},
    "prop32": {},
    "micro-identify": {**_MICRO, "y0": Field(SHARE, 0.3)},
    "price-ccs": {"market_count": Field(WHOLE, 300, least=1)},
    "acceptance": {"criteria": Field(WHOLE, None, least=1, many=True)},  # None: all
}


def _markets_per_level(o: dict) -> None:
    """micro-identify fits each price level on its own markets, at least 2;
    stratified assignment splits the market count evenly over the levels."""
    least = 2 * len(o["price_levels"])
    if o["market_count"] < least:
        raise ConfigError(f"option 'market_count' for micro-identify must be at least {least}, "
                          f"2 per price level, got {o['market_count']}")


#: Checks between one subcommand's options, made after each option's own.
RELATIONS = {"micro-identify": _markets_per_level}

#: The subcommands that sample the config's population; the others build
#: their own, so a population given to them is a ConfigError.
POPULATED = ("simulate", "invert", "predict", "verify-thm1")


@dataclass
class ExperimentConfig:
    experiment: str
    output_dir: str = "out"
    seed: int = 0
    population: PopulationSpec | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in OPTIONS:
            raise ConfigError(f"unknown experiment: {self.experiment!r}")
        if self.population is not None and self.experiment not in POPULATED:
            raise ConfigError(f"config key 'population' is not read by {self.experiment}; "
                              f"only {', '.join(POPULATED)} sample a population")
        self._check_options()

    def reseed(self, seed) -> None:
        """Set the seed from `--seed`, and the population's seed with it; a
        Monte Carlo integration seed stays its own."""
        self.seed = check_seed(seed, "--seed")
        if self.population is not None:
            self.population = replace(self.population, seed=self.seed)

    def _check_options(self) -> None:
        """Raise ConfigError naming the first option that the subcommand
        does not declare, or whose value its field refuses."""
        declared = OPTIONS[self.experiment]
        for name in self.options:
            if name not in declared:
                raise ConfigError(f"unknown option {name!r} for {self.experiment}; its "
                                  f"options are: {', '.join(declared) or 'none'}")
        values = {name: self.option(name) for name in declared}
        if self.experiment in RELATIONS:
            RELATIONS[self.experiment](values)

    def option(self, name: str):
        """The option's value, typed, or its declared default."""
        f = OPTIONS[self.experiment][name]
        if name not in self.options:
            return f.default
        return f.read(self.options[name], f"option {name!r} for {self.experiment}")


def config_from_dict(d) -> ExperimentConfig:
    """The config that the mapping d describes. A population with no seed of
    its own takes the config's seed."""
    values = read_fields(_CONFIG, d, "config")
    if values.pop("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {d['schema_version']!r}")
    pop = values.get("population")
    if pop is not None and "seed" not in d["population"]:
        values["population"] = replace(pop, seed=values.get("seed", 0))
    return ExperimentConfig(**values)


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
