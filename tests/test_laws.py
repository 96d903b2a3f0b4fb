import numpy as np
import pytest

from cdlab import laws
from cdlab.config import law_from_dict
from cdlab.errors import ConfigError


def test_constant_is_degenerate():
    rng = np.random.default_rng(0)
    assert np.array_equal(laws.constant(2.5).sample(rng, 3), np.full(3, 2.5))


def test_uniform_range_and_validation():
    rng = np.random.default_rng(0)
    x = laws.uniform(0.5, 3.0).sample(rng, 1000)
    assert x.min() >= 0.5 and x.max() <= 3.0
    with pytest.raises(ConfigError):
        laws.uniform(2.0, 1.0)


def test_normal_moments():
    rng = np.random.default_rng(0)
    x = laws.normal(1.0, 2.0).sample(rng, 50_000)
    assert abs(x.mean() - 1.0) < 0.05
    assert abs(x.std() - 2.0) < 0.05
    with pytest.raises(ConfigError):
        laws.normal(0.0, -1.0)


def test_choice_support_and_validation():
    rng = np.random.default_rng(0)
    x = laws.choice([1.0, 2.0], [0.3, 0.7]).sample(rng, 500)
    assert set(np.unique(x)) <= {1.0, 2.0}
    with pytest.raises(ConfigError):
        laws.choice([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ConfigError):
        laws.choice([1.0], [0.5, 0.5])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        laws.Law("beta", {})


def test_sampling_is_a_function_of_the_generator_state():
    law = laws.normal(0.0, 1.0)
    a = law.sample(np.random.default_rng(7), 10)
    b = law.sample(np.random.default_rng(7), 10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("law", [
    ({"kind": "constant", "value": 1}, laws.constant(1.0)),
    ({"kind": "uniform", "lo": 0.0, "hi": 1.0}, laws.uniform(0.0, 1.0)),
    ({"kind": "normal", "loc": 0.5, "scale": 2.0}, laws.normal(0.5, 2.0)),
    ({"kind": "choice", "values": [1.0, 2], "probs": [0.4, 0.6]},
     laws.choice([1.0, 2.0], [0.4, 0.6])),
])
def test_dict_round_trip(law):
    """A config file's law mapping reads as the law its constructor makes."""
    mapping, expected = law
    assert law_from_dict(mapping) == expected
