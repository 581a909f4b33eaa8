import json
from pathlib import Path

import pytest

from sqzsim import ConfigError, RunConfig, default_config, load_config
from sqzsim.config import config_from_dict, keyed

REPO = Path(__file__).resolve().parents[1]


def test_defaults_file_matches_built_in_defaults():
    shipped = load_config(REPO / "configs" / "defaults.json")
    assert shipped == default_config()


def test_partial_config_fills_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"opo": {"pump_ratio": 0.1}, "seed": 7}))
    cfg = load_config(path)
    assert cfg.opo.pump_ratio == 0.1
    assert cfg.opo.cavity_hwhm == default_config().opo.cavity_hwhm
    assert cfg.seed == 7


def test_underscore_keys_are_ignored():
    cfg = config_from_dict({"_note": "hi", "opo": {"_note": "x", "pump_ratio": 0.2}})
    assert cfg.opo.pump_ratio == 0.2


def test_unknown_section_named():
    with pytest.raises(ConfigError, match="opo_typo"):
        config_from_dict({"opo_typo": {}})


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="noise.relax_ampl"):
        config_from_dict({"noise": {"relax_ampl": 1.0}})


def test_invalid_value_names_section():
    with pytest.raises(ConfigError, match="detection"):
        config_from_dict({"detection": {"visibility": 2.0}})


@pytest.mark.parametrize("doc, key", [
    ({"opo": 5}, "opo"),
    ({"analyzer": [300e3, 10e6]}, "analyzer"),
])
def test_a_section_that_is_not_an_object_is_named(doc, key):
    with pytest.raises(ConfigError, match=f"^key '{key}': expected an object of parameters$"):
        config_from_dict(doc)


@pytest.mark.parametrize("doc", [[1, 2], "opo", 3, None])
def test_a_root_that_is_not_an_object_is_refused(doc):
    with pytest.raises(ConfigError, match="^configuration root must be a JSON object$"):
        config_from_dict(doc)


@pytest.mark.parametrize("section, key, value", [
    ("noise", "relax_center", 10**400),
    ("analyzer", "stop", -(10**400)),
    ("opo", "cavity_hwhm", 10**400),
])
def test_an_integer_beyond_the_float_range_names_its_key(section, key, value):
    with pytest.raises(ConfigError, match=f"^key '{section}.{key}': expected a number within "
                                          "the float range, got an integer beyond it$"):
        config_from_dict({section: {key: value}})


def test_a_float_parameter_given_as_an_integer_is_a_float():
    cfg = config_from_dict({"opo": {"cavity_hwhm": 50_000_000}, "analyzer": {"n_points": 64}})
    assert type(cfg.opo.cavity_hwhm) is float and cfg.opo == default_config().opo
    assert type(cfg.analyzer.n_points) is int


def test_bad_seed_type():
    # bool is an int subclass, but True is no seed
    for seed in ("abc", True):
        with pytest.raises(ConfigError, match="key 'seed': expected an integer"):
            config_from_dict({"seed": seed})


def test_seed_outside_u64_is_refused_when_loaded():
    # not only by the commands that draw from it
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=f"key 'seed': must fit in u64, got {seed}"):
            config_from_dict({"seed": seed})


def test_missing_seed_blocks_stochastic_commands():
    cfg = config_from_dict({"seed": None})
    with pytest.raises(ConfigError, match="seed"):
        cfg.require_seed()


def test_unreadable_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/config.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_run_config_is_frozen():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.seed = 1


def test_keyed_names_the_key_of_a_refusal():
    with pytest.raises(ConfigError, match=r"^key '--x': x must lie in \(0, 1\)$"):
        with keyed("--x"):
            raise ValueError("x must lie in (0, 1)")
    # a ConfigError already names its key
    with pytest.raises(ConfigError, match=r"^key 'seed': bad$"):
        with keyed("--x"):
            raise ConfigError("key 'seed': bad")
    # a message beginning with a mapped parameter's name names its key
    with pytest.raises(ConfigError, match=r"^key '--n': n must be even$"):
        with keyed("--x", n="--n"):
            raise ValueError("n must be even")
    # with no key of its own, a message naming no mapped parameter passes
    with pytest.raises(ValueError, match=r"^record too short$") as caught:
        with keyed(n="--n"):
            raise ValueError("record too short")
    assert type(caught.value) is ValueError
    with pytest.raises(ZeroDivisionError):
        with keyed("--x"):
            1 / 0
