"""Run configuration: one JSON document with a section per model stage.

Sections map one-to-one onto the parameter dataclasses: "opo", "noise",
"detection", "analyzer", plus a top-level integer "seed" and optional
"out_dir". Keys starting with an underscore are ignored everywhere, which
is where the shipped config keeps its human-readable notes.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .classical_noise import ClassicalNoiseConfig
from .detection import DetectionParams
from .dsp import SweepConfig
from .opo import OpoParams

__all__ = ["ConfigError", "RunConfig", "default_config", "load_config"]

_SECTIONS = {
    "opo": OpoParams,
    "noise": ClassicalNoiseConfig,
    "detection": DetectionParams,
    "analyzer": SweepConfig,
}


class ConfigError(ValueError):
    """Invalid configuration document; the message names the offending key."""


@contextlib.contextmanager
def keyed(key: str | None = None, **keys: str):
    """Run a block whose ValueError becomes ConfigError("key '<key>': <message>").
    A message that begins with a name in keys, as in_domain's do, names
    keys[name] instead; a ConfigError, or a ValueError with no key, passes."""
    try:
        yield
    except ValueError as exc:
        named = keys.get(str(exc).partition(" ")[0], key)
        if named is None or isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"key '{named}': {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    opo: OpoParams = field(default_factory=OpoParams)
    noise: ClassicalNoiseConfig = field(default_factory=ClassicalNoiseConfig)
    detection: DetectionParams = field(default_factory=DetectionParams)
    analyzer: SweepConfig = field(default_factory=SweepConfig)
    seed: int | None = 1064
    out_dir: str = "."

    def __post_init__(self):
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError(f"key 'seed': must fit in u64, got {self.seed}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError(
                "key 'seed': a seed is required for stochastic commands "
                "(set it in the config or pass --seed)"
            )
        return int(self.seed)


def default_config() -> RunConfig:
    """The shipped defaults (also serialized in configs/defaults.json)."""
    return RunConfig()


def _strip_notes(doc):
    if isinstance(doc, dict):
        return {k: _strip_notes(v) for k, v in doc.items() if not k.startswith("_")}
    return doc


def _build_section(name: str, cls, payload) -> object:
    if not isinstance(payload, dict):
        raise ConfigError(f"key '{name}': expected an object of parameters")
    fields = cls.__dataclass_fields__
    kwargs = {}
    for key, value in payload.items():
        if key not in fields:
            raise ConfigError(f"key '{name}.{key}': unknown parameter")
        # every parameter is a number, or a list of numbers where it is
        # declared a tuple, and one declared int takes no float; bool is an
        # int subclass but neither
        integer = fields[key].type in (int, "int")
        listed = fields[key].type in (tuple, "tuple")
        if listed and not isinstance(value, list):
            raise ConfigError(f"key '{name}.{key}': expected a list of numbers, got {value!r}")
        for item in value if listed else [value]:
            if isinstance(item, bool) or not isinstance(item, int if integer else (int, float)):
                kind = "an integer" if integer else "a number"
                raise ConfigError(f"key '{name}.{key}': expected {kind}, got {item!r}")
        # the rest is float: a JSON integer beyond the float range is refused here
        try:
            kwargs[key] = value if integer else [*map(float, value)] if listed else float(value)
        except OverflowError:
            raise ConfigError(f"key '{name}.{key}': expected a number within the float "
                              "range, got an integer beyond it") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # TypeError: a parameter without default is missing
        raise ConfigError(f"key '{name}': {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    doc = _strip_notes(doc)
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _build_section(name, cls, doc.pop(name))
    if "seed" in doc:
        seed = doc.pop("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ConfigError(f"key 'seed': expected an integer, got {seed!r}")
        kwargs["seed"] = seed
    if "out_dir" in doc:
        out_dir = doc.pop("out_dir")
        if not isinstance(out_dir, str):
            raise ConfigError(f"key 'out_dir': expected a string, got {out_dir!r}")
        kwargs["out_dir"] = out_dir
    if doc:
        raise ConfigError(f"key '{sorted(doc)[0]}': unknown section")
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
