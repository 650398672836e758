"""Exception types shared across the package, the checks of config settings, and the
JSON format of every artifact: ``json_value`` encodes, ``write_json`` writes."""

import json
import numbers
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

SCHEMA_VERSION = 1


class WidefeatError(Exception):
    """Base class for all package-specific errors."""


class LoadError(WidefeatError):
    """A signal file could not be read."""


class ValidationError(WidefeatError):
    """A record or manifest violates its invariants."""


class ConfigError(WidefeatError):
    """A configuration value is out of its allowed range."""


class TrainingError(WidefeatError):
    """A classifier could not be trained on the given rows."""


class RunError(WidefeatError):
    """A pipeline run failed; carries the partial trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def known_keys(raw: dict, names, where: str) -> dict:
    """Return config block ``raw`` after checking it sets only keys in ``names``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} settings must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown {where} setting(s) {unknown}; known: {list(names)}")
    return raw


def block_settings(raw: dict, table: dict, where: str) -> dict:
    """The fields that config block ``raw`` sets, by name; ``table`` is {block: {key: field}}."""
    known_keys(raw, table, where)
    settings = {}
    for block, keys in table.items():
        sub = known_keys(raw.get(block, {}), keys, f"{where}.{block}")
        settings.update((keys[key], value) for key, value in sub.items())
    return settings


def block_dict(config, table: dict) -> dict:
    """``config``'s fields as JSON values, laid out in the two-level blocks of ``table``."""
    return {block: {key: json_value(getattr(config, name)) for key, name in keys.items()}
            for block, keys in table.items()}


def flat_dict(config) -> dict:
    """``config``'s fields as JSON values by field name, leaving out fields set to None."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {name: json_value(value) for name, value in values.items() if value is not None}


def json_value(value):
    """``value`` as JSON data: a dataclass through its ``to_dict`` (else ``flat_dict``),
    a tuple or list as a list of JSON values, anything else as it is."""
    if is_dataclass(value):
        return value.to_dict() if hasattr(value, "to_dict") else flat_dict(value)
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    return value


def write_json(path, payload: dict) -> None:
    """Write ``payload`` under ``schema_version`` to ``path``: 2-space indent, sorted keys,
    a final newline.  The text is encoded before the file opens, so a failed encode
    leaves no file."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def store(config, **values) -> None:
    """Set normalized field ``values`` on the frozen dataclass ``config``."""
    for name, value in values.items():
        object.__setattr__(config, name, value)


def is_int(value) -> bool:
    """True for integers; bools are not numbers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for real numbers; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int; ``ConfigError`` unless it is an integer in [lo, hi]
    (hi None: unbounded)."""
    if not (is_int(value) and lo <= value and (hi is None or value <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def real_setting(value, name: str) -> float:
    """Config ``value`` as a float; strings, bools and non-finite numbers raise ``ConfigError``."""
    if not (is_real(value) and abs(value) <= sys.float_info.max):  # False for NaN
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def list_setting(value, name: str) -> tuple:
    """Config ``value`` as a tuple; anything but a list raises ``ConfigError``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)
