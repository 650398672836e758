"""Exception types shared across the package, and the config key and type checks."""

import numbers


class WidefeatError(Exception):
    """Base class for all package-specific errors."""


class LoadError(WidefeatError):
    """A signal file could not be read."""


class ValidationError(WidefeatError):
    """A record or manifest violates its invariants."""


class ConfigError(WidefeatError):
    """A configuration value is out of its allowed range."""


class DegenerateSignalError(WidefeatError):
    """An input signal carries no usable detail content (e.g. constant)."""


class TrainingError(WidefeatError):
    """A classifier could not be trained on the given rows."""


class RunError(WidefeatError):
    """A pipeline run failed; carries the partial trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def known_keys(raw: dict, names: str, where: str) -> dict:
    """Return config block ``raw`` after checking it sets only the space-separated ``names``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} settings must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(names.split()))
    if unknown:
        raise ConfigError(f"unknown {where} setting(s) {unknown}; known: {names.split()}")
    return raw


def is_int(value) -> bool:
    """True for integers; bools are not numbers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for real numbers; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_int(value, name: str, lo: int, hi: int | None = None) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer in [lo, hi] (hi None: unbounded)."""
    if not (is_int(value) and lo <= value and (hi is None or value <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")


def real_setting(value, name: str) -> float:
    """Config ``value`` as a float; strings and bools raise ``ConfigError``."""
    if not is_real(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def list_setting(value, name: str) -> tuple:
    """Config ``value`` as a tuple; anything but a list raises ``ConfigError``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)
