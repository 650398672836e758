"""Exception types shared across the package, and the config key check."""


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
    unknown = sorted(set(raw) - set(names.split()))
    if unknown:
        raise ConfigError(f"unknown {where} setting(s) {unknown}; known: {names.split()}")
    return raw
