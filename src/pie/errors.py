"""Exception types, grouped by the exit code the CLI maps them to."""


class PieError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(PieError):
    """Invalid argument, hyperparameter, level, grid, or configuration value."""

    exit_code = 2


class DataError(PieError):
    """Problem with input data: parsing failures, missing columns, empty shards."""

    exit_code = 3


class NumericError(PieError):
    """Numerical failure: singular matrix, non-convergence, degenerate sample."""

    exit_code = 4


def whole(value) -> int:
    """``int(value)`` for a whole number: a bool, or a float that is not an
    integer (2.5, inf, nan), raises ValueError instead of being truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def real(value) -> float:
    """``float(value)`` for a real number: a bool raises ValueError instead of
    being read as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"not a real number: {value!r}")
    return float(value)


MAX_ELEMENTS = 10 ** 8


def check_count(value: int, key: str, least: int = 1) -> int:
    """``value`` if it lies in [least, MAX_ELEMENTS]; a count past the bound
    asks numpy for an array it may not be able to allocate."""
    if not least <= value <= MAX_ELEMENTS:
        raise ConfigError(f"{key} must lie in [{least}, {MAX_ELEMENTS:.0e}], got {value}")
    return value


def coerce(value, kind, key: str):
    """``kind(value)``, reporting a failed conversion as a ConfigError on ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"invalid value for {key}: {value!r}") from None
