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


def coerce(value, kind, key: str):
    """``kind(value)``, reporting a failed conversion as a ConfigError on ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"invalid value for {key}: {value!r}") from None
