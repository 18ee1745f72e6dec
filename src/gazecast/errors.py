"""Exception hierarchy shared by all gazecast modules.

Three broad families map onto CLI exit codes: configuration problems (2),
data problems (3), and numerical failures (4).
"""

import numbers


class GazecastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GazecastError):
    """Invalid or inconsistent configuration."""


def check_int(name: str, value, least: int) -> None:
    """Raise ConfigError unless ``value`` is an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


class DataError(GazecastError):
    """Problems with input data."""


class EmptyInputError(DataError):
    """Input contains no usable samples."""


class AlignmentError(DataError):
    """Two per-sample structures do not line up."""


class InsufficientDataError(DataError):
    """Not enough samples/events to compute a quantity reliably."""


class NumericalError(GazecastError):
    """Numerical failure (divergence, instability, singular matrices)."""


class InstabilityError(NumericalError):
    """Plant integration produced non-finite state."""


class DivergenceError(NumericalError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


class FitError(NumericalError):
    """Parameter fitting could not produce a usable result."""


class UndefinedStatisticError(DataError):
    """A statistic is undefined for the given input (e.g. constant vector)."""
