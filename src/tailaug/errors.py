"""Exception hierarchy shared by all tailaug modules, and the range check
that the config and the library constructors share.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

import math


class TailaugError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TailaugError):
    """Invalid or inconsistent configuration (caught before any work starts)."""


class DataError(TailaugError):
    """Unreadable, malformed, or mismatched input data or artifacts."""


class NumericError(TailaugError):
    """Numerical failure: factorization breakdown, non-finite values, divergence."""


def finite_positive(x: float) -> bool:
    """``x > 0`` that is false for nan and inf too."""
    return 0.0 < x < math.inf
