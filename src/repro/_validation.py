"""Internal argument-validation helpers.

Small, dependency-free checks shared across the package.  Each helper raises
a focused exception with the offending parameter name in the message so that
user errors surface at the API boundary rather than deep inside the
simulator's slot loop (where they would be expensive to trace back).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "require_bool",
    "require_positive_int",
    "require_nonnegative_int",
    "require_positive",
    "require_probability",
    "require_in_range",
]


def require_bool(value: Any, name: str) -> bool:
    """Return ``value`` as a bool, requiring it to be ``bool`` or ``np.bool_``.

    Rejects truthy stand-ins such as ``"false"`` or ``1``: a string switch
    would silently flip the feature it names on.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {type(value).__name__}")
    return bool(value)


def require_positive_int(value: Any, name: str) -> int:
    """Return ``value`` as an int, requiring it to be a positive integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def require_nonnegative_int(value: Any, name: str) -> int:
    """Return ``value`` as an int, requiring it to be a non-negative integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def require_positive(value: Any, name: str) -> float:
    """Return ``value`` as a float, requiring it to be strictly positive."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def require_probability(value: Any, name: str) -> float:
    """Return ``value`` as a float, requiring ``0 <= value <= 1``."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_in_range(value: Any, name: str, low: float, high: float) -> float:
    """Return ``value`` as a float, requiring ``low <= value <= high``."""
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value
