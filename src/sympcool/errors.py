"""Exception and warning types shared across the package, and the input
checks: each numeric field goes to one require_* call, and
require_positive and require_nonnegative check finiteness before sign."""

from __future__ import annotations

import math
import numbers


class SympcoolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SympcoolError):
    """An input is outside the physical or numerical domain of an operation."""


def require_finite(**values) -> None:
    """DomainError "<name> must be finite" for the first NaN or infinity."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")


def require_positive(**values) -> None:
    """require_finite over all values, then DomainError "<name> must be
    positive" for the first value not > 0."""
    require_finite(**values)
    for name, value in values.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive")


def require_nonnegative(**values) -> None:
    """require_finite over all values, then DomainError "<name> must be
    >= 0" for the first negative value."""
    require_finite(**values)
    for name, value in values.items():
        if value < 0:
            raise DomainError(f"{name} must be >= 0")


def require_integer(minimum: int, **values) -> None:
    """DomainError "<name> must be an integer" for the first value that is
    not an integer (a bool is not one), then "<name> must be >= minimum"
    for the first value below minimum."""
    for name, value in values.items():
        if isinstance(value, bool) \
                or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    for name, value in values.items():
        if value < minimum:
            raise DomainError(f"{name} must be >= {minimum}")


class AntiTrapped(DomainError):
    """The Zeeman state is high-field seeking: (-1)^F * mF <= 0, no trap."""


class RadialUnconfined(DomainError):
    """Radial curvature G^2/B0 - C is not positive, the trap does not close."""


class NoInteriorPeak(DomainError):
    """The buffer phase-space density has no interior maximum (3*alpha <= 1)."""


class StepFailure(SympcoolError):
    """The adaptive integrator could not meet its tolerance."""


class InsufficientDecay(SympcoolError):
    """A relaxation series spans less than two e-folds, no reliable fit."""


class ConfigError(SympcoolError):
    """A run configuration failed validation.

    ``line`` carries a 1-based line number in the offending JSON file when
    one could be determined, so the CLI can anchor its message.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class CellUnderflowWarning(UserWarning):
    """Most collision cells are persistently underpopulated."""
