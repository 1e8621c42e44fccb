"""Exception and warning types shared across the package, the physical
domain of each quantity, and the input checks: each numeric field goes to
one require_* call, and every one checks finiteness first."""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple


class SympcoolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SympcoolError):
    """An input is outside the physical or numerical domain of an operation."""


def require_finite(**values) -> None:
    """DomainError "<name> must be finite" for the first NaN or infinity."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")


class Range(NamedTuple):
    """Values low <= x <= high of one quantity in SI units, and the
    interval as messages print it."""
    low: float
    high: float
    text: str


# The physical domain: the paper's ~1e6-1e8 87Rb atoms at uK temperatures
# in ~100 Hz traps, with decades of margin.  Inside it every closed form
# of physics, contact and budget is finite or, for eta next to 3, refused;
# that sets ETA's upper end, as D2_max grows as (N1_ini / N2)^(3 alpha):
# about 1e297 at eta 20 at the domain's corners, overflowing near 20.8.
ATOMS = Range(1.0, 1e15, "[1, 1e15]")
TEMPERATURE = Range(1e-12, 1e3, "[1e-12, 1e3] K")
ANGULAR_FREQUENCY = Range(1e-2, 1e7, "[1e-2, 1e7] rad/s")
FREQUENCY_RATIO = Range(1e-9, 1e9, "[1e-9, 1e9]")
MASS = Range(1e-27, 1e-23, "[1e-27, 1e-23] kg")
CROSS_SECTION = Range(0.0, 1e2, "[0, 1e2] m^2")
LENGTH = Range(-1e2, 1e2, "[-1e2, 1e2] m")
GRAVITY = Range(-1e3, 1e3, "[-1e3, 1e3] m/s^2")
ETA = Range(math.nextafter(2.0, 3.0), 20.0, "(2, 20]")     # alpha > 0
PREFACTOR = Range(1e-3, 1e3, "[1e-3, 1e3]")     # psd and evaporation
DURATION = Range(1e-9, 1e6, "[1e-9, 1e6] s")
CELL_SIZE = Range(1e-9, 1e2, "[1e-9, 1e2] m")


def require_in(domain: Range, **values) -> None:
    """require_finite over all values, then for the first value outside
    domain DomainError "<name> must be positive" (">= 0" where domain
    starts at 0) if its sign is wrong, else "<name> must lie in
    <interval>, got <value>"."""
    require_finite(**values)
    for name, value in values.items():
        if not domain.low <= value <= domain.high:
            rule = ("be positive" if value <= 0 < domain.low
                    else "be >= 0" if value < 0 == domain.low
                    else f"lie in {domain.text}, got {value:.6g}")
            raise DomainError(f"{name} must {rule}")


def require_positive(**values) -> None:
    """require_finite over all values, then DomainError "<name> must be
    positive" for the first value not > 0."""
    require_finite(**values)
    for name, value in values.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive")


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
