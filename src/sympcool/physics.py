"""Ioffe-Pritchard trap model for magnetically trapped alkali atoms.

The field magnitude near the axis of a Ioffe-Pritchard trap is set by the
bias B0, the radial gradient G and the axial curvature C.  For a Zeeman
sublevel (F, mF) with magnetic energy scaling as (-1)^F * mF * mu_B * |B| / 2,
the vertical

    omega_z = sqrt((-1)^F * mF * mu_B * (G^2/B0 - C) / (2 M))

and horizontal-radial frequencies are equal, while the weak (axial) axis

    omega_x = sqrt((-1)^F * mF * mu_B * C / (2 M))

keeps only the curvature term.  Gravity displaces each cloud down by
sag = g / omega_z^2, so two sublevels with different stiffness sit at
different heights.  TrapFrequencies takes the three axes and g and
derives the sag and the geometric mean omega_bar itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constants import G_STANDARD, MU_B
from .errors import (ANGULAR_FREQUENCY, CROSS_SECTION, GRAVITY, MASS,
                     AntiTrapped, RadialUnconfined, require_in,
                     require_positive)


@dataclass(frozen=True)
class SpeciesState:
    """One trapped Zeeman component.

    mass in kg, cross sections in m^2.  Construction rejects states that a
    static magnetic trap cannot hold.
    """

    label: str
    F: int
    mF: int
    mass: float            # kg
    sigma_self: float      # m^2, elastic cross section within the species
    sigma_cross: float     # m^2, elastic cross section against the partner

    def __post_init__(self):
        require_in(MASS, mass=self.mass)
        require_in(CROSS_SECTION, sigma_self=self.sigma_self,
                   sigma_cross=self.sigma_cross)
        if self.trap_sign <= 0:
            raise AntiTrapped(
                f"{self.label}: (F={self.F}, mF={self.mF}) is not low-field "
                "seeking, (-1)^F * mF must be positive"
            )

    @property
    def trap_sign(self) -> int:
        """(-1)^F * mF, the magnetic-confinement factor."""
        return (-1) ** self.F * self.mF


@dataclass(frozen=True)
class TrapConfig:
    """Static trap parameters in SI: bias B0 [T], gradient G [T/m],
    curvature C [T/m^2], local gravity [m/s^2]."""

    B0: float
    G: float
    C: float
    gravity: float = G_STANDARD

    def __post_init__(self):
        require_positive(B0=self.B0, G=self.G, C=self.C)
        require_in(GRAVITY, gravity=self.gravity)


@dataclass(frozen=True)
class TrapFrequencies:
    """Angular trap frequencies [rad/s] and the gravity [m/s^2] they hold
    the cloud against.

    omega_bar, the geometric mean (omega_x*omega_y*omega_z)^(1/3), and
    sag = gravity / omega_z^2 [m] are derived at construction.
    """

    omega_x: float
    omega_y: float
    omega_z: float
    gravity: float = G_STANDARD
    omega_bar: float = field(init=False)
    sag: float = field(init=False)

    def __post_init__(self):
        require_in(ANGULAR_FREQUENCY, omega_x=self.omega_x,
                   omega_y=self.omega_y, omega_z=self.omega_z)
        require_in(GRAVITY, gravity=self.gravity)
        object.__setattr__(self, "omega_bar", (
            self.omega_x * self.omega_y * self.omega_z) ** (1.0 / 3.0))
        object.__setattr__(self, "sag", self.gravity / self.omega_z ** 2)

    @classmethod
    def from_axes(cls, omega_x, omega_y, omega_z, gravity=G_STANDARD):
        """The constructor under its earlier name."""
        return cls(omega_x, omega_y, omega_z, gravity)


def trap_frequencies(species: SpeciesState, trap: TrapConfig) -> TrapFrequencies:
    """Frequencies and sag of one Zeeman component in a Ioffe-Pritchard trap.

    Raises RadialUnconfined when G^2/B0 <= C (the radial curvature of |B|
    closes the trap only above that line), and TrapFrequencies' DomainError
    for an axis outside the frequency domain; AntiTrapped states are
    already rejected at SpeciesState construction.
    """
    radial_curv = trap.G * trap.G / trap.B0 - trap.C   # T/m^2
    if radial_curv <= 0:
        raise RadialUnconfined(
            f"G^2/B0 = {trap.G * trap.G / trap.B0:.3g} T/m^2 does not exceed "
            f"C = {trap.C:.3g} T/m^2"
        )
    scale = species.trap_sign * MU_B / (2.0 * species.mass)
    omega_z = (scale * radial_curv) ** 0.5
    omega_x = (scale * trap.C) ** 0.5
    return TrapFrequencies(omega_x, omega_z, omega_z, gravity=trap.gravity)
