"""Interspecies thermal contact: collision rate, energy flow, relaxation.

Two harmonically trapped Gaussian clouds at temperatures T1, T2 whose
centres are vertically offset by delta exchange energy through elastic
cross collisions.  The total cross-collision rate is

    Gamma = N1 N2 / (pi^2 rho_x rho_y rho_z) * sigma12 * V
            * exp(-delta^2 / (2 rho_z^2)),

where rho_i^2 = k_B T1/(M1 w1i^2) + k_B T2/(M2 w2i^2) combines the two rms
cloud sizes and V = sqrt(k_B T1/M1 + k_B T2/M2) is the thermal relative
speed scale.  Each collision moves k_B (T2 - T1) on average (equal
masses), so the heat flow into the buffer is W = k_B (T2 - T1) Gamma and
the temperature difference relaxes at

    1/tau = xi * Gamma * (N1 + N2) / (3 N1 N2),

with the mass-mismatch transfer efficiency xi = 4 M1 M2/(M1+M2)^2.  For
equal masses and a common trap this reduces to gamma/3 with gamma the
single-species collision rate; for unequal masses (equal traps, T1 ~ T2)
it reproduces the same formula with M replaced by the equivalent mass
8 (M1 M2)^2 / (M1 + M2)^3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import K_B
from .errors import (DomainError, require_finite, require_nonnegative,
                     require_positive)
from .physics import TrapFrequencies

_PI2 = math.pi ** 2
_TWO_PI2_KB = 2.0 * math.pi ** 2 * K_B
_TINY = sys.float_info.min      # smallest positive normal float
_WIDTHS_UNDERFLOW = ("the pair widths underflow to 0: the clouds are too "
                    "cold for their traps")


@dataclass(frozen=True)
class TwoGasState:
    """Instantaneous two-species state (strict SI).

    delta is the vertical distance between the cloud centres; the factory
    from_traps fills it from the trap sags.  Each trap term M_i omega_ia^2
    of the pair density must be a positive normal float: one that under-
    or overflows would divide by zero in the pair widths.
    """

    N1: float
    N2: float
    T1: float              # K
    T2: float              # K
    f1: TrapFrequencies
    f2: TrapFrequencies
    M1: float              # kg
    M2: float              # kg
    sigma12: float         # m^2
    delta: float           # m

    def __post_init__(self):
        require_positive(N1=self.N1, N2=self.N2, T1=self.T1, T2=self.T2,
                         M1=self.M1, M2=self.M2)
        require_nonnegative(sigma12=self.sigma12)
        require_finite(delta=self.delta)
        for i, M, f in ((1, self.M1, self.f1), (2, self.M2, self.f2)):
            try:
                terms = _trap_terms(M, f)
            except OverflowError:   # omega ** 2 leaves the floats
                terms = (math.inf,)
            if not all(_TINY <= k < math.inf for k in terms):
                raise DomainError(f"f{i}: the trap term M{i} omega^2 of an "
                                  "axis is not a positive normal float")

    @classmethod
    def from_traps(cls, N1, N2, T1, T2, f1: TrapFrequencies,
                   f2: TrapFrequencies, M1, M2, sigma12) -> "TwoGasState":
        return cls(N1=N1, N2=N2, T1=T1, T2=T2, f1=f1, f2=f2, M1=M1, M2=M2,
                   sigma12=sigma12, delta=f1.sag - f2.sag)


def _trap_terms(M: float, f: TrapFrequencies) -> tuple:
    """(M wx^2, M wy^2, M wz^2): one trap's terms of the pair density."""
    return (M * f.omega_x ** 2, M * f.omega_y ** 2, M * f.omega_z ** 2)


def _pair_rates(s: TwoGasState):
    """rates(N1, T1, T2) -> ((rho_x, rho_y, rho_z), overlap, Gamma) of two
    Gaussian clouds with the rest of state s: its trap terms, N2, masses,
    sigma12 and delta bound once.

    rho_a^2 = k_B T1/(M1 w1a^2) + k_B T2/(M2 w2a^2), the overlap factor is
    exp(-delta^2 / (2 rho_z^2)), and Gamma is the cross-collision rate of
    the module docstring.  Widths that underflow to 0 (clouds far colder
    than their traps are stiff) are a DomainError.
    """
    N2, M1, M2, sigma12 = s.N2, s.M1, s.M2, s.sigma12
    delta2 = s.delta ** 2
    (x1, y1, z1), (x2, y2, z2) = _trap_terms(M1, s.f1), _trap_terms(M2, s.f2)

    def rates(N1, T1, T2):
        kt1 = K_B * T1
        kt2 = K_B * T2
        rx = math.sqrt(kt1 / x1 + kt2 / x2)
        ry = math.sqrt(kt1 / y1 + kt2 / y2)
        rz = math.sqrt(kt1 / z1 + kt2 / z2)
        rz2 = rz ** 2
        volume = _PI2 * rx * ry * rz
        if volume == 0 or rz2 == 0:
            raise DomainError(_WIDTHS_UNDERFLOW)
        overlap = math.exp(-delta2 / (2.0 * rz2))
        v = math.sqrt(kt1 / M1 + kt2 / M2)
        gamma = N1 * N2 / volume * sigma12 * v * overlap
        return (rx, ry, rz), overlap, gamma
    return rates


def _rates_of(s: TwoGasState):
    """(rms_sizes, overlap_factor, interspecies_collision_rate,
    energy_exchange_rate, interspecies_thermalization_rate) of one state,
    from one pair-rate evaluation."""
    rho, overlap, gamma = _pair_rates(s)(s.N1, s.T1, s.T2)
    w = K_B * (s.T2 - s.T1) * gamma
    inv_tau = (transfer_efficiency(s.M1, s.M2) * gamma
               * (s.N1 + s.N2) / (3.0 * s.N1 * s.N2))
    return rho, overlap, gamma, w, inv_tau


def rms_sizes(s: TwoGasState) -> tuple[float, float, float]:
    """Combined rms widths (rho_x, rho_y, rho_z) of the pair density."""
    return _rates_of(s)[0]


def overlap_factor(s: TwoGasState) -> float:
    """Gaussian suppression exp(-delta^2 / (2 rho_z^2)) of the cross rate."""
    return _rates_of(s)[1]


def interspecies_collision_rate(s: TwoGasState) -> float:
    """Total cross-collision rate Gamma [1/s] between the two clouds."""
    return _rates_of(s)[2]


def energy_exchange_rate(s: TwoGasState) -> float:
    """Heat flow W [W] into the buffer: k_B (T2 - T1) Gamma.

    Positive when the target is hotter.  This is the equal-mass
    per-collision average; the mass-mismatch efficiency enters only the
    relaxation rate below.
    """
    return _rates_of(s)[3]


def transfer_efficiency(M1: float, M2: float) -> float:
    """Fraction xi = 4 M1 M2 / (M1 + M2)^2 of k_B (T2 - T1) moved per
    cross collision; equals 1 for equal masses."""
    return 4.0 * M1 * M2 / (M1 + M2) ** 2


def equivalent_mass(M1: float, M2: float) -> float:
    """Equivalent mass 8 (M1 M2)^2 / (M1 + M2)^3 [kg].

    Symmetric, maximal (= M) at M1 = M2 = M; replacing M by this value in
    the single-trap relaxation formula captures the slowdown of
    interspecies thermalization for mismatched masses.
    """
    require_positive(M1=M1, M2=M2)
    return 8.0 * (M1 * M2) ** 2 / (M1 + M2) ** 3


def interspecies_thermalization_rate(s: TwoGasState) -> float:
    """Relaxation rate 1/tau [1/s] of the temperature difference T1 - T2.

    Computed as xi * Gamma * (N1 + N2)/(3 N1 N2) from the actual overlap
    integral, so it stays valid for unequal trap frequencies and a finite
    centre offset.  For equal masses in a common trap this is exactly

        1/tau = (N1 + N2) omega_bar^3 sigma12 M / (6 pi^2 k_B T),

    with T = (T1 + T2)/2, i.e. gamma/3 in the single-species limit.
    """
    return _rates_of(s)[4]


def single_species_collision_rate(N: float, T: float, omega_bar: float,
                                  sigma: float, mass: float) -> float:
    """Mean elastic collision rate per atom in one trapped thermal cloud:

        gamma = N omega_bar^3 sigma M / (2 pi^2 k_B T).

    Equals n_bar sigma v_rel_bar with n_bar the density-weighted mean
    density and v_rel_bar the mean relative speed.
    """
    require_positive(N=N, T=T, omega_bar=omega_bar, mass=mass)
    require_nonnegative(sigma=sigma)
    if _TWO_PI2_KB * T == 0:
        raise DomainError(f"T = {T:.6g} K is too cold: k_B T underflows")
    return _self_rate(N, T, omega_bar ** 3, sigma, mass)


def _self_rate(N, T, omega_bar3, sigma, mass):
    """single_species_collision_rate from omega_bar^3, unchecked."""
    return N * omega_bar3 * sigma * mass / (_TWO_PI2_KB * T)
