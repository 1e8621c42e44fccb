"""Interspecies thermal contact: overlap, rates, and mass scaling.

The collision-rate formula is cross-checked against a direct numerical
overlap integral (per-axis Gaussian quadrature times the mean relative
speed), so the closed form is never compared against itself.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sympcool import (
    MASS_LI6,
    MASS_RB87,
    TrapFrequencies,
    TwoGasState,
    energy_exchange_rate,
    equivalent_mass,
    interspecies_collision_rate,
    interspecies_thermalization_rate,
    overlap_factor,
    rms_sizes,
    single_species_collision_rate,
    transfer_efficiency,
)
from sympcool.constants import AMU, G_STANDARD, K_B
from sympcool.contact import _pair_rates
from sympcool.errors import DomainError

F0 = TrapFrequencies.from_axes(2 * math.pi * 80, 2 * math.pi * 100,
                               2 * math.pi * 125, gravity=0.0)


def _state(T1=1.3e-6, T2=0.7e-6, M2=MASS_RB87, sigma=1.4e-15, delta=0.0,
           f1=F0, f2=F0, N1=1e4, N2=1e4):
    return TwoGasState(N1=N1, N2=N2, T1=T1, T2=T2, f1=f1, f2=f2,
                       M1=MASS_RB87, M2=M2, sigma12=sigma, delta=delta)


def _offset_state(delta_um, rho_um, T=400e-9):
    """Equal-mass, equal-trap state whose combined vertical width is
    exactly rho_um micrometres; only the z axis matters for the overlap."""
    omega_z = math.sqrt(2.0 * K_B * T / MASS_RB87) / (rho_um * 1e-6)
    f = TrapFrequencies.from_axes(omega_z, omega_z, omega_z, gravity=0.0)
    return _state(T1=T, T2=T, f1=f, f2=f, delta=delta_um * 1e-6)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["N1", "N2", "T1", "T2", "M1", "M2",
                                   "sigma12", "delta"])
def test_state_rejects_non_finite(field, value):
    kw = dict(N1=1e4, N2=1e4, T1=1.3e-6, T2=0.7e-6, f1=F0, f2=F0,
              M1=MASS_RB87, M2=MASS_RB87, sigma12=1.4e-15, delta=0.0)
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        TwoGasState(**{**kw, field: value})


# ------------------------------------------------------------------ overlap

def test_overlap_at_working_point():
    """26 um offset against a 12 um combined width suppresses the contact
    to exp(-26^2/(2*12^2)) = 0.0956, the measured working point."""
    s = _offset_state(26.0, 12.0)
    assert rms_sizes(s)[2] == pytest.approx(12e-6, rel=1e-12)
    assert overlap_factor(s) == pytest.approx(0.0956344448325386, rel=1e-12)
    assert abs(overlap_factor(s) - 0.096) < 0.005


def test_overlap_reduction_at_compensated_point():
    """A 7 um residual offset against an 8 um width costs about 30% of the
    collision rate."""
    s = _offset_state(7.0, 8.0)
    reduction = 1.0 - overlap_factor(s)
    assert reduction == pytest.approx(0.318059248809652, rel=1e-12)
    assert abs(reduction - 0.30) < 0.03


def test_overlap_basic_properties():
    assert overlap_factor(_offset_state(0.0, 12.0)) == 1.0
    deltas = np.linspace(0.0, 40.0, 9)
    vals = [overlap_factor(_offset_state(d, 12.0)) for d in deltas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert overlap_factor(_offset_state(-26.0, 12.0)) == pytest.approx(
        overlap_factor(_offset_state(26.0, 12.0)), rel=1e-14)


def test_widths_at_a_sagging_working_point():
    """In the trap whose relative sag is exactly 26 um (soft sublevel
    omega_z = sqrt(g / 52 um)), two 400 nK clouds combine to a 17.5 um
    width. The 12 um working width used above is narrower than that, so
    the quoted offset-to-width pair is pinned directly rather than derived
    from the sag geometry."""
    w1z = math.sqrt(G_STANDARD / (2.0 * 26e-6))
    f1 = TrapFrequencies.from_axes(w1z, w1z, w1z, gravity=G_STANDARD)
    w2z = math.sqrt(2.0) * w1z
    f2 = TrapFrequencies.from_axes(w2z, w2z, w2z, gravity=G_STANDARD)
    assert f1.sag - f2.sag == pytest.approx(26e-6, rel=1e-12)
    s = _state(T1=400e-9, T2=400e-9, f1=f1, f2=f2, delta=f1.sag - f2.sag)
    assert 17e-6 < rms_sizes(s)[2] < 18e-6


# ------------------------------------------------------- collision rate

def _rate_by_quadrature(s: TwoGasState) -> float:
    """Overlap integral computed from scratch: product of per-axis
    integrals of the two unit-normalized Gaussian profiles, times
    N1 N2 sigma12 and the mean relative speed sqrt(8/pi) V."""
    def axis_integral(w1, w2, offset):
        s1 = math.sqrt(K_B * s.T1 / (s.M1 * w1 ** 2))
        s2 = math.sqrt(K_B * s.T2 / (s.M2 * w2 ** 2))

        def integrand(x):
            g1 = math.exp(-x ** 2 / (2 * s1 ** 2)) / (s1 * math.sqrt(2 * math.pi))
            g2 = (math.exp(-(x - offset) ** 2 / (2 * s2 ** 2))
                  / (s2 * math.sqrt(2 * math.pi)))
            return g1 * g2

        lim = 12 * max(s1, s2) + abs(offset)
        val, err = quad(integrand, -lim, lim, limit=200)
        assert err < 1e-9 * val
        return val

    ix = axis_integral(s.f1.omega_x, s.f2.omega_x, 0.0)
    iy = axis_integral(s.f1.omega_y, s.f2.omega_y, 0.0)
    iz = axis_integral(s.f1.omega_z, s.f2.omega_z, s.delta)
    v_rel = math.sqrt(8.0 / math.pi) * math.sqrt(
        K_B * s.T1 / s.M1 + K_B * s.T2 / s.M2)
    return s.N1 * s.N2 * s.sigma12 * v_rel * ix * iy * iz


def test_rate_matches_quadrature_equal_masses():
    s = _state()
    assert interspecies_collision_rate(s) == pytest.approx(
        _rate_by_quadrature(s), rel=1e-9)


def test_rate_matches_quadrature_general_geometry():
    """Unequal masses, unequal anisotropic traps, finite offset."""
    f2 = TrapFrequencies.from_axes(2 * math.pi * 113, 2 * math.pi * 91,
                                   2 * math.pi * 177, gravity=0.0)
    s = _state(T1=2.1e-6, T2=0.4e-6, M2=MASS_LI6, f2=f2, delta=9e-6,
               N1=3e5, N2=7e3)
    assert interspecies_collision_rate(s) == pytest.approx(
        _rate_by_quadrature(s), rel=1e-9)


def test_rate_scalings():
    s0 = _state()
    assert interspecies_collision_rate(
        _state(N1=3e4)) / interspecies_collision_rate(s0) == pytest.approx(
            3.0, rel=1e-12)
    assert interspecies_collision_rate(
        _state(sigma=2.8e-15)) / interspecies_collision_rate(
            s0) == pytest.approx(2.0, rel=1e-12)
    # equal masses, common trap: Gamma ~ 1/(T1 + T2)
    hot = _state(T1=2.6e-6, T2=1.4e-6)
    assert interspecies_collision_rate(hot) / interspecies_collision_rate(
        s0) == pytest.approx(0.5, rel=1e-12)


# --------------------------------------------------- heat flow and relaxation

def test_energy_flow_sign_and_magnitude():
    cold_buffer = _state(T1=0.7e-6, T2=1.3e-6)
    hot_buffer = _state(T1=1.3e-6, T2=0.7e-6)
    g = interspecies_collision_rate(cold_buffer)
    assert energy_exchange_rate(cold_buffer) == pytest.approx(
        K_B * 0.6e-6 * g, rel=1e-12)
    assert energy_exchange_rate(hot_buffer) == pytest.approx(
        -K_B * 0.6e-6 * g, rel=1e-12)
    balanced = _state(T1=1e-6, T2=1e-6)
    assert energy_exchange_rate(balanced) == 0.0


def test_thermalization_reduces_to_single_species_rate():
    """Equal masses in a common trap: 1/tau = gamma/3 with gamma evaluated
    for N1 + N2 atoms at the mean temperature. Exact identity."""
    s = _state(T1=1.3e-6, T2=0.7e-6, N1=1.7e4, N2=0.9e4)
    gamma = single_species_collision_rate(
        s.N1 + s.N2, (s.T1 + s.T2) / 2, F0.omega_bar, s.sigma12, MASS_RB87)
    assert interspecies_thermalization_rate(s) == pytest.approx(
        gamma / 3.0, rel=1e-12)


def test_single_species_rate_from_scratch():
    """gamma must equal (density-weighted mean density) x sigma x (mean
    relative speed), assembled from its textbook pieces."""
    N, T, sigma = 2e4, 1.0e-6, 1.4e-15
    sizes = [math.sqrt(K_B * T / (MASS_RB87 * w ** 2))
             for w in (F0.omega_x, F0.omega_y, F0.omega_z)]
    n_bar = N / ((4.0 * math.pi) ** 1.5 * sizes[0] * sizes[1] * sizes[2])
    v_rel = math.sqrt(2.0) * math.sqrt(8.0 * K_B * T / (math.pi * MASS_RB87))
    expected = n_bar * sigma * v_rel
    got = single_species_collision_rate(N, T, F0.omega_bar, sigma, MASS_RB87)
    assert got == pytest.approx(expected, rel=1e-12)


def test_thermalization_suppressed_by_offset():
    """The relaxation rate carries the full overlap suppression."""
    s0 = _state()
    s_off = _state(delta=2.15 * rms_sizes(s0)[2])
    ratio = (interspecies_thermalization_rate(s_off)
             / interspecies_thermalization_rate(s0))
    assert ratio == pytest.approx(math.exp(-2.15 ** 2 / 2.0), rel=1e-12)


# ------------------------------------------------------------- mass scaling

def test_transfer_efficiency():
    assert transfer_efficiency(MASS_RB87, MASS_RB87) == 1.0
    xi = transfer_efficiency(MASS_RB87, MASS_LI6)
    assert 0 < xi < 1
    assert xi == transfer_efficiency(MASS_LI6, MASS_RB87)


def test_equivalent_mass_identities():
    """The equivalent mass is twice the transfer efficiency times the
    reduced mass, and tops out at M for equal masses."""
    for m2 in (MASS_LI6, MASS_RB87 / 14.5, MASS_RB87):
        mu = MASS_RB87 * m2 / (MASS_RB87 + m2)
        expected = 2.0 * transfer_efficiency(MASS_RB87, m2) * mu
        assert equivalent_mass(MASS_RB87, m2) == pytest.approx(expected,
                                                               rel=1e-14)
    assert equivalent_mass(MASS_RB87, MASS_RB87) == pytest.approx(MASS_RB87,
                                                                  rel=1e-14)


def test_equivalent_mass_rb_li_frozen():
    m = equivalent_mass(MASS_RB87, MASS_LI6)
    assert m / AMU == pytest.approx(2.7247230322544564, rel=1e-12)
    # integer mass numbers 87 and 6 land close by but not on the same value
    m_int = equivalent_mass(87 * AMU, 6 * AMU)
    assert m_int / AMU == pytest.approx(2.710080225571481, rel=1e-12)
    assert abs(m / m_int - 1.0) < 0.01


def test_slowdown_for_mass_ratio_14p5():
    """A 14.5 mass ratio cuts the per-collision effectiveness to about 3%
    of the equal-mass value."""
    m = equivalent_mass(MASS_RB87, MASS_RB87 / 14.5)
    assert m / MASS_RB87 == pytest.approx(8.0 * 14.5 / 15.5 ** 3, rel=1e-14)
    assert m / MASS_RB87 == pytest.approx(0.0311, abs=2e-4)


# ---------------------------------------------------------------- validation

def test_state_validation():
    with pytest.raises(DomainError):
        _state(N1=0.0)
    with pytest.raises(DomainError):
        _state(T2=0.0)
    with pytest.raises(DomainError):
        _state(sigma=-1e-15)
    with pytest.raises(DomainError):
        _state(M2=0.0)


@pytest.mark.parametrize("axes", [(1e-150, 1e-150, 1e-140),
                                  (1e-170, 628.3, 628.3),
                                  (1e200, 628.3, 628.3)])
@pytest.mark.parametrize("which", ["f1", "f2"])
def test_state_rejects_trap_terms_out_of_range(which, axes):
    """Axes whose M omega^2 under- or overflowed (it divided by zero in the
    pair widths) lie outside the frequency domain: the trap that either
    cloud would sit in is refused, naming its first axis."""
    with pytest.raises(DomainError, match="^omega_x must lie in "):
        _state(**{which: TrapFrequencies(*axes, gravity=0.0)})


@pytest.mark.parametrize("axes, T", [
    ((1e7, 2 * math.pi * 100, 2 * math.pi * 125), 1e-310),
    ((1e7, 1e7, 1e7), 1e-300)],
    ids=["width_underflows", "width_product_underflows"])
def test_pair_widths_that_underflow_are_a_domain_error(axes, T):
    """A state inside the domain whose clouds a run then cools far below
    it: at 1e-310 K k_B T / (M omega^2) underflows to 0 and rho_x with
    it, at 1e-300 K three widths of about 1e-156 multiply to 0.  The
    collision rate divided by zero there; the pair rates raise
    DomainError."""
    f = TrapFrequencies(*axes, gravity=0.0)
    s = _state(f1=f, f2=f)
    with pytest.raises(DomainError, match="pair widths underflow"):
        _pair_rates(s)(s.N1, T, T)


@pytest.mark.parametrize("T", [1e-320, 1e-303])
def test_self_rate_of_a_subnormal_temperature_is_a_domain_error(T):
    """2 pi^2 k_B T underflows to 0 for T below about 2e-302 K, which
    raised a bare ZeroDivisionError; such a T lies outside the domain."""
    with pytest.raises(DomainError, match="^T must lie in "):
        single_species_collision_rate(1e4, T, F0.omega_bar, 1e-15,
                                      MASS_RB87)


def test_self_rate_refuses_an_overflowing_omega_bar():
    """omega_bar^3 overflowed at 1e103 rad/s (a bare OverflowError); it
    lies outside the frequency domain."""
    with pytest.raises(DomainError, match="^omega_bar must lie in "):
        single_species_collision_rate(1e4, 1e-6, 1e103, 1e-15, MASS_RB87)


def test_rate_function_validation():
    with pytest.raises(DomainError):
        single_species_collision_rate(0.0, 1e-6, F0.omega_bar, 1e-15,
                                      MASS_RB87)
    with pytest.raises(DomainError):
        single_species_collision_rate(1e4, 1e-6, F0.omega_bar, -1e-15,
                                      MASS_RB87)
    with pytest.raises(DomainError):
        equivalent_mass(MASS_RB87, 0.0)


def test_from_traps_uses_sag_difference():
    g = G_STANDARD
    f1 = TrapFrequencies.from_axes(400.0, 400.0, 400.0, gravity=g)
    f2 = TrapFrequencies.from_axes(600.0, 600.0, 600.0, gravity=g)
    s = TwoGasState.from_traps(1e4, 1e4, 1e-6, 1e-6, f1, f2,
                               MASS_RB87, MASS_RB87, 1.4e-15)
    assert s.delta == pytest.approx(g / 400.0 ** 2 - g / 600.0 ** 2,
                                    rel=1e-12)
