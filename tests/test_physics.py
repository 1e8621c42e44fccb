"""Trap model and constants checks.

Frozen reference numbers in this file were computed once from the CODATA
constants shipped in sympcool.constants and are pinned at tight relative
tolerances so any silent change of the formulas or constants fails loudly.
"""

import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sympcool import (
    MASS_RB87,
    ParticleEnsemble,
    SpeciesState,
    TrapConfig,
    TrapFrequencies,
    TwoGasState,
    equivalent_mass,
    sample_equilibrium,
    single_species_collision_rate,
    trap_frequencies,
)
from sympcool.constants import (
    G_STANDARD,
    GAUSS,
    GAUSS_PER_CM2,
    K_B,
    KILOGAUSS_PER_CM,
    constants_table,
)
from sympcool.errors import (ANGULAR_FREQUENCY, GRAVITY, AntiTrapped,
                             DomainError, RadialUnconfined)

# the two experimental field configurations used throughout the tests
G_GRADIENT = 1.0 * KILOGAUSS_PER_CM           # T/m


def _trap(B0_gauss: float) -> TrapConfig:
    # the bias-to-curvature ratio is fixed at 1 cm^2 by the coil geometry
    return TrapConfig(B0=B0_gauss * GAUSS,
                      G=G_GRADIENT,
                      C=B0_gauss * GAUSS_PER_CM2,
                      gravity=G_STANDARD)


BUFFER = SpeciesState(label="buffer", F=1, mF=-1, mass=MASS_RB87,
                      sigma_self=7e-16, sigma_cross=7e-16)
TARGET = SpeciesState(label="target", F=2, mF=2, mass=MASS_RB87,
                      sigma_self=7e-16, sigma_cross=7e-16)


def test_vertical_frequency_56g_frozen():
    """The soft sublevel in the 56 G trap oscillates at 7.56e2 rad/s."""
    f = trap_frequencies(BUFFER, _trap(56.0))
    assert f.omega_z == pytest.approx(756.2847626124884, rel=1e-12)
    assert f.omega_z == pytest.approx(7.56e2, rel=1e-3)


def test_axial_frequency_and_mean_56g_frozen():
    f = trap_frequencies(BUFFER, _trap(56.0))
    assert f.omega_x == pytest.approx(42.41851115930682, rel=1e-12)
    assert f.omega_bar == pytest.approx(289.49564890835956, rel=1e-12)


def test_frequencies_207g_frozen():
    f = trap_frequencies(BUFFER, _trap(207.0))
    assert f.omega_z == pytest.approx(385.448592096124, rel=1e-12)
    assert f.omega_x == pytest.approx(81.55424667243325, rel=1e-12)
    assert f.omega_bar == pytest.approx(229.681757463336, rel=1e-12)


def test_stiff_sublevel_is_sqrt2_steeper():
    """(F=2, mF=2) doubles the confinement energy of (F=1, mF=-1), so every
    frequency grows by exactly sqrt(2)."""
    f1 = trap_frequencies(BUFFER, _trap(56.0))
    f2 = trap_frequencies(TARGET, _trap(56.0))
    for a, b in ((f1.omega_x, f2.omega_x), (f1.omega_y, f2.omega_y),
                 (f1.omega_z, f2.omega_z), (f1.omega_bar, f2.omega_bar)):
        assert b / a == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_omega_bar_is_geometric_mean():
    f = trap_frequencies(BUFFER, _trap(56.0))
    assert f.omega_bar == pytest.approx(
        (f.omega_x * f.omega_y * f.omega_z) ** (1.0 / 3.0), rel=1e-14)


def test_sag_times_omega_z_squared_is_gravity():
    for b0 in (56.0, 207.0):
        f = trap_frequencies(BUFFER, _trap(b0))
        assert f.sag * f.omega_z ** 2 == pytest.approx(G_STANDARD, rel=1e-12)


def test_doubling_mf_scales_frequencies_and_sag():
    """Doubling mF at fixed F multiplies every frequency by sqrt(2) and
    divides the sag by 2, exactly."""
    lo = SpeciesState(label="lo", F=2, mF=1, mass=MASS_RB87,
                      sigma_self=0.0, sigma_cross=0.0)
    hi = SpeciesState(label="hi", F=2, mF=2, mass=MASS_RB87,
                      sigma_self=0.0, sigma_cross=0.0)
    flo = trap_frequencies(lo, _trap(56.0))
    fhi = trap_frequencies(hi, _trap(56.0))
    assert fhi.omega_z / flo.omega_z == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert fhi.omega_x / flo.omega_x == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert fhi.sag / flo.sag == pytest.approx(0.5, rel=1e-12)


def test_radial_scale_consistency():
    """Multiplying the net radial curvature G^2/B0 - C by k scales the
    vertical frequency by sqrt(k)."""
    base = _trap(56.0)
    curv = base.G ** 2 / base.B0 - base.C      # T/m^2
    for k in (0.25, 2.0, 9.0):
        # raise G so that the net curvature becomes exactly k * curv
        g_new = math.sqrt((k * curv + base.C) * base.B0)
        scaled = TrapConfig(B0=base.B0, G=g_new, C=base.C,
                            gravity=base.gravity)
        f0 = trap_frequencies(BUFFER, base)
        f1 = trap_frequencies(BUFFER, scaled)
        assert f1.omega_z / f0.omega_z == pytest.approx(math.sqrt(k),
                                                        rel=1e-12)


def _delta(f_buffer, f_target):
    """Centre offset of a buffer in f_buffer and a target in f_target, as
    TwoGasState.from_traps fills it."""
    return TwoGasState.from_traps(1e6, 1e4, 1e-6, 1e-6, f_buffer, f_target,
                                  MASS_RB87, MASS_RB87, 0.0).delta


def test_relative_sag_56g_frozen_and_banded():
    """The formula evaluated at the rounded field parameters lands at
    8.57 um; the measured value near 7 um is accepted within 30%."""
    f1 = trap_frequencies(BUFFER, _trap(56.0))
    f2 = trap_frequencies(TARGET, _trap(56.0))
    delta = _delta(f1, f2)
    assert delta == pytest.approx(8.572746448087147e-06, rel=1e-12)
    assert abs(delta / 7e-6 - 1.0) < 0.30


def test_relative_sag_207g_frozen_and_banded():
    f1 = trap_frequencies(BUFFER, _trap(207.0))
    f2 = trap_frequencies(TARGET, _trap(207.0))
    delta = _delta(f1, f2)
    assert delta == pytest.approx(3.3003329286074965e-05, rel=1e-12)
    assert abs(delta / 26e-6 - 1.0) < 0.30


def test_relative_sag_identity():
    """delta equals (g/omega1z^2)(1 - omega1z^2/omega2z^2) identically."""
    f1 = trap_frequencies(BUFFER, _trap(207.0))
    f2 = trap_frequencies(TARGET, _trap(207.0))
    expected = (G_STANDARD / f1.omega_z ** 2) * (1.0 - f1.omega_z ** 2
                                                 / f2.omega_z ** 2)
    assert _delta(f1, f2) == pytest.approx(expected, rel=1e-12)


def test_identical_frequencies_have_zero_sag_difference():
    f = trap_frequencies(BUFFER, _trap(56.0))
    assert _delta(f, f) == 0.0


def test_radial_unconfined_at_curvature_balance():
    """G^2/B0 == C leaves no net radial curvature."""
    b0 = 56.0 * GAUSS
    g = math.sqrt(56.0 * GAUSS_PER_CM2 * b0)
    trap = TrapConfig(B0=b0, G=g, C=56.0 * GAUSS_PER_CM2)
    with pytest.raises(RadialUnconfined):
        trap_frequencies(BUFFER, trap)


def test_anti_trapped_states_rejected():
    for F, mF in ((1, 1), (2, -1), (1, 0)):
        with pytest.raises(AntiTrapped):
            SpeciesState(label="bad", F=F, mF=mF, mass=MASS_RB87,
                         sigma_self=0.0, sigma_cross=0.0)


def test_species_validation():
    with pytest.raises(DomainError):
        SpeciesState(label="m", F=1, mF=-1, mass=0.0,
                     sigma_self=0.0, sigma_cross=0.0)
    with pytest.raises(DomainError):
        SpeciesState(label="s", F=1, mF=-1, mass=MASS_RB87,
                     sigma_self=-1e-18, sigma_cross=0.0)


def test_trap_config_validation():
    with pytest.raises(DomainError):
        TrapConfig(B0=0.0, G=10.0, C=56.0)
    with pytest.raises(DomainError):
        TrapConfig(B0=56e-4, G=0.0, C=56.0)


def test_from_axes_rejects_nonpositive_frequency():
    with pytest.raises(DomainError):
        TrapFrequencies.from_axes(0.0, 100.0, 100.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["omega_x", "omega_y", "omega_z",
                                   "gravity"])
def test_from_axes_rejects_non_finite(field, value):
    kw = dict(omega_x=100.0, omega_y=100.0, omega_z=100.0, gravity=G_STANDARD)
    with pytest.raises(DomainError, match="finite"):
        TrapFrequencies.from_axes(**{**kw, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["B0", "G", "C", "gravity"])
def test_trap_config_rejects_non_finite(field, value):
    kw = dict(B0=56 * GAUSS, G=G_GRADIENT, C=56 * GAUSS_PER_CM2)
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        TrapConfig(**{**kw, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mass", "sigma_self", "sigma_cross"])
def test_species_rejects_non_finite(field, value):
    kw = dict(label="s", F=1, mF=-1, mass=MASS_RB87, sigma_self=1e-16,
              sigma_cross=1e-16)
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        SpeciesState(**{**kw, field: value})


_RB = SpeciesState(label="rb", F=1, mF=-1, mass=MASS_RB87,
                   sigma_self=1e-16, sigma_cross=1e-16)
_F100 = TrapFrequencies.from_axes(100.0, 100.0, 100.0)


@pytest.mark.parametrize("call, name", [
    (lambda: sample_equilibrium(_RB, 10, math.nan, _F100,
                                np.random.default_rng(1)), "T"),
    (lambda: ParticleEnsemble(_RB, np.zeros((2, 3)), np.zeros((2, 3)),
                              weight=math.nan), "weight"),
    (lambda: single_species_collision_rate(math.nan, 1e-6, 100.0, 1e-16,
                                           MASS_RB87), "N"),
    (lambda: single_species_collision_rate(1e4, math.inf, 100.0, 1e-16,
                                           MASS_RB87), "T"),
    (lambda: equivalent_mass(math.nan, MASS_RB87), "M1"),
], ids=["sample_equilibrium", "ParticleEnsemble", "collision_rate_N",
        "collision_rate_T", "equivalent_mass"])
def test_non_finite_arguments_raise_naming_the_argument(call, name):
    """Each of these once returned NaN (or 0.0 for T = inf), or built an
    ensemble of NaN positions, instead of refusing its argument."""
    with pytest.raises(DomainError, match=rf"^{name} must be finite$"):
        call()


def test_from_axes_sag_and_mean():
    f = TrapFrequencies.from_axes(2 * math.pi * 80, 2 * math.pi * 100,
                                  2 * math.pi * 125, gravity=G_STANDARD)
    assert f.sag == pytest.approx(G_STANDARD / (2 * math.pi * 125) ** 2,
                                  rel=1e-14)
    assert f.omega_bar == pytest.approx(2 * math.pi * 100.0, rel=1e-12)


def test_trap_frequencies_take_axes_and_gravity_only():
    f = TrapFrequencies(100.0, 200.0, 300.0, gravity=5.0)
    assert [x.name for x in dataclasses.fields(f) if x.init] == [
        "omega_x", "omega_y", "omega_z", "gravity"]
    assert TrapFrequencies.from_axes(100.0, 200.0, 300.0, gravity=5.0) == f
    assert dataclasses.replace(f, gravity=0.0).sag == 0.0


def _old_from_axes(wx, wy, wz, g):
    """omega_bar and sag as from_axes computed them when they were fields."""
    return (wx * wy * wz) ** (1.0 / 3.0), g / wz ** 2


# inside the frequency domain, or anywhere in 1e-200..1e200
_AXIS = st.one_of(st.floats(1e-2, 1e7), st.floats(1e-200, 1e200))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(wx=_AXIS, wy=_AXIS, wz=_AXIS,
       g=st.one_of(st.floats(-1e3, 1e3),
                   st.floats(allow_nan=False, allow_infinity=False)))
def test_trap_frequencies_derive_the_old_values_or_refuse(wx, wy, wz, g):
    """Axes and a gravity inside the domain build the omega_bar and sag of
    the old expressions bit for bit; otherwise DomainError names the first
    field outside it, and never another exception."""
    fields = zip(("omega_x", "omega_y", "omega_z", "gravity"),
                 (ANGULAR_FREQUENCY,) * 3 + (GRAVITY,), (wx, wy, wz, g))
    outside = [name for name, d, v in fields if not d.low <= v <= d.high]
    if outside:
        with pytest.raises(DomainError, match=f"^{outside[0]} must lie in "):
            TrapFrequencies(wx, wy, wz, g)
    else:
        f = TrapFrequencies(wx, wy, wz, g)
        assert (f.omega_bar.hex(), f.sag.hex()) == tuple(
            v.hex() for v in _old_from_axes(wx, wy, wz, g))


@pytest.mark.parametrize("omega_z", [1e200, 1e-170])
def test_extreme_omega_z_is_domain_error_naming_it(omega_z):
    with pytest.raises(DomainError, match="^omega_z must lie in "):
        TrapFrequencies(1.0, 1.0, omega_z)


def test_boltzmann_constant_is_exact_si():
    assert K_B == 1.380649e-23


def test_constants_table_entries():
    table = constants_table()
    for key in ("k_B", "hbar", "mu_B", "amu", "mass_rb87", "mass_li6",
                "bec_threshold", "psd_prefactor", "g_standard"):
        assert key in table
        assert set(table[key]) == {"value", "unit", "source"}
    # the table is a copy, mutating it must not leak back
    table["k_B"]["value"] = 0.0
    assert constants_table()["k_B"]["value"] == K_B

