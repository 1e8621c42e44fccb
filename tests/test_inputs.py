"""Every public input constructor refuses a NaN or infinite float field,
and a NaN or infinite entry of a float array field; and a magnitude of
1e-300 or 1e300 in a field with a physical domain if it lies outside."""

import dataclasses
import math

import numpy as np
import pytest

from sympcool import (MASS_RB87, BudgetParams, DsmcConfig, ParticleEnsemble,
                      RateDriven, SpeciesState, TrajectoryConfig, TrapConfig,
                      TrapFrequencies, TwoGasState)
from sympcool.constants import GAUSS, GAUSS_PER_CM2, KILOGAUSS_PER_CM
from sympcool.errors import (ANGULAR_FREQUENCY, ATOMS, CELL_SIZE,
                             CROSS_SECTION, DURATION, ETA, GRAVITY, LENGTH,
                             MASS, PREFACTOR, TEMPERATURE, DomainError)

_F = TrapFrequencies.from_axes(628.3, 628.3, 628.3)
_RB = SpeciesState(label="rb", F=1, mF=-1, mass=MASS_RB87, sigma_self=1e-16,
                   sigma_cross=1e-16)
_ENS = ParticleEnsemble(_RB, np.zeros((2, 3)), np.zeros((2, 3)))
_STATE = TwoGasState(N1=1e4, N2=1e4, T1=1e-6, T2=1e-6, f1=_F, f2=_F,
                     M1=MASS_RB87, M2=MASS_RB87, sigma12=1e-16, delta=0.0)
_RATE = RateDriven(prefactor=2.0, sigma_self=1e-16)
# one valid instance of each public input constructor
_VALID = (
    TrapConfig(B0=56 * GAUSS, G=KILOGAUSS_PER_CM, C=56 * GAUSS_PER_CM2),
    _RB, _F,
    BudgetParams(eta=6.5, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                 omega1_bar=628.3, omega2_bar=888.6),
    _STATE,
    TrajectoryConfig(initial=_STATE, eta=6.5, evaporation_model=_RATE),
    _RATE,
    DsmcConfig(ensembles=(_ENS,), traps=(_F,), dt=1e-5, t_end=1e-3,
               cell_size=1e-6, rng_seed=1),
    _ENS)
# every float field each takes, as annotated ("float", "float | None", or
# "np.ndarray" for an array of floats)
_FIELDS = [(obj, f.name) for obj in _VALID for f in dataclasses.fields(obj)
           if f.init and f.type.split(" |")[0] in ("float", "np.ndarray")]


# the domain of each ranged field; the others (B0, G, C, bec_threshold,
# weight and the particle arrays) only need to be finite and positive
_DOMAINS = {
    "N1": ATOMS, "N2": ATOMS, "N1_ini": ATOMS,
    "T1": TEMPERATURE, "T2": TEMPERATURE, "T_ini": TEMPERATURE,
    "omega_x": ANGULAR_FREQUENCY, "omega_y": ANGULAR_FREQUENCY,
    "omega_z": ANGULAR_FREQUENCY, "omega1_bar": ANGULAR_FREQUENCY,
    "omega2_bar": ANGULAR_FREQUENCY,
    "mass": MASS, "M1": MASS, "M2": MASS,
    "sigma_self": CROSS_SECTION, "sigma_cross": CROSS_SECTION,
    "sigma12": CROSS_SECTION, "delta": LENGTH, "gravity": GRAVITY,
    "eta": ETA, "psd_prefactor": PREFACTOR, "prefactor": PREFACTOR,
    "t_end": DURATION, "dt_max": DURATION, "dt": DURATION,
    "cell_size": CELL_SIZE}


def test_every_constructor_has_float_fields():
    assert {type(obj) for obj, _ in _FIELDS} == {type(obj) for obj in _VALID}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e-300,
                                   1e300])
@pytest.mark.parametrize("obj, field", _FIELDS, ids=[
    f"{type(obj).__name__}.{field}" for obj, field in _FIELDS])
def test_non_finite_float_field_raises_domain_error(obj, field, value):
    """A magnitude inside a field's domain, or in a field without one, is
    accepted."""
    if isinstance(getattr(obj, field), np.ndarray):
        array = getattr(obj, field).copy()
        array[1, 2] = value         # one bad entry
        value = array
    if np.isfinite(value).all():
        d = _DOMAINS.get(field)
        if d is None or d.low <= value <= d.high:
            dataclasses.replace(obj, **{field: value})
            return
        message = rf"\b{field} must lie in "
    else:
        message = rf"\b{field} must be finite"
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(obj, **{field: value})
