"""Every public input constructor refuses a NaN or infinite float field."""

import dataclasses
import math

import numpy as np
import pytest

from sympcool import (MASS_RB87, BudgetParams, DsmcConfig, ParticleEnsemble,
                      RateDriven, SpeciesState, TrajectoryConfig, TrapConfig,
                      TrapFrequencies, TwoGasState)
from sympcool.constants import GAUSS, GAUSS_PER_CM2, KILOGAUSS_PER_CM
from sympcool.errors import DomainError

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
# every float field of each, as annotated ("float", or "float | None")
_FIELDS = [(obj, f.name) for obj in _VALID for f in dataclasses.fields(obj)
           if f.type.split(" |")[0] == "float"]


def test_every_constructor_has_float_fields():
    assert {type(obj) for obj, _ in _FIELDS} == {type(obj) for obj in _VALID}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("obj, field", _FIELDS, ids=[
    f"{type(obj).__name__}.{field}" for obj, field in _FIELDS])
def test_non_finite_float_field_raises_domain_error(obj, field, value):
    with pytest.raises(DomainError, match=rf"\b{field} must be finite"):
        dataclasses.replace(obj, **{field: value})
