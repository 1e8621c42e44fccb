"""The physical input domain of errors against the closed forms.

Inside the domain every public constructor and every closed form of
physics, contact and budget returns finite numbers or raises a
SympcoolError, with warnings raised as errors; one value outside its
range, anywhere in 1e-300..1e300, is a DomainError naming its field."""

import itertools
import math
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sympcool import (
    BudgetParams,
    CoolingOutcome,
    RateDriven,
    SpeciesState,
    TrajectoryConfig,
    TrapConfig,
    TrapFrequencies,
    TwoGasState,
    buffer_psd_max,
    classify,
    critical_numbers,
    energy_exchange_rate,
    equal_psd,
    equivalent_mass,
    interspecies_collision_rate,
    interspecies_thermalization_rate,
    overlap_factor,
    phase_diagram,
    phase_space_density,
    psd_curves,
    rms_sizes,
    single_species_collision_rate,
    target_psd_max,
    temperature_of,
    transfer_efficiency,
    trap_frequencies,
)
from sympcool.errors import (ANGULAR_FREQUENCY, ATOMS, CROSS_SECTION,
                             DURATION, ETA, FREQUENCY_RATIO, GRAVITY, LENGTH,
                             MASS, PREFACTOR, TEMPERATURE, DomainError, Range,
                             SympcoolError)

# a positive input without a range: B0, G and C, N2 / N2_c of a cell
_ANY = Range(1e-300, 1e300, "")
_UNIT = Range(0.0, 1.0, "")     # a fraction of the ramp, N1 / N1_ini
_AXES = ("omega_x", "omega_y", "omega_z")


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda u: min(max(10.0 ** u, low), high))


def _inside(d: Range):
    """Values of d, log-uniform in magnitude; 0 where d starts at 0, either
    sign where it is symmetric about 0."""
    if d is _UNIT:
        return st.floats(0.0, 1.0)
    if d.low > 0:
        return _log_uniform(d.low, d.high)
    magnitude = st.one_of(st.just(0.0), _log_uniform(1e-300, d.high))
    if d.low == 0:
        return magnitude
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(
        lambda sv: sv[0] * sv[1])


def _outside(d: Range):
    """Values in +-(1e-300..1e300) outside d."""
    return st.tuples(st.sampled_from((-1.0, 1.0)),
                     _log_uniform(1e-300, 1e300)).map(
        lambda sv: sv[0] * sv[1]).filter(lambda v: not d.low <= v <= d.high)


def _state(kw):
    f1, f2 = (TrapFrequencies(*(kw[f"{f}.omega_x"],) * 3,
                              gravity=kw[f"{f}.gravity"])
              for f in ("f1", "f2"))
    return TwoGasState(N1=kw["N1"], N2=kw["N2"], T1=kw["T1"], T2=kw["T2"],
                       f1=f1, f2=f2, M1=kw["M1"], M2=kw["M2"],
                       sigma12=kw["sigma12"], delta=kw["delta"])


def _contact(kw):
    s = _state(kw)
    return [lambda: TwoGasState.from_traps(s.N1, s.N2, s.T1, s.T2, s.f1, s.f2,
                                           s.M1, s.M2, s.sigma12),
            *(lambda rate=rate: rate(s) for rate in (
                rms_sizes, overlap_factor, interspecies_collision_rate,
                energy_exchange_rate, interspecies_thermalization_rate))]


def _budget(kw):
    p = BudgetParams(**{k: v for k, v in kw.items() if k != "x"})
    n1 = kw["x"] * p.N1_ini
    return [lambda: (p.alpha, p.T_min), lambda: temperature_of(n1, p),
            lambda: psd_curves(n1, p), lambda: target_psd_max(p),
            lambda: buffer_psd_max(p), lambda: equal_psd(p),
            lambda: critical_numbers(p), lambda: classify(p.N2, p)]


def _trajectory(kw):
    s = TwoGasState(N1=1e6, N2=1e4, T1=1e-6, T2=1e-6,
                    f1=TrapFrequencies(600.0, 600.0, 600.0),
                    f2=TrapFrequencies(600.0, 600.0, 600.0),
                    M1=1.4e-25, M2=1.4e-25, sigma12=1e-15, delta=0.0)
    model = RateDriven(prefactor=kw["prefactor"], sigma_self=kw["sigma_self"])
    return [lambda: TrajectoryConfig(
        initial=s, eta=kw["eta"], evaporation_model=model, t_end=kw["t_end"],
        dt_max=kw["dt_max"], psd_prefactor=kw["psd_prefactor"])]


# name: (fields {name: (domain, value the other draws keep)}, the calls of
# one draw); a field "f1.omega_x" is named omega_x in messages, and sets
# all three axes of f1: the pair rates are monotone in each axis, so an
# isotropic trap reaches their extremes
_TARGETS = {
    "species": ({"mass": (MASS, 1.4e-25), "sigma_self": (CROSS_SECTION, 0.0),
                 "sigma_cross": (CROSS_SECTION, 0.0)},
                lambda kw: [lambda: SpeciesState("a", 1, -1, **kw)]),
    "trap_frequencies": (
        {"mass": (MASS, 1.4e-25), "B0": (_ANY, 5.6e-3), "G": (_ANY, 10.0),
         "C": (_ANY, 56.0), "gravity": (GRAVITY, 9.8)},
        lambda kw: [lambda: trap_frequencies(
            SpeciesState("a", 1, -1, kw["mass"], 0.0, 0.0),
            TrapConfig(kw["B0"], kw["G"], kw["C"], kw["gravity"]))]),
    "axes": ({**{a: (ANGULAR_FREQUENCY, 600.0) for a in _AXES},
              "gravity": (GRAVITY, 9.8)},
             lambda kw: [lambda: TrapFrequencies(**kw)]),
    "contact": ({"N1": (ATOMS, 1e6), "N2": (ATOMS, 1e4),
                 "T1": (TEMPERATURE, 1e-6), "T2": (TEMPERATURE, 1e-6),
                 "M1": (MASS, 1.4e-25), "M2": (MASS, 1.4e-25),
                 "sigma12": (CROSS_SECTION, 1e-15), "delta": (LENGTH, 0.0),
                 "f1.omega_x": (ANGULAR_FREQUENCY, 600.0),
                 "f2.omega_x": (ANGULAR_FREQUENCY, 600.0),
                 "f1.gravity": (GRAVITY, 9.8), "f2.gravity": (GRAVITY, 9.8)},
                _contact),
    "self_rate": ({"N": (ATOMS, 1e6), "T": (TEMPERATURE, 1e-6),
                   "omega_bar": (ANGULAR_FREQUENCY, 600.0),
                   "sigma": (CROSS_SECTION, 1e-15), "mass": (MASS, 1.4e-25)},
                  lambda kw: [lambda: single_species_collision_rate(**kw)]),
    "masses": ({"M1": (MASS, 1.4e-25), "M2": (MASS, 1e-26)},
               lambda kw: [lambda: transfer_efficiency(**kw),
                           lambda: equivalent_mass(**kw)]),
    "budget": ({"eta": (ETA, 6.5), "N1_ini": (ATOMS, 1e8), "N2": (ATOMS, 1e4),
                "T_ini": (TEMPERATURE, 3e-4),
                "omega1_bar": (ANGULAR_FREQUENCY, 628.3),
                "omega2_bar": (ANGULAR_FREQUENCY, 888.6),
                "psd_prefactor": (PREFACTOR, 2.17), "x": (_UNIT, 0.5)},
               _budget),
    "psd": ({"N": (Range(0.0, ATOMS.high, ""), 1e4),
             "T": (TEMPERATURE, 1e-6),
             "omega_bar": (ANGULAR_FREQUENCY, 600.0)},
            lambda kw: [lambda: phase_space_density(**kw)]),
    "phase_diagram": ({"eta": (ETA, 6.5), "r": (_ANY, 1.0),
                       "trap_ratio": (FREQUENCY_RATIO, 1.4)},
                      lambda kw: [lambda: phase_diagram(
                          [kw["eta"]], [kw["r"]], kw["trap_ratio"])]),
    "trajectory": ({"eta": (ETA, 6.5), "t_end": (DURATION, 1.0),
                    "dt_max": (DURATION, 0.1),
                    "psd_prefactor": (PREFACTOR, 2.17),
                    "prefactor": (PREFACTOR, 1.0),
                    "sigma_self": (CROSS_SECTION, 1e-15)}, _trajectory),
}


def _numbers(x):
    """Every float in a result, through tuples, lists, dicts and a
    CoolingOutcome; D_equal and a diagram's boundary ratios may be NaN
    by design, so NaN is left to the caller."""
    if isinstance(x, CoolingOutcome):
        x = (x.D1_max, x.D2_max, x.D_equal, x.N1_at_buffer_peak)
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        for item in x:
            yield from _numbers(item)
    elif isinstance(x, float):
        yield x


def _check(name, kw):
    """Every call of target name at the values kw returns finite numbers
    (NaN where by design) or raises a SympcoolError, warnings as errors."""
    calls = _TARGETS[name][1]
    if name == "budget":        # BudgetParams needs N1_ini > N2
        kw["N2"], kw["N1_ini"] = sorted((kw["N2"], kw["N1_ini"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            built = calls(kw)
        except SympcoolError:
            return
        for call in built:
            try:
                result = call()
            except SympcoolError:
                continue
            for v in _numbers(result):
                assert not math.isinf(v), (name, kw)
                assert not math.isnan(v) or name in ("budget",
                                                     "phase_diagram")


@settings(max_examples=100)
@pytest.mark.parametrize("name", sorted(_TARGETS))
@given(data=st.data())
def test_inside_the_domain_every_call_is_finite_or_refused(name, data):
    fields, _ = _TARGETS[name]
    _check(name, {f: data.draw(_inside(d), label=f)
                  for f, (d, _) in fields.items()})


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_every_corner_of_the_domain_is_finite_or_refused(name):
    """The closed forms are powers and exponentials, monotone in each
    input away from eta = 3, so their extremes lie on the corners of the
    domain: each corner, every field at an end of its range."""
    fields, _ = _TARGETS[name]
    ends = [(0.0, 1.0) if d is _UNIT else (d.low, d.high)
            for d, _ in fields.values()]
    for values in itertools.product(*ends):
        _check(name, dict(zip(fields, values)))


_RANGED = [(name, field) for name, (fields, _) in sorted(_TARGETS.items())
           for field, (d, _) in fields.items() if d not in (_ANY, _UNIT)]


@settings(max_examples=5)
@pytest.mark.parametrize("name, field", _RANGED,
                         ids=[f"{n}.{f}" for n, f in _RANGED])
@given(data=st.data())
def test_one_value_outside_its_range_is_refused_by_name(name, field, data):
    fields, calls = _TARGETS[name]
    kw = {f: base for f, (_, base) in fields.items()}
    kw[field] = data.draw(_outside(fields[field][0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"\b{field.split('.')[-1]}\b"):
            for call in calls(kw):
                call()
