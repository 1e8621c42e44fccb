"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Every test prints "CRITERION n PASS/FAIL: ..." before asserting, so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.  The
DSMC-backed criteria (4, 5, 6) run the kinetic Monte Carlo oracle at
reduced desk scale: the legs the selected criteria read run once, on up
to two processes, and the tests share them through a module-scope
fixture; expect a few minutes of wall time for the full file.
"""

import functools
import math
import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from sympcool import (
    MASS_RB87,
    BudgetParams,
    DsmcConfig,
    RampDriven,
    RateDriven,
    SpeciesState,
    TrajectoryConfig,
    TrapConfig,
    TrapFrequencies,
    TwoGasState,
    buffer_psd_max,
    critical_numbers,
    equal_psd,
    fit_relaxation,
    interspecies_collision_rate,
    interspecies_thermalization_rate,
    overlap_factor,
    psd_curves,
    run,
    sample_equilibrium,
    simulate_with_audit,
    single_species_collision_rate,
    trap_frequencies,
)
from sympcool.constants import G_STANDARD, K_B
from sympcool.errors import CellUnderflowWarning

pytestmark = [
    pytest.mark.acceptance,
    pytest.mark.filterwarnings("ignore::sympcool.errors.CellUnderflowWarning")]

SIG = 1.4e-15
AXES = (2 * math.pi * 80, 2 * math.pi * 100, 2 * math.pi * 125)
F0 = TrapFrequencies.from_axes(*AXES, gravity=0.0)


def report(n, ok, detail):
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _species(label, ss, sc, mass=MASS_RB87):
    return SpeciesState(label=label, F=1, mF=-1, mass=mass,
                        sigma_self=ss, sigma_cross=sc)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 1]))


# --------------------------------------------------- 1: regime boundaries

def test_criterion_1_regime_boundary_ratios():
    """Critical buffer-reservoir sizes against the measured boundary dots
    (0.15 and 0.40 of the no-condensation threshold) at eta = 6.5 and a
    sqrt(2) stiffer target trap."""
    w1 = 2 * math.pi * 100.0
    p = BudgetParams(eta=6.5, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                     omega1_bar=w1, omega2_bar=w1 * math.sqrt(2))
    t0 = time.perf_counter()
    n2a, n2b, n2c = critical_numbers(p)
    elapsed = time.perf_counter() - t0
    ra, rb = n2a / n2c, n2b / n2c
    ok = (abs(ra / 0.15 - 1) <= 0.25 and abs(rb / 0.40 - 1) <= 0.25
          and elapsed < 1.0)
    assert report(1, ok,
                  f"N2a/N2c={ra:.4f} vs 0.15 ({abs(ra / 0.15 - 1) * 100:.1f}%"
                  f" off), N2b/N2c={rb:.4f} vs 0.40 "
                  f"({abs(rb / 0.40 - 1) * 100:.1f}% off), both within 25%; "
                  f"{elapsed * 1e3:.1f} ms")


# ------------------------------------- 2: closed forms vs numeric extrema

def test_criterion_2_closed_forms_match_brute_force():
    """Peak location/height and curve crossing from the closed forms agree
    with direct numeric maximization/bisection of the cooling path to
    relative 1e-9 over 1000 randomized parameter sets."""
    rng = np.random.Generator(np.random.Philox(key=20260818))
    t0 = time.perf_counter()
    worst = 0.0
    peaks = 0
    for _ in range(1000):
        eta = rng.uniform(2.5, 12.0)
        ratio = rng.uniform(0.5, 2.0)
        n1_ini = 10 ** rng.uniform(6.0, 9.0)
        t_ini = 10 ** rng.uniform(-5.0, -3.0)
        w1 = 2 * math.pi * rng.uniform(20.0, 300.0)
        alpha = (eta - 2.0) / 3.0
        hi = min(0.3 / ratio ** 3, 0.5)
        if 3 * alpha > 1.001:
            hi = min(hi, 0.5 * (3 * alpha - 1))
        n2 = n1_ini * 10 ** rng.uniform(-5.0, math.log10(hi))
        p = BudgetParams(eta=eta, N1_ini=n1_ini, N2=n2, T_ini=t_ini,
                         omega1_bar=w1, omega2_bar=w1 * ratio)

        def logd1(x):
            return math.log(psd_curves(math.exp(x), p)[0])

        def gap(x):
            d1, d2 = psd_curves(math.exp(x), p)
            return math.log(d1) - math.log(d2)

        xc0 = math.log(n2 * ratio ** 3)
        xc = brentq(gap, xc0 - 2.0, min(xc0 + 2.0, math.log(n1_ini)),
                    xtol=1e-14, rtol=8.9e-16)
        worst = max(worst,
                    abs(math.exp(xc) / (n2 * ratio ** 3) - 1.0),
                    abs(psd_curves(math.exp(xc), p)[0] / equal_psd(p) - 1.0))

        if 3 * alpha > 1.001:
            peaks += 1
            n1pk, d1max = buffer_psd_max(p)
            h = 1e-4

            def dlog(x):
                return (logd1(x - 2 * h) - 8 * logd1(x - h)
                        + 8 * logd1(x + h) - logd1(x + 2 * h))

            xp0 = math.log(n1pk)
            xp = brentq(dlog, xp0 - 0.5,
                        min(xp0 + 0.5, math.log(n1_ini) - 4 * h),
                        xtol=1e-14, rtol=8.9e-16)
            worst = max(worst,
                        abs(math.exp(xp) / n1pk - 1.0),
                        abs(psd_curves(n1pk, p)[0] / d1max - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(2, ok,
                  f"worst relative gap {worst:.3e} <= 1e-9 over 1000 sets "
                  f"({peaks} with interior peaks); {elapsed:.2f} s")


# ------------------------------------------------- 3: geometric reduction

def _offset_state(delta_um, rho_um, T=400e-9):
    w_z = math.sqrt(2 * K_B * T / MASS_RB87) / (rho_um * 1e-6)
    f = TrapFrequencies.from_axes(w_z, w_z, w_z, gravity=0.0)
    return TwoGasState(N1=1e6, N2=1e4, T1=T, T2=T, f1=f, f2=f,
                       M1=MASS_RB87, M2=MASS_RB87, sigma12=2e-15,
                       delta=delta_um * 1e-6)


def test_criterion_3_overlap_and_rate_reduction():
    """Gaussian overlap of sag-split clouds: ~0.096 at (26 um, 12 um) and
    a ~30% collision-rate reduction at (7 um, 8 um)."""
    ov = overlap_factor(_offset_state(26.0, 12.0))
    far = _offset_state(7.0, 8.0)
    near = _offset_state(0.0, 8.0)
    red = 1.0 - (interspecies_collision_rate(far)
                 / interspecies_collision_rate(near))
    ok = abs(ov - 0.096) <= 0.005 and abs(red - 0.30) <= 0.03
    assert report(3, ok,
                  f"overlap={ov:.4f} (0.096 +- 0.005), "
                  f"rate reduction={red * 100:.1f}% (30 +- 3%)")


# ------------------------------------ the DSMC legs of criteria 4, 5b, 6

MASS_RATIO = 14.5
# same magnetic trap: stiffness scales as 1/sqrt(mass)
F_LI = TrapFrequencies.from_axes(*(w * math.sqrt(MASS_RATIO) for w in AXES),
                                 gravity=0.0)
# the clouds split vertically by 2.15 pair widths
DELTA = 2.15 * (math.sqrt(K_B * (1.3e-6 + 0.7e-6) / MASS_RB87) / AXES[2])
F_OFF = TrapFrequencies.from_axes(*AXES, gravity=DELTA * AXES[2] ** 2)


def _tagged_config(seed):
    """Two tagged halves at 1.0 +- 0.15 uK: 2e4 test particles per tag,
    uniform cross sections, so the pair is a single species split into
    hot and cold labels."""
    rng = _rng(seed)
    e1 = sample_equilibrium(_species("hot", SIG, SIG), 20000, 1.15e-6, F0,
                            rng)
    e2 = sample_equilibrium(_species("cold", SIG, SIG), 20000, 0.85e-6, F0,
                            rng)
    return DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                      t_end=2.2, cell_size=2.4e-6, rng_seed=seed,
                      record_every=20)


def _pair_config(seed, traps, t_end, dt, record_every, m2=MASS_RB87,
                 labels=("a", "b")):
    """Rb at 1.3 uK against a partner of mass m2 at 0.7 uK, 1e4 test
    particles each, sigma12 = 8 sigma_self / 2."""
    rng = _rng(seed)
    e1 = sample_equilibrium(_species(labels[0], 4 * SIG, 8 * SIG), 10000,
                            1.3e-6, traps[0], rng)
    e2 = sample_equilibrium(_species(labels[1], 4 * SIG, 8 * SIG, mass=m2),
                            10000, 0.7e-6, traps[1], rng)
    return DsmcConfig(ensembles=(e1, e2), traps=traps, dt=dt, t_end=t_end,
                      cell_size=2.4e-6, rng_seed=seed,
                      record_every=record_every)


TAGGED_SEEDS = range(11, 19)

# every DSMC leg, longest first: criterion 4's eight tagged seeds; the
# equal-mass "centred" pair, shared by 5b and 6; and the "offset" and
# "mass_ratio" legs of 5b and 6
_LEGS = {
    **{("tagged", seed): functools.partial(_tagged_config, seed)
       for seed in TAGGED_SEEDS},
    "offset": lambda: _pair_config(32, (F_OFF, F0), 3.5, 3.2e-4, 20),
    "mass_ratio": lambda: _pair_config(41, (F0, F_LI), 0.8, 1.0e-4, 16,
                                       m2=MASS_RB87 / MASS_RATIO,
                                       labels=("heavy", "light")),
    "centred": lambda: _pair_config(31, (F0, F0), 0.5, 3.2e-4, 5),
}

# the legs each DSMC criterion reads
_LEGS_OF = {
    "test_criterion_4_single_species_thermalization_rate":
        [("tagged", seed) for seed in TAGGED_SEEDS],
    "test_criterion_5a_two_species_rate_matches_contact_model":
        [("tagged", seed) for seed in TAGGED_SEEDS],
    "test_criterion_5b_offset_suppression": ["centred", "offset"],
    "test_criterion_6_equivalent_mass_suppression": ["centred", "mass_ratio"],
}


def _run_leg(cfg):
    """One DSMC run in a pool worker, returned with the warnings it raised
    other than CellUnderflowWarning, which this module ignores."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", CellUnderflowWarning)
        res = run(cfg)
    return res, [(str(w.message), w.category, w.filename, w.lineno)
                 for w in caught]


@pytest.fixture(scope="module")
def dsmc_runs(request):
    """The DSMC legs that the selected criteria read, by name, run once
    through one pool of min(2, cpu count) processes.

    Each run depends on its config alone, so the results equal those of
    running the legs one by one.  Warnings the workers caught are raised
    again here, where pytest reports them.
    """
    wanted = {leg for item in request.session.items
              for leg in _LEGS_OF.get(item.name, ())}
    legs = {name: build() for name, build in _LEGS.items()
            if name in wanted}
    workers = min(2, os.cpu_count() or 1, len(legs))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        done = pool.map(_run_leg, legs.values(), chunksize=1)
    for _, caught in done:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
    return {name: res for name, (res, _) in zip(legs, done)}


# --------------------------------------------- 4 & 5a: shared tagged runs

def _tagged_runs(runs):
    """Criterion 4's eight seeded relaxation runs of two tagged halves.

    Returns the analytic mean-rate bar and per-seed (fitted rate, realized
    full-series e-folds).
    """
    analytic = single_species_collision_rate(
        2 * 20000, 1.0e-6, F0.omega_bar, SIG, MASS_RB87) / 3.0
    fits = []
    for seed in TAGGED_SEEDS:
        res = runs[("tagged", seed)]
        d = res.temps[:, 0] - res.temps[:, 1]
        efolds = math.log(abs(d[0]) / float(np.median(np.abs(d[-5:]))))
        window = res.times <= 3.0 / analytic
        rate, _ = fit_relaxation(res.times[window], d[window])
        fits.append((rate, efolds))
    return analytic, fits


def test_criterion_4_single_species_thermalization_rate(dsmc_runs):
    """Tagged-subsample relaxation rate within 15% of one third of the
    mean per-atom collision rate, 8 seeds, >= 3 e-folds of decay each."""
    analytic, fits = _tagged_runs(dsmc_runs)
    rates = np.array([r for r, _ in fits])
    efolds = np.array([e for _, e in fits])
    mean_ratio = float(np.mean(rates)) / analytic
    ok = abs(mean_ratio - 1.0) <= 0.15 and bool(np.all(efolds >= 3.0))
    assert report(4, ok,
                  f"mean fitted/analytic={mean_ratio:.3f} over 8 seeds "
                  f"(band 0.85..1.15), per-seed ratios "
                  f"[{rates.min() / analytic:.3f}..{rates.max() / analytic:.3f}],"
                  f" e-folds >= {efolds.min():.2f}")


def test_criterion_5a_two_species_rate_matches_contact_model(dsmc_runs):
    """The same runs read as a two-species pair: fitted rate within 20% of
    the interspecies thermal-contact prediction."""
    analytic, fits = _tagged_runs(dsmc_runs)
    state = TwoGasState(N1=20000, N2=20000, T1=1.15e-6, T2=0.85e-6,
                        f1=F0, f2=F0, M1=MASS_RB87, M2=MASS_RB87,
                        sigma12=SIG, delta=0.0)
    bar = interspecies_thermalization_rate(state)
    mean_ratio = float(np.mean([r for r, _ in fits])) / bar
    ok = abs(mean_ratio - 1.0) <= 0.20
    assert report("5a", ok,
                  f"mean fitted/analytic={mean_ratio:.3f} "
                  f"(band 0.80..1.20, analytic={bar:.3f}/s)")


# --------------------------------------------- 5b & 6: offset and masses

def _fit_windowed(res, analytic):
    d = res.temps[:, 0] - res.temps[:, 1]
    window = res.times <= 3.0 / analytic
    rate, _ = fit_relaxation(res.times[window], d[window])
    return rate


def _xi_measured(res, rate, n1, n2):
    pair_rate = res.channel_collisions[(0, 1)] / float(res.times[-1])
    return rate * 3.0 * n1 * n2 / ((n1 + n2) * pair_rate)


def test_criterion_5b_offset_suppression(dsmc_runs):
    """Separating the clouds by 2.15 pair widths must suppress the fitted
    rate by the Gaussian factor ~0.1 (50% band, statistics-limited)."""
    st = TwoGasState(N1=10000, N2=10000, T1=1.3e-6, T2=0.7e-6, f1=F0,
                     f2=F0, M1=MASS_RB87, M2=MASS_RB87, sigma12=8 * SIG,
                     delta=0.0)
    an_cen = interspecies_thermalization_rate(st)
    rate_cen = _fit_windowed(dsmc_runs["centred"], an_cen)
    ok_cen = abs(rate_cen / an_cen - 1.0) <= 0.20

    factor = math.exp(-2.15 ** 2 / 2)
    rate_off = _fit_windowed(dsmc_runs["offset"], an_cen * factor)
    supp = rate_off / rate_cen
    ok = ok_cen and abs(supp / factor - 1.0) <= 0.50
    assert report("5b", ok,
                  f"centered fitted/analytic={rate_cen / an_cen:.3f} "
                  f"(20% band); suppression={supp:.4f} vs "
                  f"exp(-2.15^2/2)={factor:.4f}, off by "
                  f"{abs(supp / factor - 1) * 100:.0f}% (50% band)")


def test_criterion_6_equivalent_mass_suppression(dsmc_runs):
    """Mass ratio 14.5: the collision-normalized rate ratio between the
    unequal-mass and equal-mass pairs must match the equivalent-mass
    closed form 8 (M1 M2)^2 / (M1+M2)^3 / M1 within 25%."""
    ratio = MASS_RATIO
    m2 = MASS_RB87 / ratio
    st_a = TwoGasState(N1=10000, N2=10000, T1=1.3e-6, T2=0.7e-6, f1=F0,
                       f2=F0, M1=MASS_RB87, M2=MASS_RB87, sigma12=8 * SIG,
                       delta=0.0)
    res_a = dsmc_runs["centred"]
    rate_a = _fit_windowed(res_a, interspecies_thermalization_rate(st_a))
    xi_a = _xi_measured(res_a, rate_a, 10000, 10000)

    st_b = TwoGasState(N1=10000, N2=10000, T1=1.3e-6, T2=0.7e-6, f1=F0,
                       f2=F_LI, M1=MASS_RB87, M2=m2, sigma12=8 * SIG,
                       delta=0.0)
    res_b = dsmc_runs["mass_ratio"]
    rate_b = _fit_windowed(res_b, interspecies_thermalization_rate(st_b))
    xi_b = _xi_measured(res_b, rate_b, 10000, 10000)

    mu_a = MASS_RB87 / 2.0
    mu_b = MASS_RB87 * m2 / (MASS_RB87 + m2)
    measured = (xi_b * mu_b) / (xi_a * mu_a)
    ideal = 8.0 * ratio / (1.0 + ratio) ** 3
    ok = abs(measured / ideal - 1.0) <= 0.25
    assert report(6, ok,
                  f"equivalent-mass fraction measured={measured:.5f} vs "
                  f"closed form {ideal:.5f}, off by "
                  f"{abs(measured / ideal - 1) * 100:.1f}% (25% band)")


# ------------------------------------------------ 7: stall phenomenology

def _leg(b0_gauss, n2, stop):
    trap = TrapConfig(B0=b0_gauss * 1e-4, G=10.0, C=b0_gauss * 1.0,
                      gravity=G_STANDARD)
    buffer = SpeciesState(label="buffer", F=1, mF=-1, mass=MASS_RB87,
                          sigma_self=7e-16, sigma_cross=2e-17)
    target = SpeciesState(label="target", F=2, mF=2, mass=MASS_RB87,
                          sigma_self=7e-16, sigma_cross=2e-17)
    f1 = trap_frequencies(buffer, trap)
    f2 = trap_frequencies(target, trap)
    sigma12 = 2e-17 if b0_gauss > 100 else 7e-16
    state = TwoGasState.from_traps(1e7, n2, 10e-6, 10e-6, f1, f2,
                                   MASS_RB87, MASS_RB87, sigma12)
    cfg = TrajectoryConfig(
        initial=state, eta=6.5,
        evaporation_model=RateDriven(prefactor=1.0, sigma_self=7e-16),
        contact_mode="finite", t_end=600.0, dt_max=0.1,
        stop_at_threshold=stop)
    return simulate_with_audit(cfg)[0]


def test_criterion_7_stall_vs_completion():
    """Weak-coupling geometry (207 G, large sag split) stalls with the
    target stuck at a few hundred nK; strong-coupling geometry (56 G)
    condenses the target without ever stalling."""
    pts = _leg(207.0, 1e5, stop=False)
    stall_idx = next((i for i, p in enumerate(pts) if p.stalled), None)
    stalled = stall_idx is not None
    latched = stalled and all(p.stalled for p in pts[stall_idx:])
    t2_stall = pts[stall_idx].T2 if stalled else math.nan
    end = pts[-1]
    creep = abs(end.T2 - t2_stall) / t2_stall if stalled else math.nan
    ok_stall = (latched and 200e-9 <= t2_stall <= 600e-9
                and 200e-9 <= end.T2 <= 600e-9 and creep < 0.10
                and end.T1 < 0.25 * end.T2 and not end.bec2)

    pts56 = _leg(56.0, 5.636e5, stop=True)
    end56 = pts56[-1]
    ok_56 = (end56.bec2 and end56.D2 >= 2.612 * (1 - 1e-9)
             and not any(p.stalled for p in pts56)
             and not end56.bec1)
    ok = ok_stall and ok_56
    assert report(7, ok,
                  f"207 G: latched stall at T2={t2_stall / 1e-9:.0f} nK "
                  f"(band 200..600), creep {creep * 100:.1f}%, buffer runs "
                  f"{'cold' if ok_stall else 'warm'}; 56 G: target "
                  f"condenses at D2={end56.D2:.3f} with no stall")


# -------------------------------------------- 8: instant mode closed form

def test_criterion_8_instant_mode_on_closed_form():
    """For arbitrary evaporation schedules, instant-contact trajectories
    must lie on T(N1) = T_min (N1/N2 + 1)^alpha to relative 1e-6."""
    rng = np.random.Generator(np.random.Philox(key=8))
    f = TrapFrequencies.from_axes(*AXES, gravity=0.0)
    worst = 0.0
    for _ in range(100):
        n1_ini = 10 ** rng.uniform(5.5, 7.5)
        n2 = n1_ini * 10 ** rng.uniform(-3.0, -1.0)
        t_ini = 10 ** rng.uniform(-6.0, -4.5)
        eta = rng.uniform(4.0, 10.0)
        knots = rng.integers(3, 9)
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 10.0,
                                                             knots))))
        numbers = n1_ini * np.concatenate(
            ([1.0], np.cumprod(rng.uniform(0.3, 0.95, knots))))
        state = TwoGasState(N1=n1_ini, N2=n2, T1=t_ini, T2=t_ini, f1=f,
                            f2=f, M1=MASS_RB87, M2=MASS_RB87,
                            sigma12=2e-15, delta=0.0)
        cfg = TrajectoryConfig(
            initial=state, eta=eta,
            evaporation_model=RampDriven(times=tuple(times),
                                         numbers=tuple(numbers)),
            contact_mode="instant", t_end=float(times[-1]) + 1.0,
            dt_max=0.25)
        pts = simulate_with_audit(cfg)[0]
        p = BudgetParams(eta=eta, N1_ini=n1_ini, N2=n2, T_ini=t_ini,
                         omega1_bar=f.omega_bar, omega2_bar=f.omega_bar)
        for pt in pts:
            law = p.T_min * (pt.N1 / n2 + 1.0) ** p.alpha
            worst = max(worst, abs(pt.T1 / law - 1.0),
                        abs(pt.T2 / law - 1.0))
    ok = worst <= 1e-6
    assert report(8, ok,
                  f"worst relative deviation {worst:.3e} <= 1e-6 over 100 "
                  f"random evaporation schedules")
