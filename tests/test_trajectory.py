"""Cooling trajectories: both contact modes, events, and bookkeeping."""

import hashlib
import math
import pickle
from dataclasses import FrozenInstanceError, astuple, fields, replace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import solve_ivp

from sympcool import (
    MASS_LI6,
    MASS_RB87,
    BudgetParams,
    RampDriven,
    RateDriven,
    Region,
    SpeciesState,
    TrajectoryConfig,
    TrajectoryPoint,
    TrapConfig,
    TrapFrequencies,
    TwoGasState,
    classify,
    critical_numbers,
    detect_events,
    interspecies_thermalization_rate,
    region_from_events,
    rms_sizes,
    simulate_with_audit,
    single_species_collision_rate,
    trap_frequencies,
)
from sympcool import trajectory
from sympcool.budget import _psd
from sympcool.constants import AMU, G_STANDARD, HBAR, K_B
from sympcool.contact import _pair_rates, _self_rate, transfer_efficiency
from sympcool.errors import DomainError, StepFailure, SympcoolError
from sympcool.trajectory import N1_FLOOR, _sample_grid, region_of_events

SIG = 1.4e-15
F0 = TrapFrequencies.from_axes(2 * math.pi * 80, 2 * math.pi * 100,
                               2 * math.pi * 125, gravity=0.0)


def _state(N1=1e4, N2=1e4, T1=1.2e-6, T2=0.8e-6, sigma=SIG, delta=0.0,
           f1=F0, f2=F0):
    return TwoGasState(N1=N1, N2=N2, T1=T1, T2=T2, f1=f1, f2=f2,
                       M1=MASS_RB87, M2=MASS_RB87, sigma12=sigma, delta=delta)


def _hold(state, t_end, **kw):
    """No evaporation: a flat two-knot ramp pinned at the initial N1."""
    ramp = RampDriven(times=(0.0, t_end), numbers=(state.N1, state.N1))
    return TrajectoryConfig(initial=state, eta=6.5, evaporation_model=ramp,
                            t_end=t_end, **kw)


# ---------------------------------------------------------------- validation

def test_config_validation():
    s = _state()
    ramp = RampDriven(times=(0.0, 1.0), numbers=(s.N1, 0.0))
    with pytest.raises(DomainError):
        TrajectoryConfig(initial=s, eta=2.0, evaporation_model=ramp)
    with pytest.raises(DomainError):
        TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                         contact_mode="telepathic")
    with pytest.raises(DomainError):
        TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                         t_end=0.0)
    # instant contact starts from a common temperature by construction
    with pytest.raises(DomainError):
        TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                         contact_mode="instant")
    # the ramp must begin at the state's buffer number
    bad = RampDriven(times=(0.0, 1.0), numbers=(2 * s.N1, 0.0))
    with pytest.raises(DomainError):
        TrajectoryConfig(initial=s, eta=6.5, evaporation_model=bad)


def test_ramp_validation_and_interpolation():
    with pytest.raises(DomainError):
        RampDriven(times=(0.5, 1.0), numbers=(1e4, 0.0))
    with pytest.raises(DomainError):
        RampDriven(times=(0.0, 1.0, 1.0), numbers=(1e4, 5e3, 0.0))
    with pytest.raises(DomainError):
        RampDriven(times=(0.0, 1.0), numbers=(1e4, 2e4))
    ramp = RampDriven(times=(0.0, 2.0, 6.0), numbers=(1e4, 4e3, 1e3))
    assert ramp.value(1.0) == pytest.approx(7e3)
    assert ramp.value(4.0) == pytest.approx(2.5e3)
    assert ramp.value(100.0) == 1e3           # held beyond the last knot
    assert ramp.slope(1.0) == pytest.approx(-3e3)
    assert ramp.slope(4.0) == pytest.approx(-750.0)
    assert ramp.slope(100.0) == 0.0


def test_rate_model_validation():
    with pytest.raises(DomainError):
        RateDriven(prefactor=0.0)
    with pytest.raises(DomainError):
        RateDriven(sigma_self=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_evaporation_models_reject_non_finite(value):
    with pytest.raises(DomainError, match="finite"):
        RateDriven(prefactor=value)
    with pytest.raises(DomainError, match="finite"):
        RateDriven(sigma_self=value)
    with pytest.raises(DomainError, match="finite"):
        RampDriven(times=(0.0, value), numbers=(1e4, 0.0))
    with pytest.raises(DomainError, match="finite"):
        RampDriven(times=(0.0, 1.0), numbers=(1e4, value))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["eta", "t_end", "dt_max",
                                   "bec_threshold", "psd_prefactor"])
def test_config_rejects_non_finite(field, value):
    kw = dict(initial=_state(), eta=6.5, evaporation_model=RateDriven())
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        TrajectoryConfig(**{**kw, field: value})


@pytest.mark.parametrize("model", [
    RateDriven(prefactor=2.0),
    RampDriven(times=(0.0, 1.0), numbers=(1e4, 0.0))])
@pytest.mark.parametrize("T1, T2", [(0.0, 1e-6), (1e-6, -1e-6)])
def test_rhs_rejects_nonpositive_temperature(model, T1, T2):
    """The right-hand side keeps the domain check that building a
    TwoGasState at every evaluation used to make."""
    from sympcool.trajectory import _Model
    cfg = TrajectoryConfig(initial=_state(), eta=6.5,
                           evaporation_model=model)
    with pytest.raises(DomainError):
        _Model(cfg).rhs(0.0, np.array([1e4, T1, T2, 0.0]))


def test_audit_reports_solver_statistics():
    """nfev, rk_steps and status come from the RK45 loop of _integrate:
    six stages per RK45 step plus the initial evaluations, one step per
    sample at most."""
    cfg = _hold(_state(), t_end=1.0, dt_max=0.01)
    pts, audit = simulate_with_audit(cfg)
    assert audit["status"] == 0
    assert audit["rk_steps"] >= 100
    assert audit["nfev"] >= 6 * audit["rk_steps"]
    s = _state(N1=1e4, N2=1e3, T1=1e-6, T2=1e-6, sigma=1e-17)
    stop = TrajectoryConfig(initial=s, eta=4.0,
                            evaporation_model=RateDriven(prefactor=50.0,
                                                         sigma_self=SIG),
                            t_end=5000.0, dt_max=2.0)
    assert simulate_with_audit(stop)[1]["status"] == 1
    instant = simulate_with_audit(_instant_cfg(N2=1e4))[1]
    assert (instant["nfev"], instant["rk_steps"], instant["status"]) \
        == (0, 0, None)


# ------------------------------------------------------- finite-contact mode

def test_finite_mode_relaxes_at_the_analytic_rate():
    """With evaporation off and equal atom numbers, T1 + T2 is conserved
    and the difference decays as a single exponential whose rate is the
    overlap-integral prediction. Fitted over 200+ samples."""
    s = _state()
    rate_pred = interspecies_thermalization_rate(s)
    pts = simulate_with_audit(_hold(s, t_end=2.0, dt_max=0.005))[0]
    t = np.array([p.t for p in pts])
    d = np.array([p.T1 - p.T2 for p in pts])
    tot = np.array([p.T1 + p.T2 for p in pts])
    np.testing.assert_allclose(tot, tot[0], rtol=1e-9)
    keep = np.abs(d) > 1e-3 * abs(d[0])
    slope = np.polyfit(t[keep], np.log(np.abs(d[keep])), 1)[0]
    assert -slope == pytest.approx(rate_pred, rel=1e-5)


def test_finite_mode_offset_suppresses_relaxation():
    """A 2.15 sigma vertical offset must slow the fitted relaxation by
    exactly the Gaussian overlap factor (the widths stay constant here
    because T1 + T2 does)."""
    s0 = _state()
    s_off = replace(s0, delta=2.15 * rms_sizes(s0)[2])
    expected = math.exp(-2.15 ** 2 / 2.0)
    rates = []
    for s, t_end in ((s0, 2.0), (s_off, 20.0)):
        pts = simulate_with_audit(_hold(s, t_end=t_end, dt_max=t_end / 400))[0]
        t = np.array([p.t for p in pts])
        d = np.array([p.T1 - p.T2 for p in pts])
        keep = np.abs(d) > 1e-3 * abs(d[0])
        rates.append(-np.polyfit(t[keep], np.log(np.abs(d[keep])), 1)[0])
    assert rates[1] / rates[0] == pytest.approx(expected, rel=1e-5)


def test_finite_mode_energy_audit():
    """The tracked total energy 3 k_B (N1 T1 + N2 T2) must change exactly
    by the integrated evaporative removal (eta + 1) k_B T1 dN1."""
    s = _state(N1=1e6, N2=1e4, T1=10e-6, T2=10e-6)
    cfg = TrajectoryConfig(initial=s, eta=6.5,
                           evaporation_model=RateDriven(prefactor=5.0),
                           t_end=50.0, dt_max=0.05)
    pts, audit = simulate_with_audit(cfg)
    removed = audit["E_removed"]
    total = audit["E_total"]
    assert removed[-1] < 0                       # energy leaves with atoms
    drift = (total - total[0]) - removed
    assert np.max(np.abs(drift)) < 1e-6 * abs(removed[-1])
    # evaporation actually did something
    assert pts[-1].N1 < 0.9 * s.N1


def test_rate_driven_initial_slope():
    """Early on, N1 decays at prefactor * gamma1 * exp(-eta) per atom."""
    s = _state(N1=1e5, N2=1e3, T1=5e-6, T2=5e-6, sigma=SIG)
    model = RateDriven(prefactor=3.0, sigma_self=2e-15)
    gamma1 = single_species_collision_rate(s.N1, s.T1, F0.omega_bar,
                                           2e-15, MASS_RB87)
    lam = 3.0 * gamma1 * math.exp(-6.5)
    t_end = 1e-3 / lam
    cfg = TrajectoryConfig(initial=s, eta=6.5, evaporation_model=model,
                           t_end=t_end, dt_max=t_end)
    pts = simulate_with_audit(cfg)[0]
    assert pts[-1].N1 / s.N1 == pytest.approx(math.exp(-lam * t_end),
                                              rel=1e-5)


def test_finite_mode_terminates_at_buffer_floor():
    """Aggressive evaporation drains the buffer to the one-atom floor and
    the integration stops there instead of running to t_end."""
    s = _state(N1=1e4, N2=1e3, T1=1e-6, T2=1e-6, sigma=1e-17)
    cfg = TrajectoryConfig(initial=s, eta=4.0,
                           evaporation_model=RateDriven(prefactor=50.0,
                                                        sigma_self=SIG),
                           t_end=5000.0, dt_max=2.0)
    pts = simulate_with_audit(cfg)[0]
    assert pts[-1].t < 5000.0
    assert pts[-1].N1 <= 1.0 + 1e-9
    kinds = [e.kind for e in detect_events(pts)]
    assert "buffer_exhausted" in kinds


@pytest.mark.parametrize("t_end", [12.0, 20.0, 30.0])
def test_finite_ramp_to_zero_stops_at_buffer_floor(t_end):
    """A ramp that takes N1 to 0 drives T1 towards 0 with it; a trial RK
    stage past the floor would put T1 below zero, which the right-hand
    side refuses.  The integrator shrinks that step instead of raising,
    and the terminal floor event ends the run just before the ramp does."""
    s = _state(N1=1e6, N2=1.44e4, T1=10e-6, T2=10e-6, sigma=2e-15)
    ramp = RampDriven(times=(0.0, 10.0), numbers=(1e6, 0.0))
    cfg = TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                           t_end=t_end, dt_max=0.05)
    pts, audit = simulate_with_audit(cfg)
    assert audit["status"] == 1
    assert pts[-1].t < 10.0
    assert pts[-1].N1 == pytest.approx(N1_FLOOR, rel=1e-9)
    assert all(p.T1 > 0 and p.T2 > 0 for p in pts)


def test_floor_stop_reports_buffer_exhausted():
    """A steep ramp meets the floor at dN1/dt ~ -2e5 atoms/s, so the
    solution at the located floor root misses N1_FLOOR by the root's time
    tolerance times that slope (about 1e-10 relative).  The sample at the
    root must still read the floor, and detect_events must report the stop
    as buffer_exhausted."""
    s = _state(N1=2.32e6, N2=2.07e4, T1=1.53e-6, T2=1.53e-6, sigma=2e-15)
    ramp = RampDriven(times=(0.0, 12.8), numbers=(2.32e6, 0.0))
    cfg = TrajectoryConfig(initial=s, eta=7.68, evaporation_model=ramp,
                           t_end=20.0, dt_max=0.05)
    pts, audit = simulate_with_audit(cfg)
    assert audit["status"] == 1
    assert pts[-1].t < 12.8
    assert pts[-1].N1 == N1_FLOOR
    events = detect_events(pts)
    assert [e.kind for e in events] == ["bec1", "bec2", "buffer_exhausted"]
    assert events[-1].t == pytest.approx(pts[-1].t, rel=1e-12)
    assert events[-1].N1 == pytest.approx(N1_FLOOR, rel=1e-12)


def test_stop_at_threshold_finite():
    """stop_at_threshold ends the run at the first condensation flag.

    With a small target load and equal traps the buffer condenses first
    (it out-numbers the target when its own curve peaks)."""
    s = _state(N1=1e6, N2=1e3, T1=10e-6, T2=10e-6, sigma=1e-13)
    cfg = TrajectoryConfig(initial=s, eta=6.5,
                           evaporation_model=RateDriven(prefactor=5.0,
                                                        sigma_self=7e-16),
                           t_end=400.0, dt_max=0.5, stop_at_threshold=True)
    pts = simulate_with_audit(cfg)[0]
    assert pts[-1].bec1 and not pts[-1].bec2
    assert pts[-1].t < 400.0
    assert pts[-1].D1 == pytest.approx(2.612, rel=1e-6)
    assert not any(p.bec1 for p in pts[:-1])


def test_strong_contact_approaches_instant_law():
    """When interspecies contact is much faster than evaporation the finite
    model must ride the common-temperature law. The exact invariant of the
    coupled equations keeps N2 in the denominator,
    T = T_ini ((N1 + N2)/(N1_ini + N2))^alpha, which differs from the
    budget module's closed form only by the documented ~N2/N1_ini offset
    at the hot end."""
    s = _state(N1=1e6, N2=1e4, T1=10e-6, T2=10e-6, sigma=2e-14)
    cfg = TrajectoryConfig(initial=s, eta=6.5,
                           evaporation_model=RateDriven(prefactor=1.0,
                                                        sigma_self=7e-16),
                           t_end=100.0, dt_max=0.05)
    pts = simulate_with_audit(cfg)[0]
    alpha = (6.5 - 2.0) / 3.0
    assert pts[-1].N1 < 0.5 * s.N1
    for pt in pts[50::50]:
        law = s.T1 * ((pt.N1 + s.N2) / (s.N1 + s.N2)) ** alpha
        assert pt.T2 == pytest.approx(law, rel=0.005)
        assert pt.T1 == pytest.approx(pt.T2, rel=0.01)


# ------------------------------------------------------- instant-contact mode

def _instant_cfg(N2, N1_ini=1e6, T_ini=10e-6, t_ramp=10.0, f2=F0, **kw):
    s = _state(N1=N1_ini, N2=N2, T1=T_ini, T2=T_ini, f2=f2)
    ramp = RampDriven(times=(0.0, t_ramp), numbers=(N1_ini, 0.0))
    return TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                            contact_mode="instant", t_end=t_ramp,
                            dt_max=0.05, **kw)


def test_instant_mode_lies_on_the_closed_form():
    cfg = _instant_cfg(N2=1e4)
    pts = simulate_with_audit(cfg)[0]
    p = BudgetParams(eta=6.5, N1_ini=1e6, N2=1e4, T_ini=10e-6,
                     omega1_bar=F0.omega_bar, omega2_bar=F0.omega_bar)
    t_min = p.T_ini * (p.N2 / p.N1_ini) ** p.alpha
    for pt in pts:
        law = t_min * (pt.N1 / p.N2 + 1.0) ** p.alpha
        assert pt.T1 == pt.T2
        assert pt.T1 == pytest.approx(law, rel=1e-12)


def test_instant_mode_rate_driven_monotone():
    s = _state(N1=1e5, N2=1e3, T1=5e-6, T2=5e-6)
    cfg = TrajectoryConfig(initial=s, eta=6.5,
                           evaporation_model=RateDriven(prefactor=5.0),
                           contact_mode="instant", t_end=200.0, dt_max=0.5)
    pts = simulate_with_audit(cfg)[0]
    n1 = np.array([p.N1 for p in pts])
    assert np.all(np.diff(n1) <= 1e-9 * n1[0])
    assert pts[-1].N1 < 0.8 * s.N1
    assert all(p.T1 == p.T2 for p in pts)


def test_instant_mode_bec2_event_time():
    """For a linear ramp the condensation instant follows from inverting
    the closed-form law; the detected event must land within one output
    step of it."""
    p = BudgetParams(eta=6.5, N1_ini=1e6, N2=1e4, T_ini=10e-6,
                     omega1_bar=F0.omega_bar, omega2_bar=F0.omega_bar)
    n2a, n2b, n2c = critical_numbers(p)
    N2 = 0.6 * n2c                       # target condenses, buffer never
    q = replace(p, N2=N2)
    cfg = _instant_cfg(N2=N2)
    pts = simulate_with_audit(cfg)[0]
    events = {e.kind: e for e in detect_events(pts)}
    assert "bec2" in events and "bec1" not in events
    from sympcool.constants import HBAR, K_B
    t_bec = (HBAR * q.omega2_bar / K_B) * (q.psd_prefactor * N2 / 2.612) ** (1 / 3)
    n1_bec = N2 * ((t_bec / q.T_min) ** (1.0 / q.alpha) - 1.0)
    t_pred = 10.0 * (1.0 - n1_bec / q.N1_ini)
    assert abs(events["bec2"].t - t_pred) < cfg.dt_max
    assert events["bec2"].N1 == pytest.approx(n1_bec, rel=1e-2)


def test_instant_stop_at_threshold():
    p = BudgetParams(eta=6.5, N1_ini=1e6, N2=1e4, T_ini=10e-6,
                     omega1_bar=F0.omega_bar, omega2_bar=F0.omega_bar)
    n2c = critical_numbers(p)[2]
    cfg = _instant_cfg(N2=0.6 * n2c, stop_at_threshold=True)
    pts = simulate_with_audit(cfg)[0]
    assert pts[-1].bec2
    assert not any(pt.bec2 for pt in pts[:-1])
    assert pts[-1].t < 10.0


def test_trajectory_regions_match_classifier():
    """Chronological condensation flags of full instant-mode ramps must
    reproduce the closed-form regime map, including the scan-only corner
    with a very soft target trap."""
    p = BudgetParams(eta=6.5, N1_ini=1e6, N2=1e4, T_ini=10e-6,
                     omega1_bar=F0.omega_bar, omega2_bar=F0.omega_bar)
    n2a, n2b, n2c = critical_numbers(p)
    for N2, expected in ((0.5 * n2a, Region.DUAL_BUFFER_FIRST),
                         (0.5 * (n2a + n2b), Region.DUAL_TARGET_FIRST),
                         (0.5 * (n2b + n2c), Region.TARGET_ONLY),
                         (1.5 * n2c, Region.NO_BEC)):
        pts = simulate_with_audit(_instant_cfg(N2=N2))[0]
        assert region_from_events(pts) is classify(N2, p).region is expected

    soft = TrapFrequencies.from_axes(0.4 * F0.omega_x, 0.4 * F0.omega_y,
                                     0.4 * F0.omega_z, gravity=0.0)
    p_soft = replace(p, omega2_bar=0.4 * p.omega1_bar)
    n2c_soft = critical_numbers(p_soft)[2]
    pts = simulate_with_audit(_instant_cfg(N2=1.05 * n2c_soft, f2=soft))[0]
    assert region_from_events(pts) is Region.BUFFER_ONLY
    assert classify(1.05 * n2c_soft, p_soft).region is Region.BUFFER_ONLY


def test_instant_mode_stall_flag():
    """A fixed centre offset stalls the ramp once shrinking clouds push
    the overlap below 1%."""
    s0 = _state(N1=1e6, N2=1e4, T1=10e-6, T2=10e-6)
    # choose the offset so the 1% point falls mid-ramp (T ~ 1 uK)
    rho_mid = math.sqrt(2.0 * 1.380649e-23 * 1e-6 / (MASS_RB87
                                                     * F0.omega_z ** 2))
    s = replace(s0, delta=3.035 * rho_mid)
    ramp = RampDriven(times=(0.0, 10.0), numbers=(1e6, 0.0))
    cfg = TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                           contact_mode="instant", t_end=10.0, dt_max=0.02)
    pts = simulate_with_audit(cfg)[0]
    assert pts[0].overlap > 0.01 and not pts[0].stalled
    assert pts[-1].stalled
    ev = {e.kind for e in detect_events(pts)}
    assert "stall" in ev
    i = next(i for i, p in enumerate(pts) if p.stalled)
    assert pts[i].overlap < 0.01 <= pts[i - 1].overlap


# ------------------------------------------------------------------- events

def _pt(t, N1=5e3, T1=1e-6, T2=1e-6, D1=0.1, D2=0.1, overlap=1.0,
        stalled=False, bec1=False, bec2=False):
    return TrajectoryPoint(t=t, N1=N1, T1=T1, T2=T2, D1=D1, D2=D2,
                           Gamma=1.0, overlap=overlap, stalled=stalled,
                           bec1=bec1, bec2=bec2)


def test_detect_events_interpolation():
    pts = [
        _pt(0.0, N1=8e3, D2=2.000, overlap=0.500),
        _pt(1.0, N1=6e3, D2=2.412, overlap=0.020),
        _pt(2.0, N1=4e3, D2=3.000, overlap=0.005, stalled=True, bec2=True),
        _pt(3.0, N1=0.5, D2=3.200, overlap=0.004, stalled=True, bec2=True),
    ]
    events = {e.kind: e for e in detect_events(pts)}
    assert set(events) == {"bec2", "stall", "buffer_exhausted"}
    frac = (2.612 - 2.412) / (3.000 - 2.412)
    assert events["bec2"].t == pytest.approx(1.0 + frac, rel=1e-12)
    assert events["bec2"].N1 == pytest.approx(6e3 + frac * (4e3 - 6e3),
                                              rel=1e-12)
    frac_s = (0.01 - 0.02) / (0.005 - 0.02)
    assert events["stall"].t == pytest.approx(1.0 + frac_s, rel=1e-12)
    frac_f = (1.0 - 4e3) / (0.5 - 4e3)
    assert events["buffer_exhausted"].t == pytest.approx(2.0 + frac_f,
                                                         rel=1e-12)
    ts = [e.t for e in detect_events(pts)]
    assert ts == sorted(ts)


def test_detect_events_initial_flag():
    pts = [_pt(0.0, D1=3.0, bec1=True), _pt(1.0, D1=3.1, bec1=True)]
    (ev,) = detect_events(pts)
    assert ev.kind == "bec1" and ev.t == 0.0


def test_detect_events_empty():
    pts = [_pt(0.0), _pt(1.0)]
    assert detect_events(pts) == []


def test_detect_events_configured_threshold():
    """BEC times interpolate through the threshold they are given, not
    through the module default (which would clamp both to the later
    sample here)."""
    pts = [_pt(0.0, D1=1.0, D2=0.5),
           _pt(1.0, D1=2.0, D2=1.0, bec1=True),
           _pt(2.0, D1=3.0, D2=2.0, bec1=True, bec2=True)]
    events = {e.kind: e.t for e in detect_events(pts, bec_threshold=1.5)}
    assert events == {"bec1": pytest.approx(0.5, rel=1e-12),
                      "bec2": pytest.approx(1.5, rel=1e-12)}
    assert {e.kind: e.t for e in detect_events(pts)} == {"bec1": 1.0,
                                                        "bec2": 2.0}
    assert region_of_events(detect_events(pts, 1.5)) \
        is Region.DUAL_BUFFER_FIRST


# ------------------------------------------------------------ frozen digests

def _criterion_7_leg(b0_gauss, n2, stop):
    """Acceptance criterion 7's Ioffe-Pritchard leg at bias b0_gauss."""
    trap = TrapConfig(B0=b0_gauss * 1e-4, G=10.0, C=b0_gauss * 1.0,
                      gravity=G_STANDARD)
    buffer = SpeciesState(label="buffer", F=1, mF=-1, mass=MASS_RB87,
                          sigma_self=7e-16, sigma_cross=2e-17)
    target = SpeciesState(label="target", F=2, mF=2, mass=MASS_RB87,
                          sigma_self=7e-16, sigma_cross=2e-17)
    sigma12 = 2e-17 if b0_gauss > 100 else 7e-16
    state = TwoGasState.from_traps(1e7, n2, 10e-6, 10e-6,
                                   trap_frequencies(buffer, trap),
                                   trap_frequencies(target, trap),
                                   MASS_RB87, MASS_RB87, sigma12)
    return TrajectoryConfig(
        initial=state, eta=6.5,
        evaporation_model=RateDriven(prefactor=1.0, sigma_self=7e-16),
        t_end=600.0, dt_max=0.1, stop_at_threshold=stop)


def _ramp_leg():
    s = _state(N1=1e6, N2=1e4, T1=10e-6, T2=8e-6, delta=2e-6)
    ramp = RampDriven(times=(0.0, 5.0, 20.0), numbers=(1e6, 4e5, 1e4))
    return TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                            t_end=25.0, dt_max=0.05)


def _unequal_mass_leg():
    """Rb buffer, Li target in a stiffer trap: both sags differ, so delta
    is nonzero, and sigma_self falls back to sigma12."""
    f1 = TrapFrequencies.from_axes(*(2 * math.pi * v for v in (80, 100, 125)),
                                   gravity=G_STANDARD)
    f2 = TrapFrequencies.from_axes(*(2 * math.pi * v for v in (90, 110, 140)),
                                   gravity=G_STANDARD)
    s = TwoGasState.from_traps(1e6, 1e4, 10e-6, 10e-6, f1, f2, MASS_RB87,
                               MASS_LI6, SIG)
    return TrajectoryConfig(initial=s, eta=6.5,
                            evaporation_model=RateDriven(prefactor=3.0),
                            t_end=30.0, dt_max=0.05)


def _instant_rate_leg():
    s = _state(N1=1e5, N2=1e3, T1=5e-6, T2=5e-6)
    return TrajectoryConfig(initial=s, eta=6.5,
                            evaporation_model=RateDriven(prefactor=5.0),
                            contact_mode="instant", t_end=200.0, dt_max=0.5)


def _trajectory_digest(cfg):
    """SHA-256 over every TrajectoryPoint field and every audit array."""
    pts, audit = simulate_with_audit(cfg)
    h = hashlib.sha256()
    floats = ("t", "N1", "T1", "T2", "D1", "D2", "Gamma", "overlap")
    flags = ("stalled", "bec1", "bec2")
    h.update(np.array([[getattr(p, f) for f in floats] for p in pts],
                      dtype=float).tobytes())
    h.update(np.array([[getattr(p, f) for f in flags] for p in pts],
                      dtype=bool).tobytes())
    for key in ("E_removed", "E_total", "t"):
        if audit[key] is None:
            h.update(key.encode())
        else:
            h.update(np.ascontiguousarray(audit[key], dtype=float).tobytes())
    return h.hexdigest()


# recorded before the right-hand side moved onto per-config constants
@pytest.mark.parametrize("make, digest", [
    (lambda: _criterion_7_leg(207.0, 1e5, stop=False),
     "56dc0cd38d2680238e3e7052d1bb33b95195a1814aa17127882e69fcddc5765d"),
    (lambda: _criterion_7_leg(56.0, 5.636e5, stop=True),
     "ddc408ebb6b834ce02733c229ddc0268a8ce704b75eb0b4898fc9ef8c8390707"),
    (_ramp_leg,
     "9658b5912252c479df045e4de67d855d93c4257b643822baa749c84e1d2ebee7"),
    (_unequal_mass_leg,
     "bf8781e8f0b9cf6b71cef73f7d5aea0e56785e5021a987d98d90bb2022e816f1"),
    (_instant_rate_leg,
     "b0ec2069a883c4d9dd9814d2c61d327fb77cc10bf6395a041ffd26e4d3ac0e74"),
], ids=["stall_207G", "condense_56G", "ramp_finite", "unequal_mass",
        "instant_rate"])
def test_frozen_trajectory_digest(make, digest, recording_math):
    """Every point and audit array of these legs is bit-identical to the
    one recorded before the right-hand side moved onto per-config
    constants; a change of any floating-point operation shows here."""
    assert _trajectory_digest(make()) == digest


def _event_digest(cfg):
    """SHA-256 over every TrajectoryPoint field, every event of
    detect_events at the configured threshold and region_from_events."""
    pts = simulate_with_audit(cfg)[0]
    h = hashlib.sha256()
    floats = ("t", "N1", "T1", "T2", "D1", "D2", "Gamma", "overlap")
    flags = ("stalled", "bec1", "bec2")
    h.update(np.array([[getattr(p, f) for f in floats] for p in pts],
                      dtype=float).tobytes())
    h.update(np.array([[getattr(p, f) for f in flags] for p in pts],
                      dtype=bool).tobytes())
    for e in detect_events(pts, cfg.bec_threshold):
        h.update(e.kind.encode())
        h.update(np.array([e.t, e.N1, e.T1, e.T2], dtype=float).tobytes())
    h.update(region_from_events(pts).value.encode())
    return h.hexdigest()


# recorded before detect_events, the instant-mode stop and the regime map
# were each written once
@pytest.mark.parametrize("make, digest", [
    (lambda: _criterion_7_leg(207.0, 1e5, stop=False),
     "1b7c8d452c92c62b224ed47fac8d08ccc2d43660eba430dd6fdf517ec903f8b7"),
    (lambda: _criterion_7_leg(56.0, 5.636e5, stop=True),
     "c7d94d359fc8751a9f9a9126c63391db44a5bead3e28fc4c9e490af8184ee19b"),
    (_ramp_leg,
     "c78b3891b3241c8e001a70145aa1598ac4fd8ca72a1b6448b223ebadca0bcd5f"),
    (_unequal_mass_leg,
     "b09cff79afe822f93b040f3c67fc30664c046307d73bad775dc171f65d5eba4b"),
    (_instant_rate_leg,
     "b950936635dc8feb4cf2382058105d006b6e32cdbd7ed680f975425bec09f067"),
    (lambda: _instant_cfg(N2=3.2e4, stop_at_threshold=True),
     "b2b42e8daddd23817edf52dd541ee45b4dc9d3169d106aa079764096a714d1ca"),
    (lambda: replace(_instant_rate_leg(), stop_at_threshold=True),
     "ca146d863bab7d4a90961a9125d7faa335ed0e9f625ded53b74d556af4f8387f"),
    (lambda: _instant_cfg(N2=2e4, bec_threshold=1.5),
     "1dac328e4290aac7ea3ea99a1777261db93e81527cb12e32fdd3b4d60e6bebc9"),
], ids=["stall_207G", "condense_56G", "ramp_finite", "unequal_mass",
        "instant_rate", "instant_ramp_stop", "instant_rate_stop",
        "instant_threshold_1.5"])
def test_frozen_event_digest(make, digest, recording_math):
    """Points, events and region of these legs are bit-identical to the
    ones recorded before the crossing scan, the instant-mode stop and the
    regime map were each written once."""
    assert _event_digest(make()) == digest


# ------------------------------------------ RK45 loop against solve_ivp

def _floor_leg():
    """Rate-driven finite leg that drains the buffer to the one-atom
    floor (the terminal floor event) long before t_end."""
    s = _state(N1=1e4, N2=1e3, T1=1e-6, T2=1e-6, sigma=1e-17)
    return TrajectoryConfig(initial=s, eta=4.0,
                            evaporation_model=RateDriven(prefactor=50.0,
                                                         sigma_self=SIG),
                            t_end=5000.0, dt_max=2.0)


def _ramp_to_zero_leg():
    """Finite ramp that takes N1 to 0: trial stages past the floor leave
    the right-hand side's domain, so steps are rejected on NaN until the
    terminal floor event stops the run."""
    s = _state(N1=1e6, N2=1.44e4, T1=10e-6, T2=10e-6, sigma=2e-15)
    ramp = RampDriven(times=(0.0, 10.0), numbers=(1e6, 0.0))
    return TrajectoryConfig(initial=s, eta=6.5, evaporation_model=ramp,
                            t_end=20.0, dt_max=0.05)


def _coarse_leg():
    """Steps capped at 1 s on a 200-point grid over 30 s: the short early
    steps hold no sample, many capped ones two or more."""
    s = _state(N1=1e6, N2=1e4, T1=10e-6, T2=8e-6, delta=2e-6)
    return TrajectoryConfig(initial=s, eta=6.5,
                            evaporation_model=RateDriven(prefactor=3.0),
                            t_end=30.0, dt_max=1.0)


def _solve_ivp_reference(rhs, y0, cfg, crossings):
    """solve_ivp with the floor event and the crossings as events, a
    right-hand side outside its domain giving NaN: the call the
    trajectory module made before its own RK45 loop."""
    def fun(t, y):
        try:
            return rhs(t, y)
        except DomainError:
            return np.full(len(y), np.nan)

    def hit_floor(t, y):
        return y[0] - N1_FLOOR
    hit_floor.terminal, hit_floor.direction = True, -1
    events = [hit_floor]
    for f in crossings:
        def ev(t, y, f=f):
            return f(t, y)
        ev.terminal, ev.direction = cfg.stop_at_threshold, 1
        events.append(ev)
    return solve_ivp(fun, (0.0, cfg.t_end), y0, method="RK45", rtol=1e-8,
                     atol=1e-12, max_step=cfg.dt_max, dense_output=True,
                     events=events)


# kinds: the events that fire, 0 the floor, 1 and 2 the D1 and D2 crossings
@pytest.mark.parametrize("make, status, kinds", [
    (lambda: _criterion_7_leg(56.0, 5.636e5, stop=False), 0, {2}),
    (lambda: _criterion_7_leg(56.0, 5.636e5, stop=True), 1, {2}),
    (_floor_leg, 1, {0}),
    (_instant_rate_leg, 0, set()),
    (_ramp_to_zero_leg, 1, {0, 1, 2}),
    (_coarse_leg, 0, {1, 2}),
    (_unequal_mass_leg, 0, {1}),
    (_ramp_leg, 0, {1, 2}),
], ids=["crossing_no_stop", "stop_at_threshold", "buffer_floor",
        "instant_rate", "ramp_to_zero", "coarse_grid", "unequal_mass",
        "ramp_knots"])
def test_rk45_loop_matches_solve_ivp(make, status, kinds, monkeypatch):
    """The module's RK45 loop gives bit for bit what solve_ivp gives with
    the same settings and events: step times, event roots, status, RHS
    evaluations and the dense solution on the sample grid."""
    calls, integrate = [], trajectory._integrate

    def spy(rhs, y0, cfg, crossings=()):
        run = integrate(rhs, y0, cfg, crossings)
        calls.append((rhs, y0, cfg, crossings, run))
        return run
    monkeypatch.setattr(trajectory, "_integrate", spy)
    audit = simulate_with_audit(make())[1]
    (rhs, y0, cfg, crossings, run), = calls
    ref = _solve_ivp_reference(rhs, y0, cfg, crossings)
    assert run.status == ref.status == status
    assert run.nfev == ref.nfev == audit["nfev"]
    assert np.array_equal(run.t, ref.t)
    assert {i for i, te in enumerate(run.t_events) if te} == kinds
    assert [list(te) for te in ref.t_events] == run.t_events
    ts = _sample_grid(cfg, float(ref.t[-1]))
    assert np.array_equal(run.sol(ts), ref.sol(ts))
    assert np.array_equal(run.sol(audit["t"]), ref.sol(audit["t"]))


_AXIS = st.floats(2 * math.pi * 30, 2 * math.pi * 300)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(masses=st.tuples(st.floats(6.0, 140.0), st.floats(6.0, 140.0)),
       axes=st.tuples(*(_AXIS,) * 6), delta=st.floats(0.0, 30e-6),
       eta=st.floats(3.0, 10.0), prefactor=st.floats(0.5, 1000.0),
       dt_max=st.floats(0.01, 0.5), stop=st.booleans())
def test_rk45_loop_matches_solve_ivp_on_random_configs(masses, axes, delta,
                                                       eta, prefactor,
                                                       dt_max, stop):
    """Finite-mode, rate-driven configs over masses, both traps' axes, the
    offset, eta, the evaporation prefactor and dt_max, run for 2 s:
    _integrate gives bit for bit what solve_ivp gives, in step times,
    nfev, event roots, status and the dense solution on the sample
    grid."""
    f1 = TrapFrequencies(*axes[:3], gravity=0.0)
    f2 = TrapFrequencies(*axes[3:], gravity=0.0)
    s = TwoGasState(N1=1e6, N2=3e4, T1=10e-6, T2=12e-6, f1=f1, f2=f2,
                    M1=masses[0] * AMU, M2=masses[1] * AMU, sigma12=SIG,
                    delta=delta)
    cfg = TrajectoryConfig(initial=s, eta=eta,
                           evaporation_model=RateDriven(prefactor=prefactor),
                           t_end=2.0, dt_max=dt_max, stop_at_threshold=stop)
    model = trajectory._Model(cfg)
    y0 = (s.N1, s.T1, s.T2, 0.0)
    crossings = (model.d1_crossing, model.d2_crossing)
    run = trajectory._integrate(model.rhs, y0, cfg, crossings)
    ref = _solve_ivp_reference(model.rhs, y0, cfg, crossings)
    assert run.status == ref.status
    assert run.nfev == ref.nfev
    assert np.array_equal(run.t, ref.t)
    assert [list(te) for te in ref.t_events] == run.t_events
    ts = _sample_grid(cfg, float(ref.t[-1]))
    assert np.array_equal(run.sol(ts), ref.sol(ts))


@pytest.mark.parametrize("model", [
    RateDriven(prefactor=2.0),
    RampDriven(times=(0.0, 1.0), numbers=(1e4, 0.0))])
@pytest.mark.parametrize("state", [
    (1e4, 1.2e-6, 0.8e-6, 0.0),
    (0.25, 1.2e-6, 0.8e-6, 3e-20),
    (math.nan, 1.2e-6, 0.8e-6, 0.0),
    (1e4, math.nan, 0.8e-6, 0.0),
    (1e4, 1.2e-6, math.nan, 0.0)],
    ids=["normal", "below_floor", "nan_N1", "nan_T1", "nan_T2"])
def test_model_functions_take_any_state_sequence(model, state):
    """rhs and both crossing functions give the same bits for a list, a
    tuple and an ndarray state: the integrator passes lists, solve_ivp
    and brentq's interpolant arrays.  max(N1, floor) keeps a NaN N1 and
    lifts 0.25 atoms to the one-atom floor."""
    m = trajectory._Model(TrajectoryConfig(initial=_state(), eta=6.5,
                                           evaporation_model=model))
    for fn in (m.rhs, m.d1_crossing, m.d2_crossing):
        ref = np.array(fn(0.5, list(state)), dtype=float)
        for y in (tuple(state), np.array(state)):
            assert np.array(fn(0.5, y), dtype=float).tobytes() \
                == ref.tobytes()
    got = m.rhs(0.5, list(state))
    if state[0] == 0.25:
        assert got == m.rhs(0.5, [N1_FLOOR, *state[1:]])
    if math.isnan(state[0]):
        assert math.isnan(got[1])


def test_start_outside_the_domain_raises_domain_error():
    """Clouds too cold for a 1e150 rad/s axis have pair widths of 0: the
    first derivative is NaN and RK45 finds no first step, which left the
    step loop running forever (a ZeroDivisionError before the pair rates
    raised).  The start's DomainError now ends the run."""
    f = TrapFrequencies(1e150, 2 * math.pi * 100, 2 * math.pi * 125,
                        gravity=0.0)
    cfg = TrajectoryConfig(initial=_state(T1=1e-36, T2=1e-36, f1=f, f2=f),
                           eta=6.5, evaporation_model=RateDriven(),
                           t_end=1.0)
    with pytest.raises(DomainError, match="pair widths underflow"):
        simulate_with_audit(cfg)


@pytest.mark.parametrize("mode, evaporation, T1, T2", [
    ("finite", RateDriven(), 1e-320, 1e-6),
    ("finite", RateDriven(), 1e-6, 1e-320),
    ("finite", RampDriven(times=(0.0, 1.0), numbers=(1e6, 5e5)), 1e-320,
     1e-6),
    ("instant", RateDriven(), 1e-320, 1e-320),
    ("finite", RateDriven(), 1e-150, 1e-6)],
    ids=["T1_rate", "T2_rate", "T1_ramp", "instant", "cube_overflows"])
def test_start_too_cold_for_its_trap_raises_domain_error(mode, evaporation,
                                                         T1, T2):
    """A subnormal temperature such as 1e-320 K underflows K_B T to 0, and
    at 1e-150 K the density's cube overflows: the buffer rate, the
    crossings and the sample points raised a bare ZeroDivisionError or
    OverflowError.  The start is checked once, so the run ends in a
    DomainError naming the temperature."""
    cfg = TrajectoryConfig(initial=_state(N1=1e6, T1=T1, T2=T2), eta=6.5,
                           evaporation_model=evaporation,
                           contact_mode=mode, t_end=1.0)
    name = "T1" if T1 < 1e-100 else "T2"
    with pytest.raises(DomainError, match=rf"^{name} = .* K is too cold$"):
        simulate_with_audit(cfg)


def test_coarse_leg_runs_both_dense_branches(monkeypatch):
    """The coarse leg has steps holding no sample, one sample and two or
    more, so its case of test_rk45_loop_matches_solve_ivp runs both
    branches of the dense evaluation: the stacked matmul and the one dot
    per shared step."""
    runs, integrate = [], trajectory._integrate

    def spy(*args):
        runs.append(integrate(*args))
        return runs[-1]
    monkeypatch.setattr(trajectory, "_integrate", spy)
    audit = simulate_with_audit(_coarse_leg())[1]
    (run,) = runs
    steps = run.t.size - 1
    seg = np.clip(np.searchsorted(run.t, audit["t"], side="left") - 1, 0,
                  steps - 1)
    held = np.bincount(seg, minlength=steps)
    assert (held == 0).any() and (held == 1).any() and (held >= 2).any()


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 4]), t_old=st.floats(0.0, 1e3),
       h=st.floats(1e-6, 10.0), frac=st.floats(0.0, 1.0), data=st.data())
def test_dense_at_one_time_matches_scipy_scalar_call(n, t_old, h, frac, data):
    """_dense at a one-element time array, as brentq calls it for event
    roots, equals scipy's RkDenseOutput called on that scalar bit for bit:
    the stacked (n, 4) x (4, 1) matmul gives what the 1-d dot gives."""
    from scipy.integrate._ivp.rk import RkDenseOutput
    y_old = data.draw(hnp.arrays(float, n, elements=_FINITE))
    Q = data.draw(hnp.arrays(float, (n, 4), elements=_FINITE))
    t = t_old + h
    s = min(t_old + frac * (t - t_old), t)
    ours = trajectory._dense([t - t_old], y_old, [Q], (t_old, t),
                             np.array([s]))[:, 0]
    assert np.array_equal(ours, RkDenseOutput(t_old, t, y_old, Q)(s))


def test_step_failure_matches_solve_ivp():
    """A right-hand side valid at t = 0 and outside its domain for every
    t > 0 rejects every step until the step falls below ten float
    spacings of t: _integrate raises StepFailure with the message that
    solve_ivp reports, with status -1, on the same function."""
    def rhs(t, y):
        if t > 0:
            raise DomainError("outside the domain")
        return (-1.0, 0.0, 0.0, 0.0)
    cfg = _hold(_state(), t_end=1.0)
    y0 = (1e4, 1e-6, 1e-6, 0.0)
    ref = _solve_ivp_reference(rhs, y0, cfg, ())
    assert ref.status == -1
    with pytest.raises(StepFailure) as failure:
        trajectory._integrate(rhs, y0, cfg)
    assert str(failure.value) == ref.message


# ------------------------------- the model's derivative and its points

def _contact_model(cfg):
    """(rhs, ndot, d1_crossing, d2_crossing) of cfg written with the
    contact and budget functions they stand for, in the order the
    trajectory evaluated them before it wrote the pair and self rates
    out."""
    s, m = cfg.initial, cfg.evaporation_model
    pair = _pair_rates(s)
    xi = transfer_efficiency(s.M1, s.M2)
    hw1, hw2 = HBAR * s.f1.omega_bar, HBAR * s.f2.omega_bar

    def ndot(t, N1, T1):
        if isinstance(m, RampDriven):
            return m.slope(t)
        if T1 <= 0:
            raise DomainError("T must be positive")
        sigma1 = m.sigma_self if m.sigma_self is not None else s.sigma12
        gamma1 = _self_rate(max(N1, N1_FLOOR), T1, s.f1.omega_bar ** 3,
                            sigma1, s.M1)
        return -m.prefactor * gamma1 * math.exp(-cfg.eta) * N1

    def rhs(t, y):
        n1, t1, t2, _ = y
        n1 = max(n1, N1_FLOOR)
        nd = ndot(t, n1, t1)
        if t1 <= 0 or t2 <= 0:
            raise DomainError("temperatures must be positive")
        gamma = pair(n1, t1, t2)[2]
        w = xi * (K_B * (t2 - t1) * gamma)
        dT1 = ((cfg.eta - 2.0) * t1 * nd / (3.0 * n1)
               + w / (3.0 * n1 * K_B))
        dT2 = -w / (3.0 * s.N2 * K_B)
        return (nd, dT1, dT2, nd * (cfg.eta + 1.0) * K_B * t1)

    def d1_crossing(t, y):
        if y[1] <= 0:
            raise DomainError("T must be positive")
        return (cfg.psd_prefactor * _psd(max(y[0], 0.0), y[1], hw1)
                - cfg.bec_threshold)

    def d2_crossing(t, y):
        if y[2] <= 0:
            raise DomainError("T must be positive")
        return (cfg.psd_prefactor * _psd(s.N2, y[2], hw2)
                - cfg.bec_threshold)
    return rhs, ndot, d1_crossing, d2_crossing


def _outcome(fn, *args):
    """The bytes of fn's result, or the type and message it raises."""
    try:
        return np.array(fn(*args), dtype=float).tobytes()
    except (SympcoolError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _assert_model_matches_contact(cfg, t, y):
    model = trajectory._Model(cfg)
    rhs, ndot, d1, d2 = _contact_model(cfg)
    for ours, ref in ((model.rhs, rhs), (model.d1_crossing, d1),
                      (model.d2_crossing, d2)):
        assert _outcome(ours, t, y) == _outcome(ref, t, y)
    assert _outcome(model.ndot, t, y[0], y[1]) == _outcome(ndot, t, y[0],
                                                           y[1])


def _model_cfg(masses=(MASS_RB87, MASS_RB87), f1=F0, f2=F0, delta=0.0,
               sigma=SIG, N2=1e4, eta=6.5, evaporation=RateDriven()):
    s = TwoGasState(N1=1e6, N2=N2, T1=1e-5, T2=1e-5, f1=f1, f2=f2,
                    M1=masses[0], M2=masses[1], sigma12=sigma, delta=delta)
    return TrajectoryConfig(initial=s, eta=eta, evaporation_model=evaporation)


_RAMP = RampDriven(times=(0.0, 5.0, 20.0), numbers=(1e6, 4e5, 1e4))
_N1 = st.one_of(st.floats(1e-3, 1e9),
                st.sampled_from([0.0, -0.0, 0.25, 1.0, -5.0, math.nan]))
_T = st.one_of(st.floats(1e-10, 1e-3),
               st.sampled_from([0.0, -1e-6, 1e-320, math.nan]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(masses=st.tuples(st.floats(6.0, 140.0), st.floats(6.0, 140.0)),
       axes=st.tuples(*(_AXIS,) * 6), delta=st.floats(-30e-6, 30e-6),
       sigma=st.floats(0.0, 1e-14), N2=st.floats(1e2, 1e6),
       eta=st.floats(2.5, 12.0),
       evaporation=st.one_of(
           st.just(_RAMP),
           st.builds(RateDriven, prefactor=st.floats(0.5, 1000.0),
                     sigma_self=st.one_of(st.none(),
                                          st.floats(1e-17, 1e-14)))),
       t=st.floats(0.0, 30.0), y=st.tuples(_N1, _T, _T, st.floats(-1, 0)))
def test_inline_derivative_equals_the_contact_formulas(masses, axes, delta,
                                                       sigma, N2, eta,
                                                       evaporation, t, y):
    """rhs, ndot and both crossing functions of _Model give, bit for bit,
    the result or the error of the same derivative built from
    _pair_rates(s)(...)[2], _self_rate, transfer_efficiency and _psd, over
    random configs and states: the one-atom floor, non-positive, NaN and
    underflowing temperatures, both evaporation models."""
    cfg = _model_cfg((masses[0] * AMU, masses[1] * AMU),
                     TrapFrequencies(*axes[:3], gravity=0.0),
                     TrapFrequencies(*axes[3:], gravity=0.0), delta, sigma,
                     N2, eta, evaporation)
    _assert_model_matches_contact(cfg, t, y)


@pytest.mark.parametrize("evaporation", [RateDriven(prefactor=3.0),
                                         RateDriven(sigma_self=2e-16),
                                         _RAMP], ids=["rate", "rate_self",
                                                      "ramp"])
@pytest.mark.parametrize("t, y", [
    (0.5, (0.25, 1.2e-6, 0.8e-6, 0.0)),
    (0.5, (-0.0, 1.2e-6, 0.8e-6, 0.0)),
    (0.5, (0.0, 1.2e-6, 0.8e-6, 0.0)),
    (6.0, (math.nan, 1.2e-6, 0.8e-6, 0.0)),
    (6.0, (1e4, math.nan, 0.8e-6, 0.0)),
    (6.0, (1e4, 1.2e-6, math.nan, 0.0)),
    (30.0, (1e4, 0.0, 0.8e-6, 0.0)),
    (30.0, (1e4, 1.2e-6, -1e-9, 0.0)),
    (1.0, (1e4, 1e-320, 1e-320, 0.0))],
    ids=["below_floor", "minus_zero_N1", "zero_N1", "nan_N1", "nan_T1",
         "nan_T2", "zero_T1", "negative_T2", "widths_underflow"])
def test_inline_derivative_equals_the_contact_formulas_at_the_edges(
        evaporation, t, y):
    """The cases the random search must not miss: N1 below the one-atom
    floor, -0.0 and NaN, each temperature NaN or non-positive, pair
    widths that underflow, on both evaporation models (the ramp's slope
    past its last knot included)."""
    _assert_model_matches_contact(
        _model_cfg(delta=3e-6, evaporation=evaporation), t, y)


@pytest.mark.parametrize("make", [
    _instant_rate_leg, lambda: _hold(_state(delta=2e-6), t_end=1.0,
                                     dt_max=0.05)],
    ids=["instant", "finite"])
def test_points_keep_their_dataclass_behaviour(make):
    """Points filled through the slots behave as ones built by the frozen
    dataclass: fields in order, no assignment, equality and hash of
    TrajectoryPoint(*astuple(p)), replace and a pickle round trip."""
    pts = simulate_with_audit(make())[0]
    assert [f.name for f in fields(TrajectoryPoint)] == [
        "t", "N1", "T1", "T2", "D1", "D2", "Gamma", "overlap", "stalled",
        "bec1", "bec2"]
    assert len(pts) > 20
    for p in pts:
        assert type(p) is TrajectoryPoint
        with pytest.raises(FrozenInstanceError):
            p.T1 = 1.0
        q = TrajectoryPoint(*astuple(p))
        assert p == q and hash(p) == hash(q)
        assert pickle.loads(pickle.dumps(p)) == p
    p = pts[-1]
    moved = replace(p, T2=2.0 * p.T2, bec2=True)
    assert astuple(moved) == (*astuple(p)[:3], 2.0 * p.T2,
                              *astuple(p)[4:10], True)
    assert not hasattr(p, "__dict__")
