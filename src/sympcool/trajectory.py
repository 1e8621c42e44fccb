"""Time-domain cooling trajectories for the coupled two-species system.

Finite contact mode integrates

    dN1/dt  from the evaporation model,
    dT1/dt = (eta - 2) T1 Ndot1 / (3 N1) + W_eff / (3 N1 k_B),
    dT2/dt = -W_eff / (3 N2 k_B),

with W_eff the overlap-integral heat flow of the contact module scaled by
the mass-mismatch transfer efficiency (identical to the plain heat flow
for equal masses).  Instant contact mode instead pins T1 = T2 to the
closed-form temperature law of the budget module at each buffer number.

Evaporation is either rate-driven, Ndot1 = -c gamma1 exp(-eta) N1 with
gamma1 the buffer's own collision rate, or ramp-driven through a
piecewise-linear N1(t) schedule.  Condensation flags latch when a species'
peak phase-space density crosses the threshold; the stall flag latches
when the cloud-overlap factor drops below 0.01 while evaporation is still
removing atoms.

Only the integration uses scipy, imported where it runs: the RK45 set-up
(first step and Dormand-Prince tableau) and brentq for event roots.  The
steps are taken here in scipy's operations and order, so every float
equals solve_ivp's.  Each step runs on a list of plain floats; numpy does
per step only the seven products with the stage matrix (five stage
arguments, the solution and error rows), the error norm's dot and the
interpolant coefficients, whose summation order the bits depend on.
_dense evaluates the interpolants, for roots and samples alike, in
scipy's numpy operations.  Finite mode integrates, and so does instant
mode on a rate-driven schedule; an instant-mode ramp never loads scipy.

The right-hand side, called six times per step, is one closure per
config that writes out the contact module's pair rate Gamma and, when
rate-driven, the buffer's own collision rate in their operation order,
so its floats are theirs (a test pins the copy to those formulas); the
sample points are filled through the slots of TrajectoryPoint instead
of its frozen __init__.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .budget import BudgetParams, Region, _psd, _region, temperature_of
from .constants import BEC_THRESHOLD, HBAR, K_B, PSD_PREFACTOR
from .contact import (TwoGasState, _PI2, _TWO_PI2_KB, _WIDTHS_UNDERFLOW,
                      _pair_rates, _trap_terms, transfer_efficiency)
from .errors import (DomainError, StepFailure, require_finite,
                     require_positive)

N1_FLOOR = 1.0          # atoms; the ramp terminates cleanly at this floor
STALL_OVERLAP = 0.01    # overlap factor below which cooling counts as stalled
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RateDriven:
    """Ndot1 = -prefactor * gamma1 * exp(-eta) * N1.

    sigma_self is the buffer's own elastic cross section entering gamma1;
    None falls back to sigma12 (all cross sections equal).
    """

    prefactor: float = 1.0
    sigma_self: float | None = None

    def __post_init__(self):
        require_positive(prefactor=self.prefactor)
        if self.sigma_self is not None:
            require_positive(sigma_self=self.sigma_self)


@dataclass(frozen=True)
class RampDriven:
    """Imposed piecewise-linear buffer number N1(t).

    times must be increasing and start at 0; numbers must be non-increasing
    and start at the initial buffer number.  Beyond the last knot the
    schedule holds its final value.
    """

    times: tuple[float, ...]
    numbers: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        n = np.asarray(self.numbers, dtype=float)
        if t.size < 2 or t.size != n.size:
            raise DomainError("ramp needs >= 2 (time, N1) knots")
        if not np.isfinite(t).all():
            raise DomainError("times must be finite")
        if not np.isfinite(n).all():
            raise DomainError("numbers must be finite")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise DomainError("ramp times must increase from 0")
        if np.any(np.diff(n) > 0) or np.any(n < 0):
            raise DomainError("ramp numbers must be non-increasing and >= 0")

    def value(self, t: float) -> float:
        return float(np.interp(t, self.times, self.numbers))

    def slope(self, t: float) -> float:
        if t >= self.times[-1]:
            return 0.0
        i = max(bisect.bisect_right(self.times, t) - 1, 0)
        dt = self.times[i + 1] - self.times[i]
        return (self.numbers[i + 1] - self.numbers[i]) / dt


EvaporationModel = Union[RateDriven, RampDriven]


@dataclass(frozen=True)
class TrajectoryConfig:
    initial: TwoGasState
    eta: float
    evaporation_model: EvaporationModel
    contact_mode: str = "finite"          # "finite" | "instant"
    t_end: float = 100.0                  # s
    dt_max: float = 0.1                   # s, output cadence and step cap
    bec_threshold: float = BEC_THRESHOLD
    psd_prefactor: float = PSD_PREFACTOR
    stop_at_threshold: bool = False       # keep integrating past a BEC flag

    def __post_init__(self):
        require_finite(eta=self.eta)
        require_positive(t_end=self.t_end, dt_max=self.dt_max,
                         bec_threshold=self.bec_threshold,
                         psd_prefactor=self.psd_prefactor)
        if self.eta <= 2:
            raise DomainError("eta must exceed 2")
        if self.contact_mode not in ("finite", "instant"):
            raise DomainError("contact_mode must be 'finite' or 'instant'")
        if self.contact_mode == "instant" and self.initial.T1 != self.initial.T2:
            raise DomainError("instant contact requires T1 == T2 initially")
        if isinstance(self.evaporation_model, RampDriven):
            start = self.evaporation_model.numbers[0]
            if not math.isclose(start, self.initial.N1, rel_tol=1e-9):
                raise DomainError("ramp must start at the initial N1")


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    t: float
    N1: float
    T1: float
    T2: float
    D1: float
    D2: float
    Gamma: float
    overlap: float
    stalled: bool
    bec1: bool
    bec2: bool


# the slots' own setters, in field order: _Model.points fills a new point
# through them, which costs less than the frozen __init__'s
# object.__setattr__ per field
_POINT_SETTERS = tuple(getattr(TrajectoryPoint, f.name).__set__
                       for f in fields(TrajectoryPoint))


@dataclass(frozen=True)
class TrajectoryEvent:
    """A latched flag transition with linearly interpolated time/state."""

    kind: str      # "bec1" | "bec2" | "stall" | "buffer_exhausted"
    t: float
    N1: float
    T1: float
    T2: float


class _Model:
    """The per-config constants of one trajectory, bound once into the
    functions the integrator and the point builder evaluate: rhs, ndot,
    the crossing functions and points take any sequence of floats (a
    list, a tuple or an ndarray) as the state.

    Every expression keeps the evaluation order of the contact and budget
    functions it stands for, so each float is bit-identical to theirs.
    rhs writes out contact._pair_rates' Gamma and, rate-driven,
    contact._self_rate, instead of calling them: the integrator evaluates
    it six times per step, and the calls were half its cost.  A test pins
    that copy to the contact formulas.  max(a, b) is written b if b > a
    else a, which is what max does, a NaN a included.
    """

    def __init__(self, cfg: TrajectoryConfig):
        s = cfg.initial
        N2, M1, M2, sigma12 = s.N2, s.M1, s.M2, s.sigma12
        (x1, y1, z1), (x2, y2, z2) = (_trap_terms(M1, s.f1),
                                      _trap_terms(M2, s.f2))
        delta2 = s.delta ** 2
        xi = transfer_efficiency(M1, M2)
        eta_m2, eta_p1 = cfg.eta - 2.0, cfg.eta + 1.0
        three_n2_kb = 3.0 * N2 * K_B
        pref = cfg.psd_prefactor
        hw1, hw2 = HBAR * s.f1.omega_bar, HBAR * s.f2.omega_bar
        threshold = cfg.bec_threshold
        self.N2, self.psd_prefactor, self.threshold = N2, pref, threshold
        self.hbar_omega1, self.hbar_omega2 = hw1, hw2
        self.pair = _pair_rates(s)              # (N1, T1, T2) -> rates
        self.latch = threshold * (1.0 - 1e-12)
        m = cfg.evaporation_model
        if isinstance(m, RampDriven):
            slope = m.slope

            def ndot(t, N1, T1):
                return slope(t)
        else:
            slope = None
            sigma1 = m.sigma_self if m.sigma_self is not None else s.sigma12
            omega1_bar3 = s.f1.omega_bar ** 3
            neg_prefactor, exp_eta = -m.prefactor, math.exp(-cfg.eta)

            def ndot(t, N1, T1):
                """-prefactor * gamma1 * exp(-eta) * N1."""
                if T1 <= 0:
                    raise DomainError("T must be positive")
                n = N1_FLOOR if N1_FLOOR > N1 else N1
                gamma1 = n * omega1_bar3 * sigma1 * M1 / (_TWO_PI2_KB * T1)
                return neg_prefactor * gamma1 * exp_eta * N1

        def rhs(t, y):
            """Finite-contact derivatives of (N1, T1, T2, E_removed)."""
            n1, t1, t2, _ = y
            if N1_FLOOR > n1:
                n1 = N1_FLOOR
            if slope is None:
                # ndot: max(n1, N1_FLOOR) is n1 here
                if t1 <= 0:
                    raise DomainError("T must be positive")
                gamma1 = n1 * omega1_bar3 * sigma1 * M1 / (_TWO_PI2_KB * t1)
                nd = neg_prefactor * gamma1 * exp_eta * n1
            else:
                nd = slope(t)
            if t1 <= 0 or t2 <= 0:
                raise DomainError("temperatures must be positive")
            # _pair_rates(s)(n1, t1, t2)[2]
            kt1 = K_B * t1
            kt2 = K_B * t2
            rx = math.sqrt(kt1 / x1 + kt2 / x2)
            ry = math.sqrt(kt1 / y1 + kt2 / y2)
            rz = math.sqrt(kt1 / z1 + kt2 / z2)
            rz2 = rz ** 2
            volume = _PI2 * rx * ry * rz
            if volume == 0 or rz2 == 0:
                raise DomainError(_WIDTHS_UNDERFLOW)
            overlap = math.exp(-delta2 / (2.0 * rz2))
            v = math.sqrt(kt1 / M1 + kt2 / M2)
            gamma = n1 * N2 / volume * sigma12 * v * overlap
            # energy_exchange_rate: W = k_B (T2 - T1) Gamma
            w = xi * (K_B * (t2 - t1) * gamma)
            dT1 = eta_m2 * t1 * nd / (3.0 * n1) + w / (3.0 * n1 * K_B)
            dT2 = -w / three_n2_kb
            return (nd, dT1, dT2, nd * eta_p1 * K_B * t1)

        def d1_crossing(t, y):
            """D1 - bec_threshold at state y: its upward zero is the
            buffer's condensation."""
            n1, t1 = y[0], y[1]
            if t1 <= 0:
                raise DomainError("T must be positive")
            return pref * _psd(0.0 if 0.0 > n1 else n1, t1, hw1) - threshold

        def d2_crossing(t, y):
            """D2 - bec_threshold at state y: its upward zero is the
            target's condensation."""
            t2 = y[2]
            if t2 <= 0:
                raise DomainError("T must be positive")
            return pref * _psd(N2, t2, hw2) - threshold

        self.ndot, self.rhs = ndot, rhs
        self.d1_crossing, self.d2_crossing = d1_crossing, d2_crossing

    def points(self, ts, N1s, T1s, T2s, stop=False) -> list[TrajectoryPoint]:
        """Latched trajectory points from sampled arrays; with stop, the
        last point is the first whose D1 or D2 reaches the threshold."""
        ndot, pair, N2 = self.ndot, self.pair, self.N2
        pref, hw1, hw2 = self.psd_prefactor, self.hbar_omega1, self.hbar_omega2
        latch, threshold = self.latch, self.threshold
        new = object.__new__
        (set_t, set_n1, set_t1, set_t2, set_d1, set_d2, set_gamma,
         set_overlap, set_stalled, set_bec1, set_bec2) = _POINT_SETTERS
        pts: list[TrajectoryPoint] = []
        stalled = bec1 = bec2 = False
        for t, n1, t1, t2 in zip(ts.tolist(), N1s.tolist(), T1s.tolist(),
                                 T2s.tolist()):
            nd = ndot(t, n1, t1)
            if t1 <= 0 or t2 <= 0:
                raise DomainError("temperatures must be positive")
            _, ov, gamma = pair(1e-9 if 1e-9 > n1 else n1, t1, t2)
            gamma = gamma if n1 > 0 else 0.0
            d1 = pref * _psd(0.0 if 0.0 > n1 else n1, t1, hw1)
            d2 = pref * _psd(N2, t2, hw2)
            # the guard keeps the latch robust when a terminal stop event
            # lands a float ulp below the threshold it just located
            bec1 = bec1 or d1 >= latch
            bec2 = bec2 or d2 >= latch
            stalled = stalled or (ov < STALL_OVERLAP and nd < 0)
            p = new(TrajectoryPoint)
            set_t(p, t)
            set_n1(p, n1)
            set_t1(p, t1)
            set_t2(p, t2)
            set_d1(p, d1)
            set_d2(p, d2)
            set_gamma(p, gamma)
            set_overlap(p, ov)
            set_stalled(p, stalled)
            set_bec1(p, bec1)
            set_bec2(p, bec2)
            pts.append(p)
            if stop and (d1 >= threshold or d2 >= threshold):
                break
        return pts


def _sample_grid(cfg: TrajectoryConfig, t_final: float) -> np.ndarray:
    n = int(math.ceil(t_final / cfg.dt_max)) + 1
    n = min(max(n, 200), 200_000)
    return np.linspace(0.0, t_final, n)


def _dense(h, y_old, Q, breaks, t: np.ndarray) -> np.ndarray:
    """The state (n, t.size) at ascending times t from the steps of one
    RK45 run: step i runs from breaks[i] to breaks[i + 1] with length
    h[i], start state y_old[n i:n (i + 1)] and interpolant coefficients
    Q[i] (n, 4).

    RkDenseOutput's quartic is evaluated in its operations on the segment
    OdeSolution picks, so every value equals OdeSolution's bit for bit.
    Steps holding one sample are evaluated by one stacked matmul, which
    equals the per-step (n, 4) x (4, 1) dot and a scalar call's 1-d dot;
    steps holding more keep one dot each, since a (4, k) product differs
    from k single-column ones in the last bits.
    """
    t_old = np.array(breaks[:-1])
    h = np.array(h)
    Q = np.array(Q)
    y_old = np.array(y_old).reshape(len(Q), -1)
    seg = np.searchsorted(breaks, t, side="left") - 1
    np.clip(seg, 0, len(Q) - 1, out=seg)
    x = (t - t_old[seg]) / h[seg]
    p = np.cumprod(np.tile(x, (Q.shape[2], 1)), axis=0)
    y = np.empty((y_old.shape[1], t.size))
    # runs of samples on one step, as OdeSolution's groupby makes them
    _, starts, counts = np.unique(seg, return_index=True, return_counts=True)
    one = starts[counts == 1]
    i = seg[one]
    y1 = h[i, None] * np.matmul(Q[i], p[:, one].T[..., None])[..., 0]
    y1 += y_old[i]
    y[:, one] = y1.T
    for a, k in zip(starts[counts > 1], counts[counts > 1]):
        i = seg[a]
        yi = h[i] * np.dot(Q[i], p[:, a:a + k])
        yi += y_old[i][:, None]
        y[:, a:a + k] = yi
    return y


class _Run(NamedTuple):
    """One integration by _integrate."""

    t: np.ndarray           # step times, the last one t_end or the stop root
    t_events: list          # roots per event: the floor, then the crossings
    sol: Callable           # _dense on the accepted steps: sol(ts), ts ascending
    status: int             # 0: reached t_end, 1: stopped by a terminal event
    nfev: int


def _solver_stats(run: _Run) -> dict:
    names = ("buffer_floor", "D1_crossing", "D2_crossing")
    return {"nfev": int(run.nfev), "rk_steps": int(run.t.size) - 1,
            "status": int(run.status),
            "events": dict(zip(names, run.t_events))}


def _hit_floor(t, y):
    return y[0] - N1_FLOOR


def _integrate(rhs, y0, cfg: TrajectoryConfig, crossings=()) -> _Run:
    """RK45 from 0 to t_end with the module's settings (rtol 1e-8, atol
    1e-12, steps capped at dt_max), stopped when the buffer number y[0]
    falls to N1_FLOOR; with stop_at_threshold also at the first upward
    zero of a crossing function.

    scipy's RK45 supplies the first step, f0 and its Dormand-Prince
    tableau; the steps are taken here in the operations and order of its
    RungeKutta._step_impl and rk_step, and the events follow solve_ivp's
    rules, so every float equals solve_ivp's with dense output.  The
    state is a list of floats, and rhs and the crossings are called with
    it; numpy keeps only the products with the stage matrix K (the five
    stage arguments, the B and E rows and K^T P for the interpolant) and
    the error norm's dot, whose summation order the bits depend on.  The
    elementwise rest (y + dot * h, the error scale and quotient) rounds
    on floats as on arrays.  An event fires when its function reaches
    zero within a step in its direction, its root is brentq on that
    step's interpolant, and a terminal root ends the run there.  A trial
    stage outside the model's domain (T1 below zero as a ramp drives N1
    to the floor) gives a NaN derivative, so its step is rejected and
    retried shorter, and the terminal floor event then stops the run.  A
    step that would fall below ten float spacings of t raises
    StepFailure, and a start outside the domain the DomainError of rhs:
    a NaN first derivative leaves no first step to shorten.
    """
    from scipy.integrate import RK45
    from scipy.optimize import brentq

    rhs(0.0, y0)                # a start outside the domain raises here
    nan_row = (math.nan,) * len(y0)

    def f(t, y):
        try:
            return rhs(t, y)
        except DomainError:
            return nan_row

    events = (_hit_floor, *crossings)
    terminal = (True,) + (cfg.stop_at_threshold,) * len(crossings)
    t_end = float(cfg.t_end)
    solver = RK45(f, 0.0, y0, t_end, rtol=1e-8, atol=1e-12,
                  max_step=cfg.dt_max)
    A, B, C, E, P, K = (solver.A, solver.B, solver.C, solver.E, solver.P,
                        solver.K)
    stages = [(s, K[:s].T, A[s, :s], float(C[s])) for s in range(1, len(C))]
    KT, KT_b, n_stages = K.T, K[:-1].T, len(C)
    rtol, atol, max_step = solver.rtol, float(solver.atol), solver.max_step
    exponent, root_n = solver.error_exponent, len(y0) ** 0.5
    t, y, fy, h_abs, nfev = (0.0, solver.y.tolist(), solver.f,
                             float(solver.h_abs), solver.nfev)
    # the accepted steps as _dense takes them: lengths, start states in
    # one flat array, interpolant coefficients and end points
    hs, ys, Qs, breaks = array("d"), array("d"), [], [0.0]
    t_events: list[list[float]] = [[] for _ in events]
    g = [ev(0.0, y) for ev in events]
    status = None
    while status is None:
        # RungeKutta._step_impl with SAFETY 0.9, MIN_FACTOR 0.2 and
        # MAX_FACTOR 10
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure(solver.TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = fy
            for s, K_s, a, c in stages:
                K[s] = f(t + c * h, [yi + di * h for yi, di in
                                     zip(y, K_s.dot(a).tolist())])
            y_new = [yi + h * di for yi, di in zip(y, KT_b.dot(B).tolist())]
            K[-1] = fy_new = f(t + h, y_new)
            nfev += n_stages
            # scale atol + np.maximum(|y|, |y_new|) * rtol: the conditional
            # keeps a NaN of y_new, which is NaN wherever y is, so a NaN
            # spreads as through np.maximum
            x = np.array([e * h / (atol + (a if a >= b else b) * rtol)
                          for e, a, b in zip(KT.dot(E).tolist(),
                                             map(abs, y), map(abs, y_new))])
            error_norm = math.sqrt(x.dot(x)) / root_n
            if error_norm < 1:
                factor = (10 if error_norm == 0
                          else min(10, 0.9 * error_norm ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** exponent)
            rejected = True
        t_old, y_old, t, y, fy = t, y, t_new, y_new, fy_new
        status = 0 if t >= t_end else None
        Q = KT.dot(P)
        g_new = [ev(t, y) for ev in events]
        t_stop = t
        # the floor fires on the way down, the crossings on the way up
        fired = [g[0] >= 0 >= g_new[0]] + [a <= 0 <= b for a, b in
                                           zip(g[1:], g_new[1:])]
        if True in fired:
            active = [i for i, hit in enumerate(fired) if hit]
            hits = sorted((brentq(lambda s, ev=events[i]: ev(s, _dense(
                                      (h,), y_old, (Q,), (t_old, t),
                                      np.array([s]))[:, 0]),
                                  t_old, t, xtol=4 * _EPS, rtol=4 * _EPS), i)
                          for i in active)
            stop = next((k for k, (_, i) in enumerate(hits) if terminal[i]),
                        None)
            if stop is not None:
                hits = hits[:stop + 1]
                status = 1
                t_stop = hits[-1][0]
            for root, i in hits:
                t_events[i].append(root)
        g = g_new
        if len(breaks) == 1 or breaks[-1] != t_stop:
            # else a stop at the previous step's end: this step is dropped
            hs.append(h)
            ys.extend(y_old)
            Qs.append(Q)
            breaks.append(t_stop)
    return _Run(np.array(breaks), t_events,
                partial(_dense, hs, ys, Qs, breaks), status, nfev)


def _simulate_finite(cfg: TrajectoryConfig):
    s0 = cfg.initial
    model = _Model(cfg)

    run = _integrate(model.rhs, (s0.N1, s0.T1, s0.T2, 0.0), cfg,
                     (model.d1_crossing, model.d2_crossing))
    t_final = float(run.t[-1])
    ts = _sample_grid(cfg, t_final)
    extra = [te[0] for te in run.t_events if te]
    ts = np.unique(np.concatenate([ts, np.asarray(extra, dtype=float)]))
    y = run.sol(ts)
    n1s = np.maximum(y[0], 0.0)
    if run.t_events[0]:
        # the last sample is the floor root; the interpolant misses the
        # floor there by the root's tolerance times dN1/dt (~1e-10 relative
        # under a steep ramp), which would hide it from detect_events
        n1s[-1] = N1_FLOOR
    pts = model.points(ts, n1s, y[1], y[2])
    audit = {"E_removed": y[3],
             "E_total": 3.0 * K_B * (n1s * y[1] + s0.N2 * y[2]),
             "t": ts, **_solver_stats(run)}
    return pts, audit


def _simulate_instant(cfg: TrajectoryConfig):
    s0 = cfg.initial
    p = BudgetParams(eta=cfg.eta, N1_ini=s0.N1, N2=s0.N2, T_ini=s0.T1,
                     omega1_bar=s0.f1.omega_bar, omega2_bar=s0.f2.omega_bar,
                     psd_prefactor=cfg.psd_prefactor)
    model = _Model(cfg)
    m = cfg.evaporation_model
    # buffer number vs time: sampled on ts0 as n1s0, and n1_at(ts) anywhere
    if isinstance(m, RampDriven):
        knots = np.asarray(m.times, dtype=float)
        ts0 = np.unique(np.concatenate([
            _sample_grid(cfg, cfg.t_end), knots[knots <= cfg.t_end]]))
        n1_at = partial(np.interp, xp=m.times, fp=m.numbers)
        n1s0 = n1_at(ts0)
        stats = {"nfev": 0, "rk_steps": 0, "status": None, "events": None}
    else:
        def rhs(t, y):
            n1 = max(y[0], N1_FLOOR)
            return (model.ndot(t, n1, temperature_of(min(n1, p.N1_ini), p)),)

        run = _integrate(rhs, (s0.N1,), cfg)
        ts0 = _sample_grid(cfg, float(run.t[-1]))
        n1s0 = np.maximum(run.sol(ts0)[0], 0.0)
        n1_at = partial(np.interp, xp=ts0, fp=n1s0)
        stats = _solver_stats(run)

    # refine sampling at geometric N1 levels so the steep small-N1 end of
    # the ramp (where both phase-space densities peak) is resolved
    lo = max(N1_FLOOR, float(n1s0.min()) + 1e-300)
    levels = np.geomspace(p.N1_ini, lo, 800)
    order = np.argsort(n1s0, kind="stable")
    t_levels = np.interp(levels, n1s0[order], ts0[order])
    ts = np.unique(np.concatenate([ts0, t_levels]))
    n1s = np.clip(n1_at(ts), 0.0, p.N1_ini)

    Ts = temperature_of(n1s, p)
    pts = model.points(ts, n1s, Ts, Ts, stop=cfg.stop_at_threshold)
    audit = {"E_removed": None, "E_total": None, "t": ts[:len(pts)], **stats}
    return pts, audit


def simulate_with_audit(cfg: TrajectoryConfig):
    """(points, audit) of one cooling trajectory.

    Finite mode integrates the coupled ODEs with an adaptive embedded
    Runge-Kutta scheme (rtol 1e-8, atol 1e-12, steps capped at dt_max) and
    stops cleanly when the buffer is exhausted; with stop_at_threshold
    also at the first condensation flag, else the latched flags mark the
    points beyond the model's validity.  audit["t"] holds the sample
    times; in finite mode E_total[i] - E_total[0] equals E_removed[i] up
    to integrator tolerance (instant mode: None for both).  "nfev",
    "rk_steps" (accepted steps), "status" (0: reached t_end, 1: stopped
    by a terminal event) and "events" come from the RK45 loop of
    _integrate; "events" maps "buffer_floor" and, in finite mode,
    "D1_crossing" and "D2_crossing" to the solver's located roots in
    seconds.  An instant-mode ramp runs no solver and reports 0, 0, None
    and None.
    """
    if cfg.contact_mode == "instant":
        return _simulate_instant(cfg)
    return _simulate_finite(cfg)


def detect_events(points: Sequence[TrajectoryPoint],
                  bec_threshold: float = BEC_THRESHOLD
                  ) -> list[TrajectoryEvent]:
    """Flag transitions of a trajectory, with interpolated times.

    BEC times interpolate the phase-space density through bec_threshold
    (pass the trajectory's TrajectoryConfig.bec_threshold) between the
    bracketing samples; the stall time interpolates the overlap factor
    through 0.01.
    """
    floor = N1_FLOOR * (1.0 + 1e-12)
    events: list[TrajectoryEvent] = []
    # plain attribute loops: a generic getter per point is slower
    for kind, i, value, level in (
            ("bec1", next((i for i, pt in enumerate(points) if pt.bec1), None),
             "D1", bec_threshold),
            ("bec2", next((i for i, pt in enumerate(points) if pt.bec2), None),
             "D2", bec_threshold),
            ("stall", next((i for i, pt in enumerate(points) if pt.stalled),
                           None), "overlap", STALL_OVERLAP),
            ("buffer_exhausted", next((i for i, pt in enumerate(points)
                                       if pt.N1 <= floor), None),
             "N1", N1_FLOOR)):
        if i is None:
            continue
        # a flag set at the first sample places its event there (frac 0)
        a, b = points[max(i - 1, 0)], points[i]
        v0, v1 = getattr(a, value), getattr(b, value)
        frac = 0.0 if v1 == v0 else (level - v0) / (v1 - v0)
        frac = min(max(frac, 0.0), 1.0)
        events.append(TrajectoryEvent(
            kind=kind,
            t=a.t + frac * (b.t - a.t),
            N1=a.N1 + frac * (b.N1 - a.N1),
            T1=a.T1 + frac * (b.T1 - a.T1),
            T2=a.T2 + frac * (b.T2 - a.T2)))
    events.sort(key=lambda e: e.t)
    return events


def region_from_events(points: Sequence[TrajectoryPoint]) -> Region:
    """Regime label of a full-ramp trajectory: region_of_events applied to
    detect_events(points)."""
    return region_of_events(detect_events(points))


def region_of_events(events: Sequence[TrajectoryEvent]) -> Region:
    """Map the chronological condensation events of a full-ramp trajectory
    onto the regime labels of the budget classifier."""
    times = {e.kind: e.t for e in events}
    return _region(times.get("bec1"), times.get("bec2"))
