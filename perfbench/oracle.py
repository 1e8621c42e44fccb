"""Independent reference computations for the benchmark's checks.

Nothing here calls sympcool: the formulas are written out again from
the physics (Ioffe-Pritchard trap, Gaussian-cloud overlap rate, closed
-form energy budget, two-temperature contact ODE), so an error in the
program cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, curve_fit

K_B = 1.380649e-23          # J/K
HBAR = 1.054571817e-34      # J s
MU_B = 9.2740100783e-24     # J/T
AMU = 1.66053906660e-27     # kg
G_STANDARD = 9.80665        # m/s^2
M_RB87 = 86.909180531 * AMU
BEC = 2.612                 # zeta(3/2), the default condensation threshold
PSD_PREFACTOR = 2.17


# ------------------------------------------------------------------ trap

def ioffe_pritchard(F: int, mF: int, mass: float, B0: float, G: float,
                    C: float, gravity: float) -> dict:
    """Axial and radial angular frequencies, geometric mean and sag."""
    s = (-1) ** F * mF
    w_r = math.sqrt(s * MU_B * (G * G / B0 - C) / (2.0 * mass))
    w_x = math.sqrt(s * MU_B * C / (2.0 * mass))
    return {"omega_x": w_x, "omega_y": w_r, "omega_z": w_r,
            "omega_bar": (w_x * w_r * w_r) ** (1.0 / 3.0),
            "sag": gravity / (w_r * w_r)}


# --------------------------------------------------------------- contact

def pair_widths(T1, T2, M1, M2, w1, w2):
    """rms widths of the pair density along each axis (w1, w2: 3 omegas)."""
    return [math.sqrt(K_B * T1 / (M1 * a * a) + K_B * T2 / (M2 * b * b))
            for a, b in zip(w1, w2)]


def overlap(T1, T2, M1, M2, w1, w2, delta) -> float:
    rz = pair_widths(T1, T2, M1, M2, w1, w2)[2]
    return math.exp(-delta * delta / (2.0 * rz * rz))


def pair_rate(N1, N2, T1, T2, M1, M2, w1, w2, sigma, delta) -> float:
    """Cross-collision rate of two Gaussian clouds with Maxwellian
    velocities: sigma <v_rel> integrated over n1 n2, whose product is
    N1 N2 sigma V / (pi^2 rho_x rho_y rho_z) times the offset Gaussian."""
    rx, ry, rz = pair_widths(T1, T2, M1, M2, w1, w2)
    v = math.sqrt(K_B * T1 / M1 + K_B * T2 / M2)
    return (N1 * N2 * sigma * v / (math.pi ** 2 * rx * ry * rz)
            * math.exp(-delta * delta / (2.0 * rz * rz)))


def xi(M1, M2) -> float:
    return 4.0 * M1 * M2 / (M1 + M2) ** 2


def relaxation_rate(N1, N2, T1, T2, M1, M2, w1, w2, sigma, delta) -> float:
    return (xi(M1, M2) * pair_rate(N1, N2, T1, T2, M1, M2, w1, w2, sigma,
                                   delta) * (N1 + N2) / (3.0 * N1 * N2))


def self_rate(N, T, omega_bar, sigma, mass) -> float:
    """Mean per-atom collision rate N w^3 sigma M / (2 pi^2 k_B T)."""
    return N * omega_bar ** 3 * sigma * mass / (2.0 * math.pi ** 2 * K_B * T)


# ------------------------------------------------------------------ DSMC

def mechanical_energy(pos, vel, mass, omegas, sag) -> float:
    """Kinetic plus harmonic energy about the sagged centre (0, 0, -sag)."""
    d = np.array(pos, dtype=float)
    d[:, 2] += sag
    w2 = np.asarray(omegas, dtype=float) ** 2
    return 0.5 * mass * float(np.sum(np.asarray(vel) ** 2)
                              + np.sum(w2 * d * d))


def exp_decay_rate(t, d, guess_rate) -> float:
    """Rate of d(t) = A exp(-r t) by unweighted nonlinear least squares
    (the kinetic-temperature noise is constant in absolute terms)."""
    popt, _ = curve_fit(lambda x, a, r: a * np.exp(-r * x), t, d,
                        p0=(float(d[0]), guess_rate), maxfev=10000)
    return float(popt[1])


# ---------------------------------------------------------------- budget

def budget_curves(eta, N1_ini, N2, T_ini, w1, w2, pref=PSD_PREFACTOR):
    """(D1, D2) as functions of the buffer number along the closed-form
    temperature law T = T_min (N1/N2 + 1)^alpha."""
    alpha = (eta - 2.0) / 3.0
    t_min = T_ini * (N2 / N1_ini) ** alpha

    def temp(n1):
        return t_min * (n1 / N2 + 1.0) ** alpha

    def d1(n1):
        return pref * n1 * (HBAR * w1 / (K_B * temp(n1))) ** 3

    def d2(n1):
        return pref * N2 * (HBAR * w2 / (K_B * temp(n1))) ** 3

    return d1, d2


def log_n2_critical(eta, N1_ini, T_ini, w2, pref=PSD_PREFACTOR,
                    th=BEC) -> float:
    """Log of the target number whose end-of-ramp D2 equals the
    threshold; D2_max scales as N2^(1 - 3 alpha)."""
    a3 = eta - 2.0
    log_k = (math.log(pref) + 3.0 * math.log(HBAR * w2 / (K_B * T_ini))
             + a3 * math.log(N1_ini))
    return (log_k - math.log(th)) / (a3 - 1.0)


def n2_critical(eta, N1_ini, T_ini, w2, pref=PSD_PREFACTOR, th=BEC) -> float:
    return math.exp(log_n2_critical(eta, N1_ini, T_ini, w2, pref, th))


def budget_outcome(eta, N1_ini, N2, T_ini, w1, w2, pref=PSD_PREFACTOR,
                   th=BEC) -> dict:
    """Regime and decision numbers of one budget cell.

    Where the closed-form ordering 3 alpha - 1 > (w1/w2)^3 holds, the
    regime follows from comparing the threshold with D_equal < D1_max <
    D2_max; elsewhere both curves are scanned on a dense grid of their
    own and the first upward crossings are ordered in time.
    """
    d1, d2 = budget_curves(eta, N1_ini, N2, T_ini, w1, w2, pref)
    a3 = eta - 2.0
    ordering = (a3 - 1.0) > (w1 / w2) ** 3
    out = {"d2max": d2(0.0), "ordering": ordering}
    if ordering:
        out["d1max"] = d1(N2 / (a3 - 1.0))
        out["dequal"] = d2(N2 * (w2 / w1) ** 3)
        if th <= out["dequal"]:
            out["region"] = "DualBufferFirst"
        elif th <= out["d1max"]:
            out["region"] = "DualTargetFirst"
        elif th <= out["d2max"]:
            out["region"] = "TargetOnly"
        else:
            out["region"] = "NoBEC"
        return out
    y = np.geomspace(N1_ini + N2, N2, 20001)
    n1 = y - N2
    n1[0], n1[-1] = N1_ini, 0.0

    def first_up(f):
        above = np.flatnonzero(f(n1) >= th)
        if above.size == 0:
            return None
        i = int(above[0])
        if i == 0:
            return n1[0]
        return brentq(lambda x: f(x) - th, n1[i], n1[i - 1],
                      xtol=1e-300, rtol=1e-15)

    up1, up2 = first_up(d1), first_up(d2)
    if up1 is not None and up2 is not None:
        out["region"] = "DualBufferFirst" if up1 > up2 else "DualTargetFirst"
    elif up2 is not None:
        out["region"] = "TargetOnly"
    elif up1 is not None:
        out["region"] = "BufferOnly"
    else:
        out["region"] = "NoBEC"
    return out


def boundary_ratios(eta, ratio) -> tuple[float, float]:
    """(N2_a/N2_c, N2_b/N2_c) at trap ratio w2/w1, for 3 alpha > 1."""
    a3 = eta - 2.0
    rb = ((1.0 / ratio) ** 3 * (a3 - 1.0) ** (a3 - 1.0) / a3 ** a3) \
        ** (1.0 / (a3 - 1.0))
    ra = (1.0 + ratio ** 3) ** (-a3 / (a3 - 1.0))
    return ra, rb


# ------------------------------------------------------------ trajectory

# The program integrates at rtol 1e-8, atol 1e-12 (atoms, K).  Its global
# error stays near 1e-8 relative, except where a temperature falls to
# ~10 nK and atol takes over (3e-13 K seen); worst misfit seen: 0.015.
ODE_REL, ODE_ABS = 1e-5, 2e-12


def ode_misfit(got, ref) -> float:
    """Worst |got - ref| in units of ODE_REL |ref| + ODE_ABS; <= 1 passes."""
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref) / (ODE_REL * np.abs(ref)
                                             + ODE_ABS)))


def two_temperature(spec: dict, t_eval) -> np.ndarray:
    """Re-integrate the finite-contact trajectory ODE.

        dN1/dt = -c gamma1 exp(-eta) N1,
        dT1/dt = (eta - 2) T1 dN1/dt / (3 N1) + W / (3 N1 k_B),
        dT2/dt = -W / (3 N2 k_B),
        W      = xi k_B (T2 - T1) Gamma(N1, N2, T1, T2),

    with gamma1 the buffer's own per-atom collision rate.  Uses DOP853 at
    rtol 1e-12 on scaled variables and returns (N1, T1, T2) at t_eval,
    shape (3, len(t_eval)).
    """
    n0, t0 = spec["N1"], spec["T1"]
    eta, c, N2 = spec["eta"], spec["prefactor"], spec["N2"]
    M1, M2, w1, w2 = spec["M1"], spec["M2"], spec["w1"], spec["w2"]
    sig12, sig1, delta = spec["sigma12"], spec["sigma_self"], spec["delta"]
    wbar1 = (w1[0] * w1[1] * w1[2]) ** (1.0 / 3.0)
    x = xi(M1, M2)
    loss = c * math.exp(-eta)

    def rhs(t, y):
        n1 = max(y[0] * n0, 1.0)
        T1, T2 = y[1] * t0, y[2] * t0
        nd = -loss * self_rate(n1, T1, wbar1, sig1, M1) * n1
        w = x * K_B * (T2 - T1) * pair_rate(n1, N2, T1, T2, M1, M2, w1, w2,
                                            sig12, delta)
        dT1 = (eta - 2.0) * T1 * nd / (3.0 * n1) + w / (3.0 * n1 * K_B)
        dT2 = -w / (3.0 * N2 * K_B)
        return (nd / n0, dT1 / t0, dT2 / t0)

    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(t_eval[-1])),
                    (1.0, 1.0, spec["T2"] / t0), method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=t_eval)
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y * np.array([[n0], [t0], [t0]])
