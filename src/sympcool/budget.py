"""Analytic energy budget for evaporative plus sympathetic cooling.

A buffer gas (species 1) is evaporatively cooled with truncation parameter
eta while a lossless target gas (species 2) rides along through thermal
contact.  Each evaporated atom removes (eta+1) k_B T from the joint energy
3 (N1+N2) k_B T, so the common temperature follows

    dT/T = alpha dN1/(N1+N2),    alpha = (eta-2)/3,

with the closed-form solution (N1_ini + N2 ~ N1_ini at the start)

    T(N1) = T_min (N1/N2 + 1)^alpha,    T_min = T_ini (N2/N1_ini)^alpha.

Along that law the peak phase-space densities of the two species,

    D_i(N1) = prefactor * N_i (hbar omega_i / (k_B T(N1)))^3,

admit a closed-form target endpoint D2_max = D2(N1=0), a closed-form
buffer maximum at N1 = N2/(3 alpha - 1), and a closed-form crossing at
N1 = N2 (omega2/omega1)^3.  Where 3 alpha - 1 > (omega1/omega2)^3 the
crossing comes before the buffer peak, and comparing those three numbers
with the condensation threshold 2.612 partitions the (eta, N2) plane into
cooling regimes; the boundaries expressed as ratios N2_a/N2_c, N2_b/N2_c
depend only on eta and omega2/omega1.  Outside that ordering (the
extrapolation zone) the buffer peaks no later than the curves meet, so a
buffer that condenses at all does so first, and the buffer's height at
its peak, or at the ramp's start when the peak lies beyond it, decides
whether it does (see classify).  No regime needs scipy.  phase_diagram
draws the map from eta, N2/N2_c and omega2/omega1 alone.

temperature_of and phase_space_density, and so psd_curves, take a
plain-float path for float or int inputs (np.float64 included): Python
float arithmetic rounds as numpy's 0-d arrays do, ** through libm pow in
both, so the results equal the numpy path bit for bit.  Arrays keep
numpy, whose SIMD array power differs from libm in the last bit on some
inputs.  Inside the domain of errors (eta up to 20 included) no closed
form overflows; only eta next to 3 puts the critical numbers, whose
exponents carry 1 / (3 alpha - 1), out of the floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import BEC_THRESHOLD, HBAR, K_B, PSD_PREFACTOR
from .errors import (ANGULAR_FREQUENCY, ATOMS, ETA, FREQUENCY_RATIO,
                     PREFACTOR, TEMPERATURE, DomainError, NoInteriorPeak,
                     require_in, require_positive)

_TINY = np.finfo(float).tiny    # smallest positive normal float
_SCALAR = (float, int)          # the inputs that take the plain-float path


class Region(enum.Enum):
    """Cooling regimes over one full evaporation ramp.

    BUFFER_ONLY does not occur when 3*alpha - 1 > (omega1/omega2)^3 (the
    ordering of the Fig. 3 closed forms); it is reachable only in the
    extrapolation zone, where the buffer can out-peak the target.
    """

    DUAL_BUFFER_FIRST = "DualBufferFirst"
    DUAL_TARGET_FIRST = "DualTargetFirst"
    TARGET_ONLY = "TargetOnly"
    BUFFER_ONLY = "BufferOnly"
    NO_BEC = "NoBEC"


@dataclass(frozen=True)
class BudgetParams:
    """Inputs of the closed-form cooling model (strict SI).

    Each field lies in its range of errors (eta in (2, 20]: above 2 so
    that evaporation cools at all), and N1_ini > N2.
    psd_prefactor rescales the classical peak phase-space density onto the
    near-degenerate value and cancels from every regime-boundary ratio.
    """

    eta: float
    N1_ini: float
    N2: float
    T_ini: float               # K
    omega1_bar: float          # rad/s, buffer geometric-mean frequency
    omega2_bar: float          # rad/s, target geometric-mean frequency
    psd_prefactor: float = PSD_PREFACTOR

    def __post_init__(self):
        require_in(ETA, eta=self.eta)
        require_in(ATOMS, N1_ini=self.N1_ini, N2=self.N2)
        require_in(TEMPERATURE, T_ini=self.T_ini)
        require_in(ANGULAR_FREQUENCY, omega1_bar=self.omega1_bar,
                   omega2_bar=self.omega2_bar)
        require_in(PREFACTOR, psd_prefactor=self.psd_prefactor)
        if not self.N1_ini > self.N2:
            raise DomainError("need N1_ini > N2")

    @property
    def alpha(self) -> float:
        return (self.eta - 2.0) / 3.0

    @property
    def T_min(self) -> float:
        """Temperature floor reached when the buffer is fully evaporated."""
        return self.T_ini * (self.N2 / self.N1_ini) ** self.alpha


def _region(first1, first2) -> Region:
    """Regime from when buffer (first1) and target (first2) first reach the
    threshold, in time or any other increasing measure of ramp progress;
    None for a species that never does.  A tie counts as target first."""
    if first1 is not None and first2 is not None:
        return (Region.DUAL_BUFFER_FIRST if first1 < first2
                else Region.DUAL_TARGET_FIRST)
    if first2 is not None:
        return Region.TARGET_ONLY
    if first1 is not None:
        return Region.BUFFER_ONLY
    return Region.NO_BEC


def _closed_form_ordering(p: BudgetParams) -> bool:
    """3 alpha - 1 > (omega1/omega2)^3, the ordering the closed forms use."""
    return (3.0 * p.alpha - 1.0) > (p.omega1_bar / p.omega2_bar) ** 3


@dataclass(frozen=True)
class CoolingOutcome:
    """Regime plus the three decision numbers for one (params, N2) cell.

    closed_form_ordering is False in the extrapolation zone
    3*alpha - 1 <= (omega1/omega2)^3.  There D1_max and N1_at_buffer_peak
    are the buffer curve's maximum over the ramp and where it sits, and
    D_equal is NaN, only there, when the curves meet past the ramp's start
    (N2 (omega2/omega1)^3 > N1_ini).  See classify for the regime rule.
    """

    region: Region
    D1_max: float
    D2_max: float
    D_equal: float
    N1_at_buffer_peak: float
    closed_form_ordering: bool


def temperature_of(N1, p: BudgetParams):
    """Common temperature after evaporating the buffer down to N1 atoms.

    Accepts scalars or arrays.  Strictly increasing in N1, equals T_min at
    N1 = 0; at N1 = N1_ini it sits a relative ~N2/N1_ini above T_ini
    because the closed form drops N2 against N1_ini.
    """
    if isinstance(N1, _SCALAR) and 0 <= N1 <= p.N1_ini * (1 + 1e-12):
        return p.T_min * (float(N1) / p.N2 + 1.0) ** p.alpha
    N1 = np.asarray(N1, dtype=float)
    # written so that NaN fails the check
    if not ((N1 >= 0).all() and (N1 <= p.N1_ini * (1 + 1e-12)).all()):
        raise DomainError("N1 must lie in [0, N1_ini]")
    T = p.T_min * (N1 / p.N2 + 1.0) ** p.alpha
    return float(T) if T.ndim == 0 else T


def phase_space_density(N, T, omega_bar):
    """Classical peak phase-space density N (hbar omega_bar / k_B T)^3.

    Identical to n0 * lambda_dB^3 for a Boltzmann cloud in a harmonic trap
    of geometric-mean frequency omega_bar.  No quantum calibration applied.
    N lies in [0, ATOMS.high] (a ramp runs the buffer down to 0), T in
    TEMPERATURE.
    """
    require_in(ANGULAR_FREQUENCY, omega_bar=omega_bar)
    scalar = isinstance(N, _SCALAR) and isinstance(T, _SCALAR)
    N, T = (float(N), float(T)) if scalar else (np.asarray(N, dtype=float),
                                                np.asarray(T, dtype=float))
    # written so that NaN fails the checks
    if not np.all((0 <= N) & (N <= ATOMS.high)):
        raise DomainError(f"N must be >= 0, at most {ATOMS.high:g}")
    if not np.all((TEMPERATURE.low <= T) & (T <= TEMPERATURE.high)):
        raise DomainError(f"T must be positive, in {TEMPERATURE.text}")
    D = _psd(N, T, HBAR * omega_bar)
    return D if scalar or D.ndim else float(D)


def _psd(N, T, hbar_omega: float):
    """Peak phase-space density of N and T, floats or arrays, given
    HBAR * omega_bar; unchecked, so the caller owns N >= 0, T > 0 and
    omega_bar > 0.

    phase_space_density's and psd_curves' formula, and the trajectory's
    per-sample densities.  float ** 3 goes through libm pow, as numpy's
    power on 0-d arrays and np.float64 does, so the bits equal numpy's on
    scalars; its SIMD power on arrays differs in the last bit on some
    inputs, which is why the trajectory loops over scalars instead of
    taking arrays.
    """
    return N * (hbar_omega / (K_B * T)) ** 3


def psd_curves(N1, p: BudgetParams):
    """Model phase-space densities (D1, D2) of both species at buffer
    number N1, with the calibration prefactor applied to both curves."""
    T = temperature_of(N1, p)
    N1 = float(N1) if isinstance(T, float) else np.asarray(N1, dtype=float)
    return (p.psd_prefactor * _psd(N1, T, HBAR * p.omega1_bar),
            p.psd_prefactor * _psd(p.N2, T, HBAR * p.omega2_bar))


def target_psd_max(p: BudgetParams) -> float:
    """Target phase-space density at the end of the ramp (N1 = 0).

    Closed form: prefactor / N2^(3 alpha - 1) * (N1_ini^alpha hbar
    omega2_bar / (k_B T_ini))^3, i.e. the model D2 curve evaluated at
    T_min.  Scales as N2^(1 - 3 alpha).
    """
    return p.psd_prefactor * _psd(p.N2, p.T_min, HBAR * p.omega2_bar)


def buffer_psd_max(p: BudgetParams) -> tuple[float, float]:
    """Location and height of the buffer's phase-space density maximum.

    Returns (N1_at_peak, D1_max) with N1_at_peak = N2/(3 alpha - 1) and

        D1_max = D2_max (omega1/omega2)^3
                 (3 alpha - 1)^(3 alpha - 1) / (3 alpha)^(3 alpha).

    Raises NoInteriorPeak when 3 alpha <= 1 (D1 then rises with N1 over
    the whole ramp).
    """
    a3 = 3.0 * p.alpha
    if a3 <= 1.0:
        raise NoInteriorPeak(
            f"3*alpha = {a3:.4g} <= 1, the buffer curve has no interior peak"
        )
    n1_peak = p.N2 / (a3 - 1.0)
    ratio = ((p.omega1_bar / p.omega2_bar) ** 3
             * (a3 - 1.0) ** (a3 - 1.0) / a3 ** a3)
    return n1_peak, target_psd_max(p) * ratio


def equal_psd(p: BudgetParams) -> float:
    """Common phase-space density where the two model curves cross.

    The crossing sits at N1 = N2 (omega2/omega1)^3 and has the value
    D2_max (1 + (omega2/omega1)^3)^(-3 alpha).
    """
    r3 = (p.omega2_bar / p.omega1_bar) ** 3
    return target_psd_max(p) * (1.0 + r3) ** (-3.0 * p.alpha)


def critical_numbers(p: BudgetParams) -> tuple[float, float, float]:
    """Target numbers (N2_a, N2_b, N2_c) where D_equal, D1_max and D2_max
    respectively hit the condensation threshold.

    All three follow from the N2^(1 - 3 alpha) scaling, so the ratios
    N2_a/N2_c and N2_b/N2_c depend only on eta and omega2/omega1.  Raises
    NoInteriorPeak when 3 alpha <= 1, and DomainError when eta lies so
    close to 3 that a result overflows or is not a positive normal float.
    """
    a3 = 3.0 * p.alpha
    if a3 <= 1.0:
        raise NoInteriorPeak(
            f"3*alpha = {a3:.4g} <= 1, no critical numbers in closed form"
        )
    # log of D2_max at N2 = 1; every quantity then scales as N2^(1-3a)
    log_k = (math.log(p.psd_prefactor)
             + 3.0 * (p.alpha * math.log(p.N1_ini)
                      + math.log(HBAR * p.omega2_bar / (K_B * p.T_ini))))
    log_ratio_b = (3.0 * math.log(p.omega1_bar / p.omega2_bar)
                   + (a3 - 1.0) * math.log(a3 - 1.0) - a3 * math.log(a3))
    log_ratio_a = -a3 * math.log1p((p.omega2_bar / p.omega1_bar) ** 3)
    try:
        n2_c = math.exp((log_k - math.log(BEC_THRESHOLD)) / (a3 - 1.0))
        n2_b = n2_c * math.exp(log_ratio_b / (a3 - 1.0))
        n2_a = n2_c * math.exp(log_ratio_a / (a3 - 1.0))
    except OverflowError:
        n2_a = n2_b = n2_c = math.inf
    # every exponent above carries 1 / (3 alpha - 1)
    if not all(_TINY <= n < math.inf for n in (n2_a, n2_b, n2_c)):
        raise DomainError(f"eta = {p.eta:.6g} is too close to 3: N2_a, N2_b "
                          "or N2_c over- or underflows")
    return n2_a, n2_b, n2_c


def _regime(at_start: bool, ordered: bool, d1: float, d2_max: float,
            d_eq: float) -> Region:
    """classify's regime rule; at_start: the target is condensed at the
    start, d1: D1_top if at_start or not ordered, else D1_max."""
    if at_start:                    # the buffer can only come second
        return _region(1 if d1 >= BEC_THRESHOLD else None, 0)
    first2 = 1 if d2_max >= BEC_THRESHOLD else None
    if ordered:
        # chronological ranks: the buffer reaches the threshold before the
        # curves meet (0) or after they meet (2), the target after (1)
        return _region(0 if d_eq > BEC_THRESHOLD
                       else 2 if d1 >= BEC_THRESHOLD else None, first2)
    return _region(0 if d1 >= BEC_THRESHOLD else None, first2)


def classify(N2: float, p: BudgetParams) -> CoolingOutcome:
    """Cooling regime for N2 target atoms, everything else taken from p.

    The closed forms decide every cell.  Let D1_top be the buffer curve's
    maximum over the ramp: D1_max if its peak N2/(3 alpha - 1) lies below
    N1_ini, else D1(N1_ini) (eta <= 3 included).  A target condensed from
    the start gives DualTargetFirst if D1_top reaches the threshold, else
    TargetOnly.  Otherwise, under the ordering 3 alpha - 1 >
    (omega1/omega2)^3 the curves meet before the buffer peaks: the buffer
    condenses first if D_equal exceeds the threshold, second if only
    D1_max reaches it.  In the extrapolation zone the buffer peaks no later
    than the curves meet, while D1 > D2, so it condenses, first, if D1_top
    reaches the threshold.  The target condenses if D2_max does (_regime).

    Under the ordering the outcome's fields are the closed forms, also past
    the ramp's start; in the extrapolation zone see CoolingOutcome.
    """
    p = replace(p, N2=float(N2))
    ordered = _closed_form_ordering(p)
    d1_start, d2_start = psd_curves(p.N1_ini, p)
    d2_max = target_psd_max(p)
    if 3.0 * p.alpha > 1.0:
        n1_peak, d1_max = buffer_psd_max(p)
    else:                   # no interior peak: D1 rises with N1 throughout
        n1_peak = d1_max = math.inf
    n1_top, d1_top = ((n1_peak, d1_max) if n1_peak < p.N1_ini
                      else (p.N1_ini, d1_start))
    if ordered:
        d_eq = equal_psd(p)
    else:
        n1_peak, d1_max = n1_top, d1_top
        r = p.omega2_bar / p.omega1_bar
        d_eq = equal_psd(p) if p.N2 * r * r * r <= p.N1_ini else math.nan
    at_start = d2_start >= BEC_THRESHOLD
    region = _regime(at_start, ordered, d1_top if at_start else d1_max,
                     d2_max, d_eq)
    return CoolingOutcome(region=region, D1_max=d1_max, D2_max=d2_max,
                          D_equal=d_eq, N1_at_buffer_peak=n1_peak,
                          closed_form_ordering=ordered)


def _exp_normal(x: float) -> float | None:
    """exp(x) if it is a positive normal float, else None."""
    y = math.exp(x) if x < 709.78 else math.inf   # exp(709.79) overflows
    return y if _TINY <= y < math.inf else None


def phase_diagram(eta_grid, n2_grid, trap_ratio: float) -> dict:
    """Regime table over an (eta, r = N2/N2_c) grid at fixed omega2/omega1,
    in Fig. 3's large-buffer limit: the target is not condensed at the
    start, and the buffer peak and the crossing lie inside the ramp.

    Returns {"rows": [...], "boundaries": [...]}: per cell eta,
    n2_over_n2c, region (_regime's), d1max, d2max and dequal; per eta
    n2a_over_n2c, n2b_over_n2c (NaN for eta <= 3: no interior peak, no
    cells) and closed_form_ordering.  With a3 = 3 alpha, and no N1_ini,
    T_ini or omega1, all in logs:

        D2_max = 2.612 r^(1 - a3),  D1_max = D2_max K_b,  D_equal = D2_max K_a,
        K_a = (1 + (omega2/omega1)^3)^(-a3),  N2_a/N2_c = K_a^(1/(a3 - 1)),
        K_b = (omega1/omega2)^3 (a3 - 1)^(a3 - 1) / a3^a3,  N2_b/N2_c alike.

    eta lies in ETA and trap_ratio in FREQUENCY_RATIO.  A number that is
    not a positive normal float raises DomainError naming eta (a boundary:
    eta too close to 3), or eta and r (a cell).
    """
    require_in(FREQUENCY_RATIO, trap_ratio=trap_ratio)
    r3 = trap_ratio * trap_ratio * trap_ratio   # (omega2/omega1)^3
    rows, boundaries = [], []
    for eta in map(float, eta_grid):
        require_in(ETA, eta=eta)
        a3 = 3.0 * ((eta - 2.0) / 3.0)
        ratio_a = ratio_b = math.nan
        if a3 > 1.0:
            log_ka = -a3 * math.log1p(r3)
            log_kb = ((a3 - 1.0) * math.log(a3 - 1.0) - a3 * math.log(a3)
                      - math.log(r3))
            ratio_a, ratio_b = (_exp_normal(k / (a3 - 1.0))
                                for k in (log_ka, log_kb))
            if None in (ratio_a, ratio_b):
                raise DomainError(f"eta = {eta:.6g} is too close to 3: N2_a/"
                                  "N2_c or N2_b/N2_c over- or underflows")
        ordered = a3 - 1.0 > 1.0 / r3
        boundaries.append({"eta": eta, "n2a_over_n2c": ratio_a,
                           "n2b_over_n2c": ratio_b,
                           "closed_form_ordering": ordered})
        for r in map(float, n2_grid if a3 > 1.0 else ()):
            require_positive(n2_over_n2c=r)
            log_d2 = math.log(BEC_THRESHOLD) + (1.0 - a3) * math.log(r)
            d2, d1, d_eq = (_exp_normal(log_d2 + k)
                            for k in (0.0, log_kb, log_ka))
            if None in (d2, d1, d_eq):
                raise DomainError(f"eta = {eta:.6g}, N2 = {r:.6g} N2_c: a "
                                  "phase-space density over- or underflows")
            rows.append({"eta": eta, "n2_over_n2c": r, "region": _regime(
                             False, ordered, d1, d2, d_eq).value,
                         "d1max": d1, "d2max": d2, "dequal": d_eq})
    return {"rows": rows, "boundaries": boundaries}
