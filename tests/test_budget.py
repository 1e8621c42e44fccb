"""Closed-form cooling budget: frozen oracles and self-consistency.

The canonical parameter set used below (eta = 6.5, 1e8 buffer atoms at
300 uK, 1e4 target atoms, trap ratio sqrt(2)) is the one exercised end to
end by the acceptance suite; the frozen numbers were computed once by hand
from the closed forms and are pinned at rel 1e-12.
"""

import math
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from sympcool import (
    BudgetParams,
    Region,
    buffer_psd_max,
    classify,
    critical_numbers,
    equal_psd,
    phase_diagram,
    phase_space_density,
    psd_curves,
    target_psd_max,
    temperature_of,
)
from scipy.optimize import brentq

from sympcool.budget import _closed_form_ordering, _psd, _region
from sympcool.constants import BEC_THRESHOLD, H_PLANCK, HBAR, K_B, MASS_RB87
from sympcool.errors import TEMPERATURE, DomainError, NoInteriorPeak

OMEGA1 = 289.49564890835956           # rad/s, 56 G soft-sublevel mean
OMEGA2 = OMEGA1 * math.sqrt(2.0)      # stiff sublevel

CANON = BudgetParams(eta=6.5, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                     omega1_bar=OMEGA1, omega2_bar=OMEGA2)


def _scan_region(p: BudgetParams, points: int = 4096) -> Region:
    """Regime from a numeric scan of both model curves over the ramp
    N1: N1_ini -> 0, the oracle of classify's closed forms.

    The grid is geometric in N1 + N2, so the small-N1 end, where both
    curves move fastest, is well resolved.  Each curve's first upward
    threshold crossing is refined by Brent root finding and the two are
    ordered in time.  The curves are evaluated on numpy arrays, so under
    np.errstate(over="raise") the scan raises wherever the model
    overflows on its grid.
    """
    n1 = np.geomspace(p.N1_ini + p.N2, p.N2, points) - p.N2
    n1[0], n1[-1] = p.N1_ini, 0.0
    curves = psd_curves(n1, p)

    def first_crossing(which):
        above = curves[which] >= BEC_THRESHOLD
        if above[0]:
            return n1[0]
        idx = np.flatnonzero(~above[:-1] & above[1:])
        if idx.size == 0:
            return None
        i = idx[0]
        return brentq(lambda x: psd_curves(x, p)[which] - BEC_THRESHOLD,
                      n1[i + 1], n1[i], xtol=1e-30, rtol=1e-15)

    # the ramp runs N1 downwards, so -N1 orders the crossings in time
    up1, up2 = first_crossing(0), first_crossing(1)
    return _region(None if up1 is None else -up1,
                   None if up2 is None else -up2)


# ---------------------------------------------------------------- validation

def test_params_validation():
    with pytest.raises(DomainError):
        replace(CANON, eta=2.0)
    with pytest.raises(DomainError):
        replace(CANON, eta=1.5)
    with pytest.raises(DomainError):
        replace(CANON, N2=0.0)
    with pytest.raises(DomainError):
        replace(CANON, N2=CANON.N1_ini)   # need N1_ini > N2 strictly
    with pytest.raises(DomainError):
        replace(CANON, T_ini=0.0)
    with pytest.raises(DomainError):
        replace(CANON, omega2_bar=-1.0)
    with pytest.raises(DomainError):
        replace(CANON, psd_prefactor=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["eta", "N1_ini", "N2", "T_ini",
                                   "omega1_bar", "omega2_bar",
                                   "psd_prefactor"])
def test_params_reject_non_finite(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        replace(CANON, **{field: value})


def test_eta_limit_of_no_cooling():
    """As eta -> 2+ the exponent alpha vanishes and the temperature stays
    at T_ini for every buffer number."""
    p = replace(CANON, eta=2.0 + 1e-12)
    for n1 in (0.0, CANON.N1_ini / 2, CANON.N1_ini):
        assert temperature_of(n1, p) == pytest.approx(CANON.T_ini, rel=1e-9)


# --------------------------------------------------------- temperature law

def test_temperature_endpoints():
    assert CANON.alpha == pytest.approx(1.5, rel=1e-15)
    # (N2/N1_ini)^alpha = (1e-4)^1.5 = 1e-6 exactly in floats
    assert CANON.T_min == pytest.approx(3e-10, rel=1e-13)
    assert temperature_of(0.0, CANON) == CANON.T_min
    # the closed form neglects N2 against N1_ini at the hot end
    rel = temperature_of(CANON.N1_ini, CANON) / CANON.T_ini - 1.0
    assert 0.0 < rel < 2.0 * CANON.alpha * CANON.N2 / CANON.N1_ini


def test_temperature_monotone_and_array():
    n1 = np.geomspace(1.0, CANON.N1_ini, 200)
    T = temperature_of(n1, CANON)
    assert T.shape == n1.shape
    assert np.all(np.diff(T) > 0)
    assert temperature_of(n1[37], CANON) == T[37]


def test_temperature_domain():
    with pytest.raises(DomainError):
        temperature_of(-1.0, CANON)
    with pytest.raises(DomainError):
        temperature_of(CANON.N1_ini * 1.01, CANON)


def test_temperature_of_rejects_nan():
    with pytest.raises(DomainError, match="N1 must lie"):
        temperature_of(math.nan, CANON)
    with pytest.raises(DomainError, match="N1 must lie"):
        temperature_of(np.array([1.0, math.nan]), CANON)


# ------------------------------------------------- phase-space density

def test_psd_against_peak_density_times_lambda_cubed():
    """N (hbar w / kT)^3 must equal n0 * lambda_dB^3 computed from scratch;
    the atomic mass cancels between the two factors."""
    N, T, w, m = 2.5e5, 450e-9, 2 * math.pi * 137.0, MASS_RB87
    n0 = N * w**3 * (m / (2 * math.pi * K_B * T)) ** 1.5
    lam = H_PLANCK / math.sqrt(2 * math.pi * m * K_B * T)
    # the shipped hbar is the 10-digit CODATA listing, not h/(2 pi) to
    # machine precision, so the agreement bottoms out near 2e-9
    assert phase_space_density(N, T, w) == pytest.approx(n0 * lam**3,
                                                         rel=1e-8)


def test_psd_rejects_nonpositive_temperature():
    with pytest.raises(DomainError):
        phase_space_density(1e4, 0.0, OMEGA1)


@pytest.mark.parametrize("N, T, message", [
    (math.nan, 1e-6, "N must be >= 0"), (-1.0, 1e-6, "N must be >= 0"),
    (1e4, math.nan, "T must be positive")])
def test_psd_rejects_nan_or_negative_number(N, T, message):
    with pytest.raises(DomainError, match=message):
        phase_space_density(N, T, OMEGA1)


def test_psd_curves_carry_the_prefactor():
    d1, d2 = psd_curves(5e5, CANON)
    T = temperature_of(5e5, CANON)
    assert d1 == pytest.approx(
        CANON.psd_prefactor * phase_space_density(5e5, T, OMEGA1), rel=1e-14)
    assert d2 == pytest.approx(
        CANON.psd_prefactor * phase_space_density(CANON.N2, T, OMEGA2),
        rel=1e-14)


def test_psd_curves_reject_nan():
    with pytest.raises(DomainError, match="N1 must lie"):
        psd_curves(math.nan, CANON)


@pytest.mark.parametrize("omega_bar, message", [
    (math.nan, "must be finite"), (math.inf, "must be finite"),
    (-5.0, "must be positive"), (0.0, "must be positive")])
@pytest.mark.parametrize("N", [1e4, np.array([1e4, 2e4])],
                         ids=["scalar", "array"])
def test_psd_rejects_bad_omega_bar(N, omega_bar, message):
    """NaN gave NaN, -5 a negative density and inf an infinite one."""
    with pytest.raises(DomainError, match=f"^omega_bar {message}$"):
        phase_space_density(N, 1e-6, omega_bar)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


_WRAP = st.sampled_from([float, np.float64])


@settings(max_examples=300, deadline=None)
@given(N=st.floats(0.0, 1e12), T=st.floats(1e-12, 1e-2),
       omega=st.floats(1.0, 1e5), wrap=_WRAP)
def test_psd_float_path_equals_0d_numpy_bit_for_bit(N, T, omega, wrap):
    """Scalars take plain floats, 0-d arrays numpy: the same bits."""
    got = phase_space_density(wrap(N), wrap(T), omega)
    want = phase_space_density(np.array(N), np.array(T), omega)
    assert type(got) is float and _bits(got) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(eta=st.floats(2.05, 12.0), N1_ini=st.floats(1e3, 1e12),
       n2=st.floats(1e-3, 0.9), T_ini=st.floats(1e-12, 1e-2),
       omega1=st.floats(1.0, 1e5), omega2=st.floats(1.0, 1e5),
       x=st.floats(0.0, 1.0), wrap=_WRAP)
def test_budget_float_path_equals_0d_numpy_bit_for_bit(
        eta, N1_ini, n2, T_ini, omega1, omega2, x, wrap):
    p = BudgetParams(eta=eta, N1_ini=N1_ini, N2=n2 * N1_ini, T_ini=T_ini,
                     omega1_bar=omega1, omega2_bar=omega2)
    n1 = x * N1_ini
    T = temperature_of(wrap(n1), p)
    T_ref = temperature_of(np.array(n1), p)
    assert type(T) is float and _bits(T) == _bits(T_ref)
    # phase_space_density's numpy formula on 0-d arrays: the ramp's T
    # falls below the temperature domain that function checks
    want = [p.psd_prefactor * _psd(np.array(N), np.array(T), HBAR * omega)
            for N, omega in ((n1, omega1), (p.N2, omega2))]
    got = psd_curves(wrap(n1), p)
    assert all(type(d) is float for d in got)
    assert list(map(_bits, got)) == list(map(_bits, want))


@settings(max_examples=100, deadline=None)
@given(eta=st.floats(3.2, 12.0), ratio=st.floats(1e-3, 3.0))
def test_classify_numbers_equal_the_separate_closed_forms(eta, ratio):
    """classify's decision numbers are those of target_psd_max,
    buffer_psd_max and equal_psd, bit for bit."""
    p = replace(CANON, eta=eta)
    assume(_closed_form_ordering(p))
    n2 = ratio * critical_numbers(p)[2]
    assume(1.0 <= n2 < p.N1_ini)
    out = classify(n2, p)
    q = replace(p, N2=n2)
    assert _bits(out.D2_max) == _bits(target_psd_max(q))
    assert _bits(out.D1_max) == _bits(buffer_psd_max(q)[1])
    assert _bits(out.D_equal) == _bits(equal_psd(q))


def test_target_endpoint_matches_curve_at_zero():
    _, d2 = psd_curves(0.0, CANON)
    assert target_psd_max(CANON) == pytest.approx(d2, rel=1e-13)


def test_target_max_scaling_in_n2():
    """D2_max scales as N2^(1 - 3 alpha); for eta = 6.5 that is N2^-3.5."""
    base = target_psd_max(CANON)
    doubled = target_psd_max(replace(CANON, N2=2e4))
    assert doubled / base == pytest.approx(2.0 ** (1.0 - 4.5), rel=1e-12)


# ------------------------------------------------------ closed-form anchors

def test_buffer_peak_frozen():
    n1_peak, d1_max = buffer_psd_max(CANON)
    assert n1_peak == pytest.approx(2857.1428571428573, rel=1e-12)
    assert d1_max / target_psd_max(CANON) == pytest.approx(
        0.03260144499475338, rel=1e-12)


def test_buffer_peak_dominates_scan():
    """The closed-form peak must top a dense numeric scan of the curve."""
    n1_peak, d1_max = buffer_psd_max(CANON)
    n1 = np.geomspace(1.0, CANON.N1_ini, 20000)
    d1, _ = psd_curves(n1, CANON)
    assert d1_max >= d1.max()
    i = int(np.argmax(d1))
    assert abs(math.log(n1[i] / n1_peak)) < 2e-3   # grid spacing in log N1


def test_no_interior_peak_below_eta_3():
    for eta in (2.5, 3.0):
        p = replace(CANON, eta=eta)
        with pytest.raises(NoInteriorPeak):
            buffer_psd_max(p)
        with pytest.raises(NoInteriorPeak):
            critical_numbers(p)


def test_crossing_frozen_and_consistent():
    d_eq = equal_psd(CANON)
    assert d_eq / target_psd_max(CANON) == pytest.approx(
        0.002379075745283854, rel=1e-12)
    # both model curves pass through the crossing point
    n1_cross = CANON.N2 * (OMEGA2 / OMEGA1) ** 3
    d1, d2 = psd_curves(n1_cross, CANON)
    assert d1 == pytest.approx(d2, rel=1e-12)
    assert d1 == pytest.approx(d_eq, rel=1e-12)


def test_crossing_location_independent_of_eta():
    """The temperature cancels where the curves meet, so the crossing N1
    does not move when eta changes."""
    n1_cross = CANON.N2 * (OMEGA2 / OMEGA1) ** 3
    for eta in (4.0, 6.5, 9.0):
        p = replace(CANON, eta=eta)
        d1, d2 = psd_curves(n1_cross, p)
        assert d1 == pytest.approx(d2, rel=1e-12)


def test_critical_numbers_frozen():
    n2a, n2b, n2c = critical_numbers(CANON)
    assert n2c == pytest.approx(982764.1354954152, rel=1e-12)
    assert n2a / n2c == pytest.approx(0.17799277036528824, rel=1e-12)
    assert n2b / n2c == pytest.approx(0.3760196393123218, rel=1e-12)
    assert n2a < n2b < n2c


def test_critical_numbers_hit_threshold():
    """Each critical number puts its own decision quantity exactly on the
    condensation threshold when substituted back."""
    n2a, n2b, n2c = critical_numbers(CANON)
    assert target_psd_max(replace(CANON, N2=n2c)) == pytest.approx(
        BEC_THRESHOLD, rel=1e-10)
    assert buffer_psd_max(replace(CANON, N2=n2b))[1] == pytest.approx(
        BEC_THRESHOLD, rel=1e-10)
    assert equal_psd(replace(CANON, N2=n2a)) == pytest.approx(
        BEC_THRESHOLD, rel=1e-10)


def test_boundary_ratios_independent_of_prefactor_and_reference():
    a, b, c = critical_numbers(CANON)
    for q in (replace(CANON, psd_prefactor=1.0),
              replace(CANON, N1_ini=3e7, T_ini=120e-6)):
        qa, qb, qc = critical_numbers(q)
        assert qa / qc == pytest.approx(a / c, rel=1e-12)
        assert qb / qc == pytest.approx(b / c, rel=1e-12)


# ------------------------------------------------------------- classification

def test_regions_across_the_boundaries():
    n2a, n2b, n2c = critical_numbers(CANON)
    cases = [(0.5 * n2a, Region.DUAL_BUFFER_FIRST),
             (0.27 * n2c, Region.DUAL_TARGET_FIRST),
             (0.60 * n2c, Region.TARGET_ONLY),
             (1.50 * n2c, Region.NO_BEC)]
    for n2, expected in cases:
        out = classify(n2, CANON)
        assert out.region is expected, (n2 / n2c, out.region)
        assert out.closed_form_ordering


def test_classify_returns_closed_form_numbers_when_ordered():
    out = classify(CANON.N2, CANON)
    n1_peak, d1_max = buffer_psd_max(CANON)
    assert out.D1_max == pytest.approx(d1_max, rel=1e-13)
    assert out.D2_max == pytest.approx(target_psd_max(CANON), rel=1e-13)
    assert out.D_equal == pytest.approx(equal_psd(CANON), rel=1e-13)
    assert out.N1_at_buffer_peak == pytest.approx(n1_peak, rel=1e-13)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eta=st.floats(2.001, 12.0), ratio=st.floats(0.03, 16.0),
       log_n1=st.floats(2.0, 11.0), log_f=st.floats(-7.0, math.log10(0.98)),
       f1=st.floats(30.0, 500.0), log_d=st.floats(-3.0, 3.0),
       at_start=st.booleans())
def test_closed_form_regime_matches_scan(eta, ratio, log_n1, log_f, f1,
                                         log_d, at_start):
    """In both zones, and for a target condensed from the start, the region
    classify takes from the closed forms is the scan's.  T_ini puts D2_max,
    or with at_start D2(N1_ini), at 10^log_d times the threshold, which
    spreads the cells over every region.  The scan resolves the buffer peak
    only to its grid (a relative N2 of about 3 alpha h^2 / 8 for a step h
    in log(N1 + N2)), so it uses 65536 points, which keeps that below the
    1e-6 kept from the threshold by each decision number: D1_top (the
    buffer curve's maximum over the ramp), D2_max, D_equal and D2(N1_ini)."""
    w1 = 2 * math.pi * f1
    n1_ini = 10 ** log_n1
    assume(n1_ini * 10 ** log_f >= 1.0)
    p = BudgetParams(eta=eta, N1_ini=n1_ini, N2=n1_ini * 10 ** log_f,
                     T_ini=1.0, omega1_bar=w1, omega2_bar=ratio * w1)
    d2 = psd_curves(p.N1_ini if at_start else 0.0, p)[1]
    # D2 scales as T_ini^-3 at every N1
    T_ini = (d2 / (BEC_THRESHOLD * 10 ** log_d)) ** (1 / 3)
    assume(TEMPERATURE.low <= T_ini <= TEMPERATURE.high)
    p = replace(p, T_ini=T_ini)
    d1_start, d2_start = psd_curves(p.N1_ini, p)
    d1_top = d1_start
    if 3 * p.alpha > 1 and buffer_psd_max(p)[0] < p.N1_ini:
        d1_top = buffer_psd_max(p)[1]
    numbers = (d1_top, target_psd_max(p), equal_psd(p), d2_start)
    assume(all(abs(d / BEC_THRESHOLD - 1.0) >= 1e-6 for d in numbers))
    assert classify(p.N2, p).region is _scan_region(p, 65536)


def _ratio_forms(eta, r, ratio):
    """(D1_max, D2_max, D_equal) at N2 = r N2_c in the ratio forms of
    phase_diagram's docstring, written with plain powers."""
    a3 = eta - 2.0
    d2 = BEC_THRESHOLD * r ** (1.0 - a3)
    kb = ratio ** -3 * (a3 - 1.0) ** (a3 - 1.0) / a3 ** a3
    ka = (1.0 + ratio ** 3) ** -a3
    return d2 * kb, d2, d2 * ka


def test_phase_diagram_writes_the_cells_the_scan_refuses():
    """Near eta = 3 with a stiff target trap the closed forms hold, and at
    N1_ini 1e8 and T_ini 300 uK N2_c is about 4e-148 atoms, so most cells
    hold less than one target atom: BudgetParams refuses them, and the
    scan with it.  phase_diagram takes no such numbers: it writes every
    cell, with the ratio forms' numbers and, where the cell holds an atom
    or more, the scan's region.  Where D_equal lies far above the
    threshold, the buffer condenses first."""
    eta, ratio = 3.03, 4.0
    w1 = 2 * math.pi * 100.0
    p = BudgetParams(eta=eta, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                     omega1_bar=w1, omega2_bar=ratio * w1)
    assert _closed_form_ordering(p)
    n2c = critical_numbers(p)[2]
    cells = (np.geomspace(1e-156, 1e-150, 13).tolist()
             + [1e-100, 1e-40, 0.5, 1e148, 1e150, 1e152])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = phase_diagram([eta], cells, trap_ratio=ratio)["rows"]
    scanned = 0
    for r, row in zip(cells, rows):
        d1, d2, d_eq = _ratio_forms(eta, r, ratio)
        assert row["d1max"] == pytest.approx(d1, rel=1e-12)
        assert row["d2max"] == pytest.approx(d2, rel=1e-12)
        assert row["dequal"] == pytest.approx(d_eq, rel=1e-12)
        if r * n2c < 1.0:
            with pytest.raises(DomainError, match="^N2 must lie in "):
                replace(p, N2=r * n2c)
            if d_eq > 100 * BEC_THRESHOLD:
                assert row["region"] == Region.DUAL_BUFFER_FIRST.value
        else:
            scanned += 1
            assert row["region"] == _scan_region(replace(p, N2=r * n2c)).value
    assert scanned == 3


_REFERENCE_W1 = 2 * math.pi * 100.0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(eta=st.floats(3.05, 12.0), ratio=st.floats(0.1, 4.0),
       log_r=st.floats(-3.0, 1.0))
def test_phase_diagram_equals_classify_at_the_old_reference_numbers(
        eta, ratio, log_r):
    """Differential test: phase_diagram's ratio forms against classify at
    the numbers the diagram used to hide (N1_ini 1e8, T_ini 300 uK,
    omega1 2 pi 100), on cells of at least one target atom where that
    path does not leave the large-buffer limit (target condensed at the
    start, buffer peak or crossing past N1_ini), nor puts a number within
    rounding of the threshold.  Same region, and every number within 1e-12
    relative."""
    r = 10.0 ** log_r
    p = BudgetParams(eta=eta, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                     omega1_bar=_REFERENCE_W1,
                     omega2_bar=ratio * _REFERENCE_W1)
    try:
        n2a, n2b, n2c = critical_numbers(p)
    except DomainError:
        assume(False)
    n2 = r * n2c
    assume(1.0 <= n2 < p.N1_ini)
    q = replace(p, N2=n2)
    out = classify(n2, p)
    d2_start = psd_curves(p.N1_ini, q)[1]
    assume(d2_start < BEC_THRESHOLD)
    assume(buffer_psd_max(q)[0] < p.N1_ini)
    assume(n2 * ratio ** 3 <= p.N1_ini)
    # a number within rounding of the threshold may fall either side
    assume(all(abs(d / BEC_THRESHOLD - 1.0) > 1e-11
               for d in (out.D1_max, out.D2_max, out.D_equal)))
    table = phase_diagram([eta], [r], trap_ratio=ratio)
    (b,), (row,) = table["boundaries"], table["rows"]
    assert b["closed_form_ordering"] is out.closed_form_ordering
    assert b["n2a_over_n2c"] == pytest.approx(n2a / n2c, rel=1e-12)
    assert b["n2b_over_n2c"] == pytest.approx(n2b / n2c, rel=1e-12)
    assert row["region"] == out.region.value
    assert row["d1max"] == pytest.approx(out.D1_max, rel=1e-12)
    assert row["d2max"] == pytest.approx(out.D2_max, rel=1e-12)
    assert row["dequal"] == pytest.approx(out.D_equal, rel=1e-12)


def test_scan_path_agrees_with_closed_forms():
    """With a soft target trap the boundary ordering fails; the buffer
    still peaks inside the ramp and the curves meet inside it, so classify
    reports the exact closed forms for the peak and the crossing."""
    p = replace(CANON, omega2_bar=0.5 * OMEGA1)
    out = classify(p.N2, p)
    assert not out.closed_form_ordering
    n1_peak, d1_max = buffer_psd_max(p)
    assert n1_peak < p.N1_ini
    assert out.D1_max == d1_max
    assert out.N1_at_buffer_peak == n1_peak
    assert out.D_equal == equal_psd(p)


def test_buffer_only_region_in_extrapolation_zone():
    """A very soft target trap lets the buffer out-peak the target."""
    p = replace(CANON, omega2_bar=0.4 * OMEGA1)
    ratio = buffer_psd_max(p)[1] / target_psd_max(p)
    assert ratio > 1.0
    _, _, n2c = critical_numbers(p)
    out = classify(1.05 * n2c, p)
    assert out.region is Region.BUFFER_ONLY
    assert not out.closed_form_ordering


def test_crossing_nan_when_curves_never_meet():
    """In the extrapolation zone the curves meet at N1_eq = N2
    (omega2/omega1)^3.  Past the ramp's start (N1_eq > N1_ini) they never
    meet on it and D_equal is NaN; inside it D_equal is equal_psd."""
    past = BudgetParams(eta=3.5, N1_ini=1e8, N2=7e7, T_ini=300e-6,
                        omega1_bar=OMEGA1, omega2_bar=1.2 * OMEGA1)
    assert past.N2 * 1.2 ** 3 > past.N1_ini
    out = classify(past.N2, past)
    assert not out.closed_form_ordering
    assert math.isnan(out.D_equal)

    inside = replace(CANON, omega2_bar=0.4 * OMEGA1)
    assert inside.N2 * 0.4 ** 3 <= inside.N1_ini
    out = classify(inside.N2, inside)
    assert not out.closed_form_ordering
    assert out.D_equal == equal_psd(inside)


# --------------------------------------------------------------- phase diagram

def test_phase_diagram_canonical_cell():
    table = phase_diagram([6.5], [0.15, 0.40], trap_ratio=math.sqrt(2.0))
    (b,) = table["boundaries"]
    assert b["eta"] == 6.5
    assert b["n2a_over_n2c"] == pytest.approx(0.17799277036528824, rel=1e-12)
    assert b["n2b_over_n2c"] == pytest.approx(0.3760196393123218, rel=1e-12)
    assert b["closed_form_ordering"] is True
    regions = {row["n2_over_n2c"]: row["region"] for row in table["rows"]}
    assert regions[0.15] == "DualBufferFirst"
    assert regions[0.40] == "TargetOnly"


def test_phase_diagram_skips_low_eta_cells():
    table = phase_diagram([2.5, 3.0, 6.5], [0.5], trap_ratio=math.sqrt(2.0))
    assert len(table["boundaries"]) == 3
    for b in table["boundaries"][:2]:
        assert math.isnan(b["n2a_over_n2c"])
        assert math.isnan(b["n2b_over_n2c"])
    assert len(table["rows"]) == 1
    assert table["rows"][0]["eta"] == 6.5


def test_phase_diagram_rejects_bad_ratio():
    with pytest.raises(DomainError):
        phase_diagram([6.5], [0.5], trap_ratio=0.0)


def test_phase_diagram_names_a_nan_ratio():
    """NaN passed the old `trap_ratio <= 0` check and surfaced as
    "omega2_bar must be finite"."""
    with pytest.raises(DomainError, match="^trap_ratio must be finite$"):
        phase_diagram([6.5], [0.5], trap_ratio=math.nan)


@pytest.mark.parametrize("eta, omega2", [(3.001, 200.0), (3.001, 888.6),
                                         (3.01, 888.6), (3.02, 1.41 * 628.3)])
def test_critical_numbers_refuse_eta_next_to_three(eta, omega2):
    """Just above eta = 3 every exponent carries 1 / (3 alpha - 1): a
    result that overflows, underflows to 0 or is subnormal is a
    DomainError naming eta, not an OverflowError or a written zero."""
    p = BudgetParams(eta=eta, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                     omega1_bar=628.3, omega2_bar=omega2)
    with pytest.raises(DomainError, match=r"^eta = .* too close to 3"):
        critical_numbers(p)


def test_critical_numbers_normal_at_eta_3_05():
    """A little further from 3 the results are small but normal floats and
    come back unchanged."""
    p = BudgetParams(eta=3.05, N1_ini=1e8, N2=1e4, T_ini=300e-6,
                     omega1_bar=628.3, omega2_bar=1.41 * 628.3)
    n2a, n2b, n2c = critical_numbers(p)
    assert np.finfo(float).tiny < n2a < n2b < n2c < 1e-100


def test_phase_diagram_refuses_cells_whose_densities_overflow():
    """At eta 8 the cell N2 = 1e-152 N2_c has D2_max = 2.612 r^(1 - 3 alpha)
    near 1e760, past the floats: phase_diagram refuses the cell, naming
    eta and the cell, instead of writing rows of infinities, and no numpy
    RuntimeWarning comes out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^eta = 8, N2 = 1e-152 N2_c: "
                           "a phase-space density over- or underflows$"):
            phase_diagram([8.0], [1e-152], trap_ratio=2.0)


def test_phase_diagram_refuses_cells_that_overflow():
    """At eta 3.026 and ratio 0.3, N1 / N2 in the model curves overflowed
    at the old reference numbers; the ratio forms write those cells with
    their closed-form numbers.  A cell whose D_equal underflows (eta 12,
    ratio 10, D2_max near 1e-304) is refused naming eta and the cell
    rather than written with dequal 0."""
    rows = phase_diagram([3.026], [0.05, 1.0], trap_ratio=0.3)["rows"]
    for r, row in zip((0.05, 1.0), rows):
        d1, d2, d_eq = _ratio_forms(3.026, r, 0.3)
        assert row["d1max"] == pytest.approx(d1, rel=1e-12)
        assert row["d2max"] == pytest.approx(d2, rel=1e-12)
        assert row["dequal"] == pytest.approx(d_eq, rel=1e-12)
        # outside the ordering the buffer decides alone, and D1_max is high
        assert row["region"] == Region.DUAL_BUFFER_FIRST.value
    with pytest.raises(DomainError, match=r"^eta = 12, N2 = 6.6e\+33 N2_c"):
        phase_diagram([12.0], [6.6e33], trap_ratio=10.0)


@pytest.mark.parametrize("eta, ratio", [(3.0001, 1.0), (3.001, 0.3),
                                        (3.002, 4.0)])
def test_phase_diagram_refuses_boundaries_next_to_three(eta, ratio):
    """Just above eta = 3 the boundary exponents carry 1 / (3 alpha - 1),
    and N2_a/N2_c or N2_b/N2_c under- or overflows: a DomainError naming
    eta, with no numpy RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^eta = {eta} is too close "
                           "to 3: N2_a/N2_c or N2_b/N2_c over- or "
                           "underflows$"):
            phase_diagram([eta], [0.5], trap_ratio=ratio)
