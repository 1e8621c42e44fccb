"""The DSMC collision helpers against reference copies of their earlier,
plainer versions.

`_cell_table` and `_select_pairs` were rewritten to make fewer passes
over the particle arrays: an occupancy table for the self channel's
counts, pair expansion over the cells that drew a candidate only, one key
buffer sorted in place, one boolean buffer for the run edges, and cell
keys built in float64, which are exact below 2**53 cells.  The
rewrite keeps every draw, every pair and every float operation, so on
each case below both versions must give equal outputs and leave the
generator in the same state.
"""

import math

import numpy as np
import pytest

from sympcool import dsmc
from sympcool.errors import DomainError

CELL = 2.4e-6


# ----------------------------------------------------- reference copies

def _ref_cell_table(xs, scratch, cell: float):
    floors = [np.floor(np.divide(x, cell, out=buf), out=buf)
              for x, buf in zip(xs, scratch)]
    lo = np.min([f.min(axis=1) for f in floors], axis=0)
    hi = np.max([f.max(axis=1) for f in floors], axis=0)
    bits = (max(f.shape[1] for f in floors) - 1).bit_length()
    if not np.all(np.abs(np.concatenate([lo, hi])) < 2.0 ** 62):
        raise DomainError(f"particle positions are not finite or lie "
                          f"beyond 2**62 cells of cell_size = {cell:.3g} m")
    span = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(span) << (bits + 1) >= 1 << 63:
        raise DomainError(
            f"cell_size = {cell:.3g} m cuts the clouds into {span} cells "
            f"per axis, too many for a 64-bit key with an ensemble bit and "
            f"{bits} particle-index bits; use a larger cell_size")
    offset = lo.astype(np.int64)[:, None]
    keys = []
    for e, f in enumerate(floors):
        idx = f.astype(np.int64)
        idx -= offset
        key = idx[0]
        key *= span[1]
        key += idx[1]
        key *= span[2]
        key += idx[2]
        key <<= bits + 1
        key |= np.arange(e << bits, (e << bits) + f.shape[1])
        keys.append(key)
    packed = np.sort(np.concatenate(keys))
    run_key = packed >> bits
    starts = np.flatnonzero(np.concatenate([[True],
                                            run_key[1:] != run_key[:-1]]))
    counts = np.diff(np.append(starts, len(packed)))
    run_key = run_key[starts]
    own = [slice(None)] if len(xs) == 1 else [
        np.flatnonzero((run_key & 1) == e) for e in range(len(xs))]
    return packed & ((1 << bits) - 1), (run_key, starts, counts, own)


def _ref_select_pairs(rng, runs, a: int, b: int, factor: float):
    run_key, starts, counts, own = runs
    if a == b:
        at = own[a]
        na, sa = counts[at], starts[at]
        nb, sb, half = na - 1, sa, 0.5
    else:
        at = np.flatnonzero(run_key[1:] == (run_key[:-1] | 1))
        na, sa = counts[at], starts[at]
        nb, sb, half = counts[at + 1], starts[at + 1], 1.0
    m_float = half * na * nb * factor
    m = m_float.astype(np.int64)
    m += rng.random(len(m_float)) < (m_float - m)
    if not m.any():
        return None
    i_loc = dsmc._slots(rng, np.repeat(na, m))
    j_loc = dsmc._slots(rng, np.repeat(nb, m))
    if a == b:
        j_loc += j_loc >= i_loc
    return np.repeat(sa, m) + i_loc, np.repeat(sb, m) + j_loc


# ------------------------------------------------------------- helpers

def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _assert_same_arrays(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def _assert_same_table(xs):
    """Both cell tables of the (3, n) clouds xs agree; returns the runs."""
    order, runs = dsmc._cell_table(xs, [np.empty_like(x) for x in xs], CELL)
    ref_order, ref_runs = _ref_cell_table(
        xs, [np.empty_like(x) for x in xs], CELL)
    _assert_same_arrays(order, ref_order)
    for got, want in zip(runs[:3], ref_runs[:3]):
        _assert_same_arrays(got, want)
    assert len(runs[3]) == len(ref_runs[3])
    for got, want in zip(runs[3], ref_runs[3]):
        if isinstance(want, slice):
            assert got == want
        else:
            _assert_same_arrays(got, want)
    return runs


def _assert_same_selection(runs, a, b, factor, seed=5):
    """Equal pairs (or both None) and equal generator states afterwards."""
    rng, ref_rng = _rng(seed), _rng(seed)
    got = dsmc._select_pairs(rng, runs, a, b, factor)
    want = _ref_select_pairs(ref_rng, runs, a, b, factor)
    if want is None:
        assert got is None
    else:
        for g, w in zip(got, want):
            _assert_same_arrays(g, w)
    np.testing.assert_equal(rng.bit_generator.state,
                            ref_rng.bit_generator.state)
    return want


def _cloud(seed, n, rms_cells=6.0, centre_cells=(0.0, 0.0, 0.0)):
    """n positions, Gaussian about centre_cells with rms_cells per axis,
    as a (3, n) array in metres."""
    g = _rng(seed)
    return (np.asarray(centre_cells, dtype=float)[:, None]
            + rms_cells * g.standard_normal((3, n))) * CELL


def _channels(n_ensembles):
    return [(0, 0)] if n_ensembles == 1 else [(0, 0), (1, 1), (0, 1)]


# --------------------------------------------------------------- cases

@pytest.mark.parametrize("factor", [1e-3, 0.05, 0.37, 2.6])
def test_one_ensemble_matches_reference(factor):
    """A lone ensemble owns every run through a slice."""
    runs = _assert_same_table([_cloud(1, 3000)])
    assert runs[3] == [slice(None)]
    _assert_same_selection(runs, 0, 0, factor)


@pytest.mark.parametrize("factor", [1e-3, 0.05, 0.37, 2.6])
def test_two_ensembles_match_reference(factor):
    xs = [_cloud(2, 2500), _cloud(3, 1800, rms_cells=4.0,
                                  centre_cells=(1.0, -2.0, 0.5))]
    runs = _assert_same_table(xs)
    for a, b in _channels(2):
        _assert_same_selection(runs, a, b, factor, seed=11 + a + b)


def test_large_factor_draws_whole_candidates():
    """A factor this large gives every shared cell an integer part >= 1 in
    its candidate count, so each cell draws several pairs."""
    xs = [_cloud(4, 600, rms_cells=2.0), _cloud(5, 600, rms_cells=2.0)]
    runs = _assert_same_table(xs)
    for a, b in _channels(2):
        pairs = _assert_same_selection(runs, a, b, 4.3)
        assert pairs is not None and len(pairs[0]) >= 4


def test_all_lone_runs_match_reference():
    """Every particle sits alone in its cell: the self channel draws one
    rounding uniform per run and no pair."""
    n = 64
    spread = np.arange(n, dtype=float) * 7.0 + 0.5
    lone = np.stack([spread, -spread, 0.5 * np.ones(n)]) * CELL
    runs = _assert_same_table([lone])
    assert np.all(runs[2] == 1)
    assert _assert_same_selection(runs, 0, 0, 0.9) is None
    # the same lone ensemble next to a crowded one
    runs = _assert_same_table([_cloud(6, 800, rms_cells=2.0), lone])
    for a, b in _channels(2):
        _assert_same_selection(runs, a, b, 0.9)


def test_cross_channel_without_shared_cell():
    """Two clouds far apart share no cell: the cross channel draws nothing
    and selects nothing, the self channels still pair."""
    xs = [_cloud(7, 500, rms_cells=3.0),
          _cloud(8, 500, rms_cells=3.0, centre_cells=(400.0, 0.0, 0.0))]
    runs = _assert_same_table(xs)
    assert _assert_same_selection(runs, 0, 1, 3.0) is None
    for a in (0, 1):
        assert _assert_same_selection(runs, a, a, 0.5) is not None


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("rms_cells", [3.0, 600.0])
def test_far_clouds_match_reference(sign, rms_cells):
    """Clouds 2**40 cells from the origin, a few and thousands of cells
    wide: the offset keys must still equal the reference's."""
    centre = (sign * 2.0 ** 40, sign * 2.0 ** 40 + 17.0, -sign * 2.0 ** 40)
    xs = [_cloud(9, 400, rms_cells, centre),
          _cloud(10, 300, rms_cells, centre)]
    runs = _assert_same_table(xs)
    for a, b in _channels(2):
        _assert_same_selection(runs, a, b, 0.8)


# 2**53 - 1 = 6361 * 69431 * 20394401: cells per axis whose product is the
# largest exact float key count, and one more cell on the last axis
_EXACT_SPAN = (6361, 69431, 20394401)
_OVER_SPAN = (6361, 69431, 20394402)


def _spanning_cloud(seed, n, span):
    """n particles: two in the corner cells of a box of `span` cells per
    axis, the others Gaussian about its centre, as a (3, n) array."""
    g = _rng(seed)
    cells = np.empty((3, n))
    cells[:, 0] = 0.0
    cells[:, 1] = np.asarray(span) - 1.0
    centre = 0.5 * np.asarray(span, dtype=float)[:, None]
    cells[:, 2:] = np.floor(centre + 3.0 * g.standard_normal((3, n - 2)))
    return (cells + 0.5) * CELL


@pytest.mark.parametrize("sizes", [(2,), (40, 7), (256, 256), (255, 2)])
def test_few_particles_below_the_float_key_limit_match_reference(sizes):
    """Fewer than 257 particles leave more key bits than a float keeps
    exact; a cell count of 2**53 - 1 still gives the reference's table."""
    xs = [_spanning_cloud(20 + e, n, _EXACT_SPAN)
          for e, n in enumerate(sizes)]
    assert math.prod(_EXACT_SPAN) == 2 ** 53 - 1
    runs = _assert_same_table(xs)
    for a, b in _channels(len(xs)):
        _assert_same_selection(runs, a, b, 3.0)


@pytest.mark.parametrize("sizes", [(2,), (40, 7), (256, 256)])
def test_few_particles_beyond_the_float_key_limit_are_refused(sizes):
    """2**53 cells and more are refused, though the reference's 64-bit
    integer key would hold them with so few index bits."""
    xs = [_spanning_cloud(30 + e, n, _OVER_SPAN)
          for e, n in enumerate(sizes)]
    _ref_cell_table(xs, [np.empty_like(x) for x in xs], CELL)
    with pytest.raises(DomainError, match=r"cell_size .* 2\*\*53"):
        dsmc._cell_table(xs, [np.empty_like(x) for x in xs], CELL)
