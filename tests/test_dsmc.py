"""Kinetic Monte Carlo building blocks and short end-to-end runs.

Statistical assertions use frozen seeds and bands of at least four
standard errors, so they are deterministic here yet would catch real
regressions of the sampling or collision machinery.
"""

import dataclasses
import hashlib
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sympcool import (
    MASS_LI6,
    MASS_RB87,
    DsmcConfig,
    ParticleEnsemble,
    SpeciesState,
    TrapFrequencies,
    collide_pair,
    fit_relaxation,
    kinetic_temperature,
    run,
    sample_equilibrium,
    total_energy,
)
from sympcool import dsmc
from sympcool.constants import G_STANDARD, K_B
from sympcool.errors import (CellUnderflowWarning, DomainError,
                             InsufficientDecay)

SIG = 1.4e-15
F0 = TrapFrequencies.from_axes(2 * math.pi * 80, 2 * math.pi * 100,
                               2 * math.pi * 125, gravity=0.0)
FG = TrapFrequencies.from_axes(2 * math.pi * 80, 2 * math.pi * 100,
                               2 * math.pi * 125, gravity=G_STANDARD)

ignore_underflow = pytest.mark.filterwarnings(
    "ignore::sympcool.errors.CellUnderflowWarning")


def _species(ss=SIG, sc=SIG, mass=MASS_RB87, label="rb"):
    return SpeciesState(label=label, F=1, mF=-1, mass=mass,
                        sigma_self=ss, sigma_cross=sc)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# ------------------------------------------------------------- sampling

def test_equilibrium_sample_statistics():
    n, T = 40000, 1.0e-6
    ens = sample_equilibrium(_species(), n, T, FG, _rng(7))
    t_kin = kinetic_temperature(ens.velocities, MASS_RB87)
    se = T * math.sqrt(2.0 / (3.0 * n))
    assert abs(t_kin - T) < 4 * se
    v_th = math.sqrt(K_B * T / MASS_RB87)
    for axis, w in enumerate((FG.omega_x, FG.omega_y, FG.omega_z)):
        centre = -FG.sag if axis == 2 else 0.0
        x = ens.positions[:, axis] - centre
        rms = float(np.sqrt(np.mean(x ** 2)))
        assert rms == pytest.approx(v_th / w, rel=4.0 / math.sqrt(2 * n))
        assert abs(np.mean(x)) < 5 * (v_th / w) / math.sqrt(n)


def test_equilibrium_sample_virial():
    """Kinetic and potential energy each hold half the total on average."""
    ens = sample_equilibrium(_species(), 40000, 1e-6, FG, _rng(8))
    kin = 0.5 * MASS_RB87 * float(np.sum(ens.velocities ** 2))
    tot = total_energy(ens, FG)
    assert kin / tot == pytest.approx(0.5, abs=0.01)


def test_equilibrium_sample_zero_temperature():
    ens = sample_equilibrium(_species(), 100, 0.0, FG, _rng(9))
    assert np.all(ens.velocities == 0.0)
    assert np.all(ens.positions[:, :2] == 0.0)
    assert np.all(ens.positions[:, 2] == -FG.sag)


def test_equilibrium_sample_validation():
    with pytest.raises(DomainError):
        sample_equilibrium(_species(), 1, 1e-6, F0, _rng(0))
    with pytest.raises(DomainError):
        sample_equilibrium(_species(), 10, -1e-6, F0, _rng(0))


def test_kinetic_temperature_from_construction():
    v = np.zeros((4, 3))
    v[:2, 0] = (1.0, -1.0)            # variance 0.5 about the zero mean
    T = kinetic_temperature(v, MASS_RB87)
    assert T == pytest.approx(MASS_RB87 * 0.5 / (3 * K_B), rel=1e-12)
    # a common drift carries no temperature
    assert kinetic_temperature(v + 3.0, MASS_RB87) == pytest.approx(T,
                                                                    rel=1e-9)


def test_kinetic_temperature_sums_like_an_n_by_3_array():
    """The (3, n) row form that run records with equals, bit for bit, the
    numpy reductions of a C-ordered (n, 3) array it replaced."""
    rng = _rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 30_000))
        v = (rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1.0)
             + rng.normal(size=3) * rng.uniform(0.0, 5.0))
        dv = v - v.mean(axis=0)
        want = float(MASS_RB87 * np.mean(np.sum(dv * dv, axis=1))
                     / (3.0 * K_B))
        rows = np.array(v.T, order="C")
        assert kinetic_temperature(v, MASS_RB87) == want
        assert dsmc._row_temperature(rows, MASS_RB87) == want


# ------------------------------------------------------------- collisions

def test_collide_pair_conserves_momentum_and_energy():
    rng = _rng(11)
    for _ in range(100):
        v1 = rng.normal(size=3) * 0.01
        v2 = rng.normal(size=3) * 0.02
        m1, m2 = MASS_RB87, MASS_LI6
        w1, w2 = collide_pair(v1, v2, m1, m2, rng)
        p_in = m1 * v1 + m2 * v2
        p_out = m1 * w1 + m2 * w2
        np.testing.assert_allclose(p_out, p_in, rtol=0, atol=1e-30)
        e_in = 0.5 * m1 * v1 @ v1 + 0.5 * m2 * v2 @ v2
        e_out = 0.5 * m1 * w1 @ w1 + 0.5 * m2 * w2 @ w2
        assert e_out == pytest.approx(e_in, rel=1e-12)
        assert np.linalg.norm(w1 - w2) == pytest.approx(
            np.linalg.norm(v1 - v2), rel=1e-12)


def test_collide_pair_flux_weighted_transfer():
    """Averaged over collision flux (weight |v_rel|), one equal-mass
    collision moves k_B (T2 - T1) from gas 2 to gas 1. Monte Carlo against
    the closed form with ~4e5 pairs; the band is 8 standard errors wide."""
    rng = _rng(12)
    T1, T2, m = 1.3e-6, 0.7e-6, MASS_RB87
    n = 400000
    v1 = rng.standard_normal((n, 3)) * math.sqrt(K_B * T1 / m)
    v2 = rng.standard_normal((n, 3)) * math.sqrt(K_B * T2 / m)
    w = np.linalg.norm(v1 - v2, axis=1)
    vg = 0.5 * (v1 + v2)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    w1 = vg + 0.5 * w[:, None] * d
    de1 = 0.5 * m * (np.sum(w1 ** 2, axis=1) - np.sum(v1 ** 2, axis=1))
    mean = float(np.sum(w * de1) / np.sum(w))
    n_eff = float(np.sum(w)) ** 2 / float(np.sum(w ** 2))
    se = float(np.sqrt(np.sum(w * (de1 - mean) ** 2) / np.sum(w))
               / math.sqrt(n_eff))
    assert mean == pytest.approx(K_B * (T2 - T1), abs=4 * se)
    assert abs(mean - K_B * (T2 - T1)) < 0.02 * K_B * abs(T2 - T1)


# ------------------------------------------------------------ propagation

@ignore_underflow
def test_free_flight_is_exact():
    """1000 composed steps must land on the closed-form trap orbit."""
    sp = _species(ss=0.0, sc=0.0)
    pos = np.array([[2e-6, -1e-6, 3e-6], [0.0, 1e-6, -2e-6]])
    vel = np.array([[0.0, 4e-3, -1e-3], [2e-3, 0.0, 3e-3]])
    ens = ParticleEnsemble(species=sp, positions=pos.copy(),
                           velocities=vel.copy())
    dt, steps = 2e-4, 1000
    cfg = DsmcConfig(ensembles=(ens,), traps=(F0,), dt=dt, t_end=steps * dt,
                     cell_size=1e-7, rng_seed=1, record_every=100000)
    out = run(cfg)
    t = steps * dt
    w = np.array([F0.omega_x, F0.omega_y, F0.omega_z])
    expect_x = pos * np.cos(w * t) + vel * np.sin(w * t) / w
    expect_v = vel * np.cos(w * t) - pos * w * np.sin(w * t)
    np.testing.assert_allclose(out.ensembles[0].positions, expect_x,
                               rtol=1e-10, atol=1e-16)
    np.testing.assert_allclose(out.ensembles[0].velocities, expect_v,
                               rtol=1e-10, atol=1e-13)
    assert out.collisions_cum[-1] == 0.0


@ignore_underflow
def test_energy_conserved_with_collisions():
    rng = _rng(21)
    e1 = sample_equilibrium(_species(), 10000, 1.3e-6, F0, rng)
    e2 = sample_equilibrium(_species(label="rb2"), 10000, 0.7e-6, F0, rng)
    cfg = DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                     t_end=0.05, cell_size=2.4e-6, rng_seed=21,
                     record_every=20)
    before = total_energy(e1, F0) + total_energy(e2, F0)
    out = run(cfg)
    after = sum(total_energy(e, F0) for e in out.ensembles)
    assert after == pytest.approx(before, rel=1e-11)
    assert out.collisions_cum[-1] > 0
    # the caller's ensembles are left untouched
    assert total_energy(e1, F0) + total_energy(e2, F0) == before


@ignore_underflow
def test_two_gas_temperatures_converge():
    rng = _rng(22)
    e1 = sample_equilibrium(_species(), 10000, 1.3e-6, F0, rng)
    e2 = sample_equilibrium(_species(label="rb2"), 10000, 0.7e-6, F0, rng)
    cfg = DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                     t_end=0.25, cell_size=2.4e-6, rng_seed=22,
                     record_every=20)
    out = run(cfg)
    d0 = out.temps[0, 0] - out.temps[0, 1]
    d1 = out.temps[-1, 0] - out.temps[-1, 1]
    assert d0 > 0
    assert 0.0 < d1 < 0.85 * d0
    assert abs(out.times[-1] - 0.25) <= 3.2e-4   # whole steps only


@ignore_underflow
def test_equal_temperatures_stay_balanced():
    """Detailed balance: no net energy flow between equal-temperature
    clouds beyond sampling noise (4 standard errors of the mean)."""
    rng = _rng(23)
    T = 1.0e-6
    e1 = sample_equilibrium(_species(), 10000, T, F0, rng)
    e2 = sample_equilibrium(_species(label="rb2"), 10000, T, F0, rng)
    cfg = DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                     t_end=0.15, cell_size=2.4e-6, rng_seed=23,
                     record_every=20)
    out = run(cfg)
    se = T * math.sqrt(2.0 / (3.0 * 10000))
    assert abs(out.temps[-1, 0] - T) < 4 * se
    assert abs(out.temps[-1, 1] - T) < 4 * se


@ignore_underflow
def test_channel_bookkeeping():
    rng = _rng(24)
    e1 = sample_equilibrium(_species(), 10000, 1.3e-6, F0, rng)
    e2 = sample_equilibrium(_species(label="rb2"), 10000, 0.7e-6, F0, rng)
    cfg = DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                     t_end=0.05, cell_size=2.4e-6, rng_seed=24,
                     record_every=20)
    out = run(cfg)
    assert set(out.channel_collisions) == {(0, 0), (1, 1), (0, 1)}
    assert sum(out.channel_collisions.values()) == out.collisions_cum[-1]
    assert all(v >= 0 for v in out.channel_collisions.values())
    assert 0.0 <= out.lone_particle_fraction <= 1.0


@ignore_underflow
def test_cross_only_counter():
    """With self collisions off, the cumulative count is purely the cross
    channel, which is what windowed pair-rate measurements rely on."""
    rng = _rng(25)
    e1 = sample_equilibrium(_species(ss=0.0), 10000, 1.3e-6, F0, rng)
    e2 = sample_equilibrium(_species(ss=0.0, label="rb2"), 10000, 0.7e-6,
                            F0, rng)
    cfg = DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                     t_end=0.05, cell_size=2.4e-6, rng_seed=25,
                     record_every=20)
    out = run(cfg)
    assert set(out.channel_collisions) == {(0, 1)}
    assert out.channel_collisions[(0, 1)] == out.collisions_cum[-1]


@ignore_underflow
def test_runs_are_reproducible():
    def one(seed):
        rng = _rng(26)
        e1 = sample_equilibrium(_species(), 5000, 1.3e-6, F0, rng)
        e2 = sample_equilibrium(_species(label="rb2"), 5000, 0.7e-6, F0, rng)
        cfg = DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                         t_end=0.03, cell_size=2.4e-6, rng_seed=seed,
                         record_every=10)
        return run(cfg)

    a, b, c = one(5), one(5), one(6)
    assert np.array_equal(a.temps, b.temps)
    assert np.array_equal(a.collisions_cum, b.collisions_cum)
    assert np.array_equal(a.ensembles[0].velocities,
                          b.ensembles[0].velocities)
    assert not np.array_equal(a.temps, c.temps)


def _frozen_two_species():
    """Rb against a 14.5 times lighter partner, each in its own sagged
    trap, so both masses and both sags enter every step."""
    rng = _rng(41)
    f1 = TrapFrequencies.from_axes(F0.omega_x, F0.omega_y, F0.omega_z,
                                   gravity=G_STANDARD)
    f2 = TrapFrequencies.from_axes(*(w * math.sqrt(14.5) for w in (
        F0.omega_x, F0.omega_y, F0.omega_z)), gravity=G_STANDARD)
    e1 = sample_equilibrium(_species(4 * SIG, 8 * SIG), 2000, 1.3e-6, f1,
                            rng, weight=10.0)
    e2 = sample_equilibrium(_species(4 * SIG, 8 * SIG, MASS_RB87 / 14.5,
                                     "light"), 2000, 0.7e-6, f2, rng,
                            weight=10.0)
    return DsmcConfig(ensembles=(e1, e2), traps=(f1, f2), dt=1e-4,
                      t_end=0.01, cell_size=2.4e-6, rng_seed=42,
                      record_every=7)


def _frozen_one_species():
    e = sample_equilibrium(_species(4 * SIG, 8 * SIG), 1500, 1.0e-6, F0,
                           _rng(43), weight=10.0)
    return DsmcConfig(ensembles=(e,), traps=(F0,), dt=3.2e-4, t_end=0.032,
                      cell_size=2.4e-6, rng_seed=44, record_every=10)


# sha256 of cos and sin of 4096 seeded angles on the machine that recorded
# the digests below; numpy may evaluate them with other last-bit results
# elsewhere (SIMD versus scalar code), which changes every digest
_TRIG_FINGERPRINT = \
    "e7136d9c892c79416ded36844268c2c6b09d72571237e6e2abf511a85bcad48c"


@ignore_underflow
@pytest.mark.parametrize("make, digest", [
    (_frozen_two_species,
     "3a1b34fe6fca5b00e1a17e40d4db0c90c59dea97ac83a63648415efa94653d20"),
    (_frozen_one_species,
     "086d31acee8c176008e51fb8a2ffa46f0ca869b0e6bb0396b3f1b24a7453669f"),
])
def test_frozen_digest(make, digest):
    """A fixed config and seed give byte-identical temperatures, collision
    counts and final ensembles; the digests were recorded before the step
    kernel was rewritten, so a change of any floating-point operation, of
    the cell grouping or of the random stream shows here."""
    x = 2.0 * math.pi * _rng(0).random(4096)
    trig = hashlib.sha256(np.cos(x).tobytes() + np.sin(x).tobytes())
    if trig.hexdigest() != _TRIG_FINGERPRINT:
        pytest.skip("numpy's cos/sin round differently on this machine")
    out = run(make())
    h = hashlib.sha256()
    h.update(out.temps.tobytes())
    h.update(out.collisions_cum.tobytes())
    for e in out.ensembles:
        h.update(e.positions.tobytes())
        h.update(e.velocities.tobytes())
    assert h.hexdigest() == digest


# the config; per channel (candidates, accepted, overflows, dropped) and
# physical collisions; the lone-particle fraction
_FROZEN_COUNTERS = {
    "two_species": (_frozen_two_species,
                    {(0, 0): ((349, 115, 0, 0), 1150.0),
                     (1, 1): ((2422, 770, 0, 1), 7690.0),
                     (0, 1): ((3109, 968, 0, 1), 9670.0)},
                    0.8403424999999999),
    "one_species": (_frozen_one_species,
                    {(0, 0): ((841, 271, 0, 0), 2710.0)},
                    0.8877533333333338),
}


@ignore_underflow
@pytest.mark.parametrize("name", sorted(_FROZEN_COUNTERS))
def test_frozen_counters(name, recording_math):
    """The counters test_frozen_digest does not hash: every channel's
    diagnostics and collision count and the lone fraction, as recorded
    before the collision step was rewritten for fewer array passes."""
    make, channels, lone = _FROZEN_COUNTERS[name]
    out = run(make())
    assert out.diagnostics == {
        key: dict(zip(("candidates", "accepted", "overflows", "dropped"), c))
        for key, (c, _) in channels.items()}
    assert out.channel_collisions == {key: n for key, (_, n)
                                      in channels.items()}
    assert out.lone_particle_fraction == lone


def test_underflow_warning_advises_larger_cells():
    """Lone particles come from cells too small for the density, so the
    advice is to coarsen the grid (within the resolution limit) or to add
    particles, not to refine it."""
    e = sample_equilibrium(_species(), 200, 1.0e-6, F0, _rng(45))
    cfg = DsmcConfig(ensembles=(e,), traps=(F0,), dt=3.2e-4, t_end=3.2e-3,
                     cell_size=2.4e-6, rng_seed=46)
    with pytest.warns(CellUnderflowWarning,
                      match=r"use a larger cell_size \(up to a quarter of "
                            r"the smallest cloud size\) or add particles"):
        out = run(cfg)
    assert out.lone_particle_fraction > 0.5


@ignore_underflow
def test_diagnostics_count_every_pair():
    out = run(_frozen_two_species())
    assert set(out.diagnostics) == set(out.channel_collisions)
    collided = 0
    for key, d in out.diagnostics.items():
        assert 0 <= d["dropped"] <= d["accepted"] <= d["candidates"]
        assert 0 <= d["overflows"] <= d["candidates"]
        assert (d["accepted"] - d["dropped"]) * 10.0 \
            == out.channel_collisions[key]
        collided += d["accepted"] - d["dropped"]
    assert collided * 10.0 == out.collisions_cum[-1]
    assert sum(d["dropped"] for d in out.diagnostics.values()) > 0


# (cell, particles of ensemble 0, particles of ensemble 1) on a 2.4 um
# grid, in cell order
_POPULATION = [((-2, 1, 3), 1, 4), ((0, 0, -1), 2, 1), ((0, 0, 0), 3, 2),
               ((0, 0, 1), 0, 3), ((1, -1, 0), 5, 0)]


def _fixed_cells():
    """Hand-placed particles of two ensembles in the cells of _POPULATION,
    shuffled within each ensemble, as (3, n) position arrays together with
    each particle's integer cell."""
    rng = _rng(61)
    xs, cells = [], []
    for e in (0, 1):
        at = np.array([c for c, *n in _POPULATION for _ in range(n[e])])
        at = at[rng.permutation(len(at))]
        xs.append(((at + rng.uniform(0.05, 0.95, at.shape)) * 2.4e-6).T.copy())
        cells.append(at)
    return xs, cells


def test_cell_table_orders_by_cell_then_ensemble():
    """One sort gives the order of a stable argsort of (cell, ensemble)."""
    xs, cells = _fixed_cells()
    order, (run_key, starts, counts, own) = dsmc._cell_table(
        xs, [np.empty_like(x) for x in xs], 2.4e-6)
    _, rank = np.unique(np.concatenate(cells), axis=0, return_inverse=True)
    ens = np.repeat([0, 1], [len(c) for c in cells])
    local = np.concatenate([np.arange(len(c)) for c in cells])
    by_key = np.argsort(2 * rank + ens, kind="stable")
    assert np.array_equal(order, local[by_key])
    # one run per occupied (cell, ensemble), in that order
    assert np.all(np.diff(run_key) > 0)
    assert np.array_equal(np.repeat(np.arange(len(counts)), counts),
                          np.unique((2 * rank + ens)[by_key],
                                    return_inverse=True)[1])
    assert np.array_equal(np.repeat(run_key & 1, counts), ens[by_key])
    for e in (0, 1):
        assert np.array_equal(own[e], np.flatnonzero(run_key & 1 == e))
    assert np.array_equal(starts, np.cumsum(counts) - counts)


def test_pair_selection_follows_no_time_counter():
    """Self pairs are two distinct particles of one ensemble in one cell,
    cross pairs one particle of each ensemble in one cell, and the mean
    candidate count per cell is 0.5 n (n - 1) F (self) or n_a n_b F
    (cross)."""
    xs, cells = _fixed_cells()
    _, runs = dsmc._cell_table(xs, [np.empty_like(x) for x in xs],
                               2.4e-6)
    run_key, _, counts, _ = runs
    key_at = np.repeat(run_key, counts)       # (cell, ensemble) per position
    cell_at = np.unique(key_at >> 1, return_inverse=True)[1]
    n = np.array([[n0, n1] for _, n0, n1 in _POPULATION])
    factor, draws = 0.37, 2000
    for a, b, want in ((0, 0, 0.5 * n[:, 0] * (n[:, 0] - 1)),
                       (1, 1, 0.5 * n[:, 1] * (n[:, 1] - 1)),
                       (0, 1, 1.0 * n[:, 0] * n[:, 1])):
        tally = np.zeros((draws, len(_POPULATION)))
        for seed in range(draws):
            sel = dsmc._select_pairs(_rng(seed), runs, a, b, factor)
            if sel is None:
                continue
            pa, pb = sel
            assert np.array_equal(cell_at[pa], cell_at[pb])
            assert np.all(key_at[pa] & 1 == a) and np.all(key_at[pb] & 1 == b)
            if a == b:
                assert np.all(pa != pb)
            tally[seed] = np.bincount(cell_at[pa], minlength=len(n))
        mean = tally.mean(axis=0)
        se = tally.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(se[want * factor % 1 != 0] > 0)
        assert np.all(np.abs(mean - want * factor) <= 4 * se + 1e-12)


def _far_pair(x_a, x_b):
    """Two Rb atoms on the x axis of a 1 Hz trap, drifting slowly apart
    along y, with a cross section so large that sharing a cell for one
    step makes them collide."""
    trap = TrapFrequencies.from_axes(2 * math.pi, 2 * math.pi, 2 * math.pi,
                                     gravity=0.0)
    pos = np.array([[x_a, 1.2e-6, 1.2e-6], [x_b, 1.2e-6, 1.2e-6]])
    vel = np.array([[0.0, 1e-3, 0.0], [0.0, -1e-3, 0.0]])
    ens = ParticleEnsemble(species=_species(ss=1e-9), positions=pos,
                           velocities=vel)
    return DsmcConfig(ensembles=(ens,), traps=(trap,), dt=1e-4,
                      t_end=5e-4, cell_size=2.4e-6, rng_seed=3)


@pytest.mark.parametrize("ia, ib, kept", [
    # pair 1 is dropped on particle 0, so its particle 2 stays free for
    # pair 2; pair 3 repeats particle 1 of pair 0
    ([0, 0, 5, 1], [1, 2, 2, 3], [0, 2]),
    ([4, 7, 9], [8, 3, 2], [0, 1, 2]),           # no particle repeats
    ([3, 6, 6, 8, 1], [6, 3, 9, 9, 2], [0, 3, 4]),  # 9 stays free too
    ([2], [5], [0]),
])
def test_dedup_keeps_first_pair_per_particle(ia, ib, kept):
    """A pair dropped on one particle leaves its other particle free."""
    keep = dsmc._dedup_pairs(np.array(ia, dtype=np.int64),
                             np.array(ib, dtype=np.int64))
    assert keep.dtype == np.int64
    assert keep.tolist() == kept


def _greedy_dedup(ia, ib):
    """Reference: one sequential first-come pass over every pair."""
    seen, keep = set(), []
    for k, (i, j) in enumerate(zip(ia, ib)):
        if i not in seen and j not in seen:
            seen.update((i, j))
            keep.append(k)
    return keep


def _distinct_pairs(particles):
    """Pairs of two distinct particles each, drawn from `particles`."""
    return st.lists(st.tuples(particles, particles).filter(
        lambda p: p[0] != p[1]), min_size=1, max_size=60)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.one_of(
    # few particles: most lists repeat one
    _distinct_pairs(st.integers(0, 12)),
    # many particles: most lists repeat none
    _distinct_pairs(st.integers(0, 10 ** 6)),
    # no particle repeats at all
    st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=120,
             unique=True).map(lambda u: list(zip(u[::2], u[1::2])))))
def test_dedup_matches_sequential_greedy(pairs):
    ia, ib = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    keep = dsmc._dedup_pairs(ia, ib)
    assert keep.dtype == np.int64
    assert keep.tolist() == _greedy_dedup(ia.tolist(), ib.tolist())


@ignore_underflow
def test_distant_particles_never_share_a_cell():
    """1.3 m and 1.4 m lie beyond 2**19 cells of 2.4 um; a bounded cell
    grid would clip both into its edge cell and let them collide."""
    assert run(_far_pair(1.3, 1.3 + 1e-8)).collisions_cum[-1] > 0
    assert run(_far_pair(1.3, 1.4)).collisions_cum[-1] == 0
    assert run(_far_pair(-1.4, 1.4)).collisions_cum[-1] == 0


@ignore_underflow
def test_cell_key_overflow_is_domain_error():
    """A 1 m cloud cut into 0.1 um cells has 1e21 cells, beyond a 64-bit
    key; the run must refuse rather than wrap the keys around."""
    ens = ParticleEnsemble(species=_species(),
                           positions=np.array([[0.0, 0.0, 0.0],
                                               [1.0, 1.0, 1.0]]),
                           velocities=np.zeros((2, 3)))
    cfg = DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.01,
                     cell_size=1e-7, rng_seed=1)
    with pytest.raises(DomainError, match="cell_size"):
        run(cfg)
    # a position with no cell at all is refused the same way
    ens.positions[1, 0] = math.nan
    with pytest.raises(DomainError, match="not finite"):
        run(dataclasses.replace(cfg, cell_size=2.4e-6))


# ------------------------------------------------------------- configuration

def test_config_validation():
    rng = _rng(31)
    e1 = sample_equilibrium(_species(), 100, 1e-6, F0, rng)
    e2 = sample_equilibrium(_species(label="b"), 100, 1e-6, F0, rng)
    ok = dict(dt=3.2e-4, t_end=0.1, cell_size=2.4e-6, rng_seed=1)
    with pytest.raises(DomainError):              # dt vs fastest trap period
        DsmcConfig(ensembles=(e1,), traps=(F0,), **{**ok, "dt": 5e-4})
    with pytest.raises(DomainError):              # cell vs cloud size
        DsmcConfig(ensembles=(e1,), traps=(F0,),
                   **{**ok, "cell_size": 5e-6})
    with pytest.raises(DomainError):
        DsmcConfig(ensembles=(e1,), traps=(F0, F0), **ok)
    with pytest.raises(DomainError):
        DsmcConfig(ensembles=(e1, e2), traps=(F0, F0),
                   **{**ok, "record_every": 0})
    heavy = ParticleEnsemble(species=e2.species, positions=e2.positions,
                             velocities=e2.velocities, weight=2.0)
    with pytest.raises(DomainError):              # mixed weights
        DsmcConfig(ensembles=(e1, heavy), traps=(F0, F0), **ok)


@ignore_underflow
@pytest.mark.parametrize("t_end", [1e-4, 1.6e-4])
def test_config_refuses_a_t_end_that_rounds_to_no_step(t_end):
    """run takes round(t_end / dt) steps: a t_end of at most half a dt
    took none, and a summary's measured rates divided by the zero final
    time (a ZeroDivisionError).  Such a t_end is refused, naming it; the
    next float above half a step takes one."""
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(41))
    ok = dict(ensembles=(ens,), traps=(F0,), dt=3.2e-4, cell_size=2.4e-6,
              rng_seed=1)
    with pytest.raises(DomainError, match="^t_end = .* rounds to no step"):
        DsmcConfig(**ok, t_end=t_end)
    result = run(DsmcConfig(**ok, t_end=math.nextafter(1.6e-4, 1.0)))
    assert result.times.tolist() == [0.0, 3.2e-4]


@pytest.mark.parametrize("value", [math.nan, 2.5, 3.0, True, np.bool_(True),
                                   "5", None])
def test_config_requires_integer_record_every(value):
    """A NaN or fractional record_every gave a history recorded at other
    steps than asked (NaN: first and last only; 2.5: every 5 steps)."""
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(37))
    with pytest.raises(DomainError, match="record_every must be an integer"):
        DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.01,
                   cell_size=2.4e-6, rng_seed=1, record_every=value)


def test_config_accepts_numpy_integer_record_every():
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(37))
    cfg = DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.0032,
                     cell_size=2.4e-6, rng_seed=1,
                     record_every=np.int64(4))
    with pytest.warns(CellUnderflowWarning):
        out = run(cfg)
    assert np.allclose(out.times / 3.2e-4, [0, 4, 8, 10])


@pytest.mark.parametrize("n", [2.5, 4.0, math.nan, True, "8"])
def test_sample_equilibrium_requires_integer_n(n):
    with pytest.raises(DomainError, match="n must be an integer"):
        sample_equilibrium(_species(), n, 1e-6, F0, _rng(38))


@pytest.mark.parametrize("seed", [-3, 1 << 128, "seven", None, 1.5, True])
def test_config_rejects_bad_seed(seed):
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(34))
    with pytest.raises(DomainError, match="rng_seed"):
        DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.01,
                   cell_size=2.4e-6, rng_seed=seed)


def test_config_accepts_largest_seed():
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(34))
    cfg = DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.01,
                     cell_size=2.4e-6, rng_seed=(1 << 128) - 1)
    assert cfg.rng_seed == (1 << 128) - 1


def test_config_allows_point_cloud():
    """A zero-temperature ensemble has no measurable size, so the cell
    bound is skipped rather than dividing by zero."""
    ens = sample_equilibrium(_species(), 10, 0.0, F0, _rng(32))
    cfg = DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.01,
                     cell_size=1.0, rng_seed=1)
    assert cfg.cell_size == 1.0


def test_mismatched_cross_sections_rejected():
    rng = _rng(33)
    e1 = sample_equilibrium(_species(sc=SIG), 100, 1e-6, F0, rng)
    e2 = sample_equilibrium(_species(sc=2 * SIG, label="b"), 100, 1e-6, F0,
                            rng)
    with pytest.raises(DomainError):
        DsmcConfig(ensembles=(e1, e2), traps=(F0, F0), dt=3.2e-4,
                   t_end=0.01, cell_size=2.4e-6, rng_seed=1)


def test_ensemble_validation():
    sp = _species()
    with pytest.raises(DomainError):
        ParticleEnsemble(species=sp, positions=np.zeros((3, 2)),
                         velocities=np.zeros((3, 2)))
    with pytest.raises(DomainError):
        ParticleEnsemble(species=sp, positions=np.zeros((1, 3)),
                         velocities=np.zeros((1, 3)))
    with pytest.raises(DomainError):
        ParticleEnsemble(species=sp, positions=np.zeros((4, 3)),
                         velocities=np.zeros((4, 3)), weight=0.0)


# ------------------------------------------------------------------ fitting

def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 5.0, 400)
    d = 0.6e-6 * np.exp(-1.7 * t)
    rate, err = fit_relaxation(t, d)
    assert rate == pytest.approx(1.7, rel=1e-6)
    assert err < 1e-6


def test_fit_handles_negative_difference():
    t = np.linspace(0.0, 5.0, 400)
    d = -0.6e-6 * np.exp(-1.7 * t)
    rate, _ = fit_relaxation(t, d)
    assert rate == pytest.approx(1.7, rel=1e-6)


def test_fit_coverage_under_noise():
    """With constant Gaussian noise the quoted standard error must cover
    the truth: at least 97 of 100 seeded replicas within 3 sigma."""
    t = np.linspace(0.0, 4.0, 300)
    true = 1.3
    clean = 0.6e-6 * np.exp(-true * t)
    hits = 0
    for seed in range(100):
        noisy = clean + _rng(100 + seed).normal(0.0, 8e-9, size=t.size)
        rate, err = fit_relaxation(t, noisy)
        hits += abs(rate - true) <= 3 * err
    assert hits >= 97


def test_fit_insufficient_decay():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(InsufficientDecay):
        fit_relaxation(t, 1e-6 * np.exp(-0.5 * t))     # only 0.5 e-folds
    with pytest.raises(InsufficientDecay):
        fit_relaxation(t[:5], 1e-6 * np.exp(-10.0 * t[:5]))
    with pytest.raises(InsufficientDecay):
        fit_relaxation(t, np.zeros_like(t))
    with pytest.raises(DomainError):
        fit_relaxation(t, np.ones((2, 25)))


@pytest.mark.parametrize("where, value", [
    ("velocities", math.nan), ("velocities", math.inf),
    ("positions", -math.inf)])
def test_config_rejects_non_finite_ensemble(where, value):
    """A NaN or infinite coordinate is refused at construction, not after
    the first flight step."""
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(35))
    getattr(ens, where)[3, 1] = value
    with pytest.raises(DomainError, match="not finite"):
        DsmcConfig(ensembles=(ens,), traps=(F0,), dt=3.2e-4, t_end=0.01,
                   cell_size=2.4e-6, rng_seed=1)


@pytest.mark.parametrize("knob", ["dt", "t_end", "cell_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_knobs(knob, value):
    ens = sample_equilibrium(_species(), 100, 1e-6, F0, _rng(36))
    ok = dict(dt=3.2e-4, t_end=0.01, cell_size=2.4e-6, rng_seed=1)
    with pytest.raises(DomainError, match="finite"):
        DsmcConfig(ensembles=(ens,), traps=(F0,), **{**ok, knob: value})
