"""Direct simulation Monte Carlo of trapped clouds with elastic collisions.

Test particles move on the exact flow of the harmonic-plus-gravity
potential (a rotation in each axis' phase plane about the sagged
equilibrium, which is symplectic and conserves energy to round-off, so
the free flight places no accuracy limit on dt).  Each species is held as
(3, n) position and velocity arrays that the flight rotates in place.
Collisions use a majorant-frequency (no-time-counter) scheme on uniform
cubic cells: in every cell and for every species pair a number of
candidate pairs proportional to sigma * v_max * dt is drawn, each
accepted with probability |v_rel| / v_max, and accepted pairs scatter
isotropically in their centre-of-mass frame, conserving momentum exactly
and kinetic energy to round-off.

Because the velocity distribution of a harmonic-trap equilibrium is the
same everywhere in the cloud, a single adaptive majorant per species pair
is as sharp as a per-cell one.  Cells are addressed by compact integer
keys over the clouds' bounding box, so no grid is allocated and no
particle is ever clipped into another cell.  One ensemble bit and then
the particle index are packed below the cell key, which makes the keys
unique, so one plain sort per step groups the particles of every
ensemble by (cell, ensemble) in an order that does not depend on numpy's
sort algorithm; self and cross channels draw their pairs from that one
table.  All randomness flows from one counter-based Philox generator,
making runs reproducible bit-for-bit for a given (config, seed).

Cost per step at 2 x 10^4 particles in two ensembles, 2.4 um cells
(the benchmark's centred relaxation, one core of a 2-vCPU Xeon VM):
free flight about 175 us, cell table about 480 us (the sort of the
packed keys about 130 of it, the divide and floor about 55), pair
selection in three channels about 320 us (one Philox uniform per
occupied cell and channel, about 90 us of draws), acceptance, dedup and
scattering of the few candidates about 190 us, and the temperature
records about 65 us averaged over the steps.  `run` reports these spans
per run in `DsmcResult.timings`."""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import K_B
from .errors import (CELL_SIZE, DURATION, TEMPERATURE, CellUnderflowWarning,
                     DomainError, InsufficientDecay, require_in,
                     require_integer, require_positive)
from .physics import SpeciesState, TrapFrequencies


@dataclass
class ParticleEnsemble:
    """Test particles of one species; each stands for `weight` real atoms."""

    species: SpeciesState
    positions: np.ndarray     # (n, 3) m
    velocities: np.ndarray    # (n, 3) m/s
    weight: float = 1.0

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=float)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=float)
        if self.positions.shape != self.velocities.shape \
                or self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise DomainError("positions/velocities must both be (n, 3)")
        if len(self.positions) < 2:
            raise DomainError("an ensemble needs at least 2 test particles")
        for name in ("positions", "velocities"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} must be finite")
        require_positive(weight=self.weight)

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class DsmcConfig:
    """One or two ensembles, their traps, and the numerical knobs.

    dt must resolve the fastest trap period (dt < 0.05 * 2 pi / max omega),
    t_end must hold at least one step (run takes round(t_end / dt) steps)
    and cell_size must resolve the density profile (<= min rms size / 4,
    checked against each ensemble's measured kinetic temperature).
    """

    ensembles: tuple[ParticleEnsemble, ...]
    traps: tuple[TrapFrequencies, ...]
    dt: float
    t_end: float
    cell_size: float
    rng_seed: int
    record_every: int = 10

    def __post_init__(self):
        if len(self.ensembles) not in (1, 2) \
                or len(self.traps) != len(self.ensembles):
            raise DomainError("need 1 or 2 ensembles with matching traps")
        require_in(DURATION, dt=self.dt, t_end=self.t_end)
        if round(self.t_end / self.dt) < 1:
            raise DomainError(f"t_end = {self.t_end:.3g} s rounds to no "
                              f"step of dt = {self.dt:.3g} s")
        require_in(CELL_SIZE, cell_size=self.cell_size)
        # ensembles are mutable: checked again, as they are now
        if not all(np.isfinite(e.positions).all()
                   and np.isfinite(e.velocities).all()
                   for e in self.ensembles):
            raise DomainError("ensemble positions or velocities are not "
                              "finite")
        require_integer(1, record_every=self.record_every)
        if not (isinstance(self.rng_seed, numbers.Integral)
                and not isinstance(self.rng_seed, bool)
                and 0 <= self.rng_seed < 1 << 128):
            raise DomainError(f"rng_seed must be an integer in [0, 2**128) "
                              f"to key the Philox generator, got "
                              f"{self.rng_seed!r}")
        w_max = max(max(f.omega_x, f.omega_y, f.omega_z) for f in self.traps)
        if self.dt >= 0.05 * 2.0 * math.pi / w_max:
            raise DomainError(
                f"dt = {self.dt:.3g} s does not resolve the fastest trap "
                f"period, need < {0.05 * 2 * math.pi / w_max:.3g} s")
        for ens, trap in zip(self.ensembles, self.traps):
            t_kin = kinetic_temperature(ens.velocities, ens.species.mass)
            if t_kin == 0.0:
                continue
            rho_min = min(
                math.sqrt(K_B * t_kin / ens.species.mass) / w
                for w in (trap.omega_x, trap.omega_y, trap.omega_z))
            if self.cell_size > rho_min / 4.0:
                raise DomainError(
                    f"cell_size = {self.cell_size:.3g} m exceeds a quarter "
                    f"of the smallest cloud size {rho_min:.3g} m")
        if len({e.weight for e in self.ensembles}) != 1:
            raise DomainError("all ensembles must share one weight")
        if len({e.species.sigma_cross for e in self.ensembles}) != 1:
            raise DomainError("the two species disagree on sigma_cross")


@dataclass
class DsmcResult:
    times: np.ndarray            # (k,)
    temps: np.ndarray            # (k, n_species) kinetic temperatures, K
    collisions_cum: np.ndarray   # (k,) physical collision count
    ensembles: tuple[ParticleEnsemble, ...]
    lone_particle_fraction: float
    # physical collision count per channel, keyed by the ensemble index
    # pair (i, i) for same-species and (0, 1) for cross-species collisions
    channel_collisions: dict[tuple[int, int], float] | None = None
    # per channel, keyed like channel_collisions: candidate pairs drawn,
    # pairs accepted, majorant overflows (pairs whose speed exceeded the
    # v_max of their acceptance draw) and accepted pairs dropped because a
    # particle already collided that step; accepted - dropped is the
    # number of test-particle collisions
    diagnostics: dict[tuple[int, int], dict[str, int]] | None = None
    # seconds spent per phase of the step: "propagate" (free flight),
    # "cell_table", "select" (candidate pairs), "collide" (acceptance,
    # dedup and scattering) and "record" (the temperature history)
    timings: dict[str, float] | None = None


def kinetic_temperature(velocities: np.ndarray, mass: float) -> float:
    """Temperature from the velocity spread about the ensemble mean."""
    return _row_temperature(np.asarray(velocities, dtype=float).T, mass)


def _row_temperature(v: np.ndarray, mass: float) -> float:
    """kinetic_temperature of (3, n) velocity rows, without an (n, 3) copy.

    The sums run in the order numpy takes for an (n, 3) C-ordered array:
    the mean adds each row sequentially (cumsum), the squares add the three
    components left to right, and np.mean adds the n results pairwise.
    """
    dv = v - (np.cumsum(v, axis=1)[:, -1] / v.shape[1])[:, None]
    dv *= dv
    return float(mass * np.mean((dv[0] + dv[1]) + dv[2]) / (3.0 * K_B))


def total_energy(ens: ParticleEnsemble, trap: TrapFrequencies) -> float:
    """Kinetic plus harmonic potential energy about the sagged centre [J]."""
    m = ens.species.mass
    omegas = np.array([trap.omega_x, trap.omega_y, trap.omega_z])
    dx = ens.positions - np.array([0.0, 0.0, -trap.sag])
    kin = 0.5 * m * np.sum(ens.velocities ** 2)
    pot = 0.5 * m * np.sum(omegas ** 2 * dx ** 2)
    return float(kin + pot)


def sample_equilibrium(species: SpeciesState, n: int, T: float,
                       trap: TrapFrequencies, rng: np.random.Generator,
                       weight: float = 1.0) -> ParticleEnsemble:
    """Draw n test particles from thermal equilibrium at temperature T.

    Positions are Gaussian per axis with rms sqrt(k_B T / M) / omega,
    centred on the sagged equilibrium (0, 0, -sag); velocities are
    Maxwell-Boltzmann.  T = 0 collapses everything onto the centre; any
    other T lies in TEMPERATURE.
    """
    require_integer(2, n=n)
    if T != 0:
        require_in(TEMPERATURE, T=T)
    m = species.mass
    v_th = math.sqrt(K_B * T / m)
    omegas = np.array([trap.omega_x, trap.omega_y, trap.omega_z])
    pos = rng.standard_normal((n, 3)) * (v_th / omegas)
    pos[:, 2] -= trap.sag
    vel = rng.standard_normal((n, 3)) * v_th
    return ParticleEnsemble(species=species, positions=pos, velocities=vel,
                            weight=weight)


# scales of the two uniforms of a direction: 2 u - 1 is cos(theta), and
# 2 pi u is phi
_ISO_SCALE = np.array([[2.0], [2.0 * math.pi]])


def _iso_directions(rng: np.random.Generator, k: int) -> np.ndarray:
    """k unit vectors uniform on the sphere, as a (3, k) array: k uniforms
    for cos(theta), then k for phi, drawn in one call."""
    u = rng.random(2 * k).reshape(2, k)
    u *= _ISO_SCALE
    d = np.empty((3, k))
    np.subtract(u[0], 1.0, out=d[2])
    np.cos(u[1], out=d[0])
    np.sin(u[1], out=d[1])
    # sin(theta); |cos(theta)| <= 1 keeps 1 - cos^2 >= 0 in floats too
    s = d[2] * d[2]
    np.subtract(1.0, s, out=s)
    d[:2] *= np.sqrt(s, out=s)
    return d


def _speeds(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Relative speeds of k pairs given as (3, k) velocity arrays."""
    rel = va - vb
    rel *= rel
    return np.sqrt(rel[0] + rel[1] + rel[2])


def _scatter(va, vb, ma: float, mb: float, speed, rng: np.random.Generator):
    """Post-collision velocities of k pairs, (3, k) each: the relative
    velocity keeps its magnitude and takes an isotropic direction in the
    centre-of-mass frame, so momentum is conserved exactly and kinetic
    energy to round-off."""
    mtot = ma + mb
    vg = (ma * va + mb * vb) / mtot
    d = _iso_directions(rng, len(speed))
    d *= speed
    return vg + (mb / mtot) * d, vg - (ma / mtot) * d


def collide_pair(v1, v2, m1: float, m2: float,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Elastic s-wave collision of one pair (the kernel `run` applies to
    every accepted pair): isotropic relative direction, exact momentum
    conservation, kinetic energy conserved to round-off."""
    va = np.asarray(v1, dtype=float).reshape(3, 1)
    vb = np.asarray(v2, dtype=float).reshape(3, 1)
    w1, w2 = _scatter(va, vb, m1, m2, _speeds(va, vb), rng)
    return w1[:, 0], w2[:, 0]


class _Flight:
    """Exact phase-space rotation of one species over a fixed dt, applied
    in place to (3, n) position and velocity arrays."""

    def __init__(self, trap: TrapFrequencies, dt: float, n: int):
        omegas = np.array([trap.omega_x, trap.omega_y, trap.omega_z])
        th = omegas * dt
        self.eq = np.array([0.0, 0.0, -trap.sag])[:, None]
        self.c = np.cos(th)[:, None]
        self.s_over_w = (np.sin(th) / omegas)[:, None]
        self.ws = (omegas * np.sin(th))[:, None]
        self.eq_z = -trap.sag
        self.sv = np.empty((3, n))     # (sin/w) v
        self.tmp = np.empty((3, n))    # also scratch for the cell indices

    def step(self, x: np.ndarray, v: np.ndarray) -> None:
        """x <- eq + c dx + (sin/w) v and v <- c v - w sin dx, dx = x - eq.

        The equilibrium is 0 on the first two axes, where x - 0.0 is x
        bit for bit, so x itself becomes dx by subtracting on the last
        axis only.  eq + c dx still adds the zeros, which turns a -0.0 into
        +0.0."""
        c, tmp = self.c, self.tmp
        x[2] -= self.eq_z
        np.multiply(self.ws, x, out=tmp)
        np.multiply(c, x, out=x)
        np.add(self.eq, x, out=x)
        np.multiply(self.s_over_w, v, out=self.sv)
        x += self.sv
        np.multiply(c, v, out=v)
        v -= tmp


class _Channel:
    """Collision bookkeeping between ensembles ia and ib (ia == ib for
    same-species collisions) with one adaptive velocity majorant."""

    def __init__(self, ia: int, ib: int, sigma: float, vmax0: float):
        self.ia = ia
        self.ib = ib
        self.sigma = sigma
        self.vmax = vmax0
        self.counts = dict.fromkeys(
            ("candidates", "accepted", "overflows", "dropped"), 0)


def _cell_table(xs, scratch, cell: float):
    """Group the particles of every ensemble by cell, floor(x / cell) per
    axis, with one sort.

    The cell coordinates are offset by their minimum over all ensembles,
    so the key (ix * ny + iy) * nz + iz is compact and ordered like (ix,
    iy, iz).  It is built in float64 from the floors, exact while the
    cell count stays below 2**53.  One ensemble bit and then the particle
    index are packed below it: the packed keys are unique, so one plain
    in-place sort of one key buffer orders the particles by (cell,
    ensemble, index) whatever algorithm numpy picks.  Each run of equal
    (cell, ensemble) keys holds one ensemble's particles in one cell.
    Returns the particle index at each sorted position and the runs as
    (keys, starts, lengths, indices of each ensemble's runs, or a slice of
    all runs for a lone ensemble).  `scratch` holds one (3, n) float
    buffer per ensemble.
    """
    floors = [np.floor(np.divide(x, cell, out=buf), out=buf)
              for x, buf in zip(xs, scratch)]
    lo, hi = floors[0].min(axis=1), floors[0].max(axis=1)
    for f in floors[1:]:
        np.minimum(lo, f.min(axis=1), out=lo)
        np.maximum(hi, f.max(axis=1), out=hi)
    bounds = lo.tolist() + hi.tolist()
    if not all(abs(q) < 2.0 ** 62 for q in bounds):
        raise DomainError(f"particle positions are not finite or lie "
                          f"beyond 2**62 cells of cell_size = {cell:.3g} m")
    span = [int(h) - int(l) + 1 for l, h in zip(bounds[:3], bounds[3:])]
    sizes = [f.shape[1] for f in floors]
    bits = (max(sizes) - 1).bit_length()
    limit = min(53, 62 - bits)
    if math.prod(span) >= 1 << limit:
        raise DomainError(
            f"cell_size = {cell:.3g} m cuts the clouds into {span} cells "
            f"per axis, not below 2**{limit}: keys are exact in float64 "
            f"below 2**53 cells and must leave an ensemble bit and {bits} "
            f"particle-index bits of a 64-bit integer; use a larger "
            f"cell_size")
    packed = np.empty(sum(sizes), dtype=np.int64)
    scale = float(1 << (bits + 1))      # the ensemble bit, then the index
    lo = lo[:, None]
    end = 0
    for e, f in enumerate(floors):
        f -= lo
        key = f[0]
        key *= span[1]
        key += f[1]
        key *= span[2]
        key += f[2]
        out = packed[end:end + sizes[e]]
        end += sizes[e]
        np.multiply(key, scale, out=out, casting="unsafe")
        out |= np.arange(e << bits, (e << bits) + sizes[e])
    packed.sort()
    run_key = packed >> bits
    edge = np.empty(len(packed), dtype=bool)
    edge[0] = True
    np.not_equal(run_key[1:], run_key[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = len(packed) - starts[-1]
    run_key = run_key[starts]
    # each ensemble's runs, found once per step; a lone ensemble owns all
    if len(xs) == 1:
        own = [slice(None)]
    else:
        odd = (run_key & 1).astype(bool)
        own = [np.flatnonzero(~odd), np.flatnonzero(odd)]
    return packed & ((1 << bits) - 1), (run_key, starts, counts, own)


def _slots(rng, n: np.ndarray) -> np.ndarray:
    """One uniform index below each entry of n."""
    k = (rng.random(len(n)) * n).astype(np.int64)
    np.minimum(k, n - 1, out=k)     # random() * n can round up to n
    return k


def _select_pairs(rng, runs, a: int, b: int, factor: float):
    """Candidate pairs of channel (a, b) as positions in the cell table's
    sorted order, with the no-time-counter count per cell: one rounding
    uniform per cell, then i, then j.  A self channel pairs two distinct
    particles of one run; a cross channel pairs a run of ensemble 0 with
    the adjacent run of ensemble 1 in the same cell.  A self channel reads
    0.5 k (k - 1) factor from a table over the occupancy k, evaluated in the
    per-cell product's order; only cells that drew a candidate expand."""
    run_key, starts, counts, own = runs
    # gathers by index array: several times faster than by boolean mask
    if a == b:
        at = own[a]
        na = counts[at]
        k = np.arange(na.max() + 1)
        m_float = (0.5 * k * (k - 1) * factor)[na]
    else:
        at = np.flatnonzero(run_key[1:] == (run_key[:-1] | 1))
        na = counts[at]
        m_float = na * counts[1:][at] * factor
    # m = floor(m_float) + (u < frac(m_float)) is positive exactly where
    # u < m_float, since frac is m_float itself below 1
    u = rng.random(len(m_float))
    hit = np.flatnonzero(u < m_float)
    if hit.size == 0:
        return None
    m_float = m_float[hit]
    m = m_float.astype(np.int64)
    m += u[hit] < (m_float - m)
    at = hit if isinstance(at, slice) else at[hit]
    sa, na = starts[at], counts[at]
    if a == b:
        nb, sb = na - 1, sa
    else:                   # the partner run follows in the same cell
        nb, sb = counts[1:][at], sa + na
    # every i, then every j: one draw of both, as two draws in a row give
    mm = np.concatenate((m, m))
    loc = _slots(rng, np.repeat(np.concatenate((na, nb)), mm))
    half = len(loc) // 2
    if a == b:              # j skips i within their shared run
        loc[half:] += loc[half:] >= loc[:half]
    loc += np.repeat(np.concatenate((sa, sb)), mm)
    return loc[:half], loc[half:]


def _dedup_pairs(ia: np.ndarray, ib: np.ndarray):
    """Keep the first accepted pair per particle; later conflicting pairs
    in the same step are dropped (a vanishing-bias simplification of the
    sequential per-cell update).  ia and ib are positions in the cell
    table, each naming one particle of one ensemble.  Returns the indices
    of the kept pairs."""
    seen = set()
    keep = []
    for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
        if i in seen or j in seen:
            continue
        seen.add(i)
        seen.add(j)
        keep.append(k)
    return np.asarray(keep, dtype=np.int64)


def _collide(ch: _Channel, pa, pb, order, vs, masses, rng) -> int:
    """Accept the candidate pairs (positions pa, pb in the cell table) of
    channel ch with probability |v_rel| / v_max, raise v_max past any
    overflow, and scatter the first accepted pair of every particle in
    place.  Returns the number of test-particle collisions."""
    a, b = ch.ia, ch.ib
    ia, ib = order[pa], order[pb]
    va, vb = vs[a], vs[b]
    ga, gb = va.take(ia, axis=1), vb.take(ib, axis=1)
    speed = _speeds(ga, gb)
    top = float(speed.max())
    acc = rng.random(len(speed)) * ch.vmax < speed
    counts = ch.counts
    counts["candidates"] += len(speed)
    if top > ch.vmax:
        counts["overflows"] += int(np.count_nonzero(speed > ch.vmax))
        ch.vmax = 1.05 * top
    idx = np.flatnonzero(acc)
    if idx.size == 0:
        return 0
    # the first accepted pair is always kept
    keep = idx[_dedup_pairs(pa[idx], pb[idx])]
    counts["accepted"] += idx.size
    counts["dropped"] += idx.size - keep.size
    ia, ib, speed = ia[keep], ib[keep], speed[keep]
    va[:, ia], vb[:, ib] = _scatter(ga.take(keep, axis=1),
                                    gb.take(keep, axis=1),
                                    masses[a], masses[b], speed, rng)
    return len(ia)


def run(cfg: DsmcConfig) -> DsmcResult:
    """Advance the configured system to t_end and record the history of
    kinetic temperatures and the cumulative physical collision count."""
    clock = time.perf_counter
    rng = np.random.Generator(np.random.Philox(key=cfg.rng_seed))
    species = [e.species for e in cfg.ensembles]
    masses = [sp.mass for sp in species]
    # each species as (3, n) arrays, advanced and collided in place
    xs = [np.array(e.positions.T, order="C") for e in cfg.ensembles]
    vs = [np.array(e.velocities.T, order="C") for e in cfg.ensembles]
    flights = [_Flight(trap, cfg.dt, e.n)
               for trap, e in zip(cfg.traps, cfg.ensembles)]
    scratch = [f.tmp for f in flights]
    weight = cfg.ensembles[0].weight
    vc = cfg.cell_size ** 3

    def temperatures():
        return [_row_temperature(v, m) for v, m in zip(vs, masses)]

    thermal = [math.sqrt(K_B * max(t, 1e-30) / m)
               for t, m in zip(temperatures(), masses)]
    channels: list[_Channel] = []
    for i, sp in enumerate(species):
        if sp.sigma_self > 0:
            channels.append(_Channel(i, i, sp.sigma_self,
                                     5.0 * math.sqrt(2.0) * thermal[i]))
    if len(species) == 2 and species[0].sigma_cross > 0:
        channels.append(_Channel(0, 1, species[0].sigma_cross,
                                 5.0 * math.hypot(thermal[0], thermal[1])))

    n_steps = int(round(cfg.t_end / cfg.dt))
    n_total = sum(e.n for e in cfg.ensembles)
    times, temps, colls = [], [], []
    collisions = 0.0
    lone_sum = 0.0
    spent = dict.fromkeys(
        ("propagate", "cell_table", "select", "collide", "record"), 0.0)

    def record(step):
        t0 = clock()
        times.append(step * cfg.dt)
        temps.append(temperatures())
        colls.append(collisions)
        spent["record"] += clock() - t0

    record(0)
    for step in range(1, n_steps + 1):
        t0 = clock()
        for flight, x, v in zip(flights, xs, vs):
            flight.step(x, v)
        t1 = clock()
        order, runs = _cell_table(xs, scratch, cfg.cell_size)
        # a run of one: a particle alone in its cell among its ensemble
        lone_sum += np.count_nonzero(runs[2] == 1) / n_total
        t2 = clock()
        spent["propagate"] += t1 - t0
        spent["cell_table"] += t2 - t1

        for ch in channels:
            factor = weight * ch.sigma * ch.vmax * cfg.dt / vc
            sel = _select_pairs(rng, runs, ch.ia, ch.ib, factor)
            t3 = clock()
            spent["select"] += t3 - t2
            if sel is not None:
                collisions += weight * _collide(ch, *sel, order, vs, masses,
                                                rng)
            t2 = clock()
            spent["collide"] += t2 - t3

        if step % cfg.record_every == 0 or step == n_steps:
            record(step)

    lone_fraction = lone_sum / n_steps
    if lone_fraction > 0.5:
        warnings.warn(
            f"{100 * lone_fraction:.0f}% of test particles sat alone in "
            "their collision cell on average; use a larger cell_size (up "
            "to a quarter of the smallest cloud size) or add particles",
            CellUnderflowWarning, stacklevel=2)
    ens = tuple(ParticleEnsemble(sp, x.T, v.T, weight)
                for sp, x, v in zip(species, xs, vs))
    return DsmcResult(times=np.asarray(times),
                      temps=np.asarray(temps),
                      collisions_cum=np.asarray(colls),
                      ensembles=ens,
                      lone_particle_fraction=lone_fraction,
                      channel_collisions={
                          (ch.ia, ch.ib): (ch.counts["accepted"]
                                           - ch.counts["dropped"]) * weight
                          for ch in channels},
                      diagnostics={(ch.ia, ch.ib): dict(ch.counts)
                                   for ch in channels},
                      timings=spent)


def fit_relaxation(times, delta_T) -> tuple[float, float]:
    """Exponential decay rate of a temperature-difference series.

    Log-linear least squares of ln|dT| against t, weighted by dT^2.  The
    sampling noise on a kinetic temperature is constant in absolute terms,
    so after taking the log it grows as 1/|dT|; the amplitude-squared
    weights restore equal footing and keep the near-noise tail from
    steering the slope.  A second pass reuses the first fit's model curve
    as the weight, which removes the residual leverage of points sitting
    on the noise floor (their data-based weight plateaus, the model-based
    one keeps falling).  Points where the difference has decayed exactly
    to zero carry zero weight and are skipped.  The series must hold
    >= 10 points and decay by >= 2 e-folds between its first point and the
    median of its last five, otherwise InsufficientDecay is raised.
    Returns (rate, stderr of the rate).
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(delta_T, dtype=float)
    if t.shape != d.shape or t.ndim != 1:
        raise DomainError("times and delta_T must be equal-length 1-d")
    if len(t) < 10:
        raise InsufficientDecay("fewer than 10 usable points")
    if d[0] == 0.0:
        raise InsufficientDecay("series starts at zero difference")
    tail = float(np.median(np.abs(d[-5:])))
    efolds = math.log(abs(d[0]) / tail) if tail > 0 else math.inf
    if efolds < 2.0:
        raise InsufficientDecay(
            f"series spans only {efolds:.2f} e-folds, need >= 2")

    live = d != 0.0
    if np.count_nonzero(live) < 10:
        raise InsufficientDecay("fewer than 10 usable points")
    tt = t[live]
    y = np.log(np.abs(d[live]))

    def weighted_line(w):
        sw = np.sqrt(w)
        design = np.column_stack((sw, sw * tt))
        rhs = sw * y
        coef, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
        resid = rhs - design @ coef
        scale = float(resid @ resid) / (len(tt) - 2)
        cov = scale * np.linalg.inv(design.T @ design)
        return coef, float(math.sqrt(cov[1, 1]))

    coef, stderr = weighted_line((d[live] / np.abs(d[0])) ** 2)
    model = np.exp(coef[0] + coef[1] * tt)
    coef, stderr = weighted_line((model / model[0]) ** 2)
    rate = -float(coef[1])
    if rate <= 0 or not math.isfinite(stderr):
        raise InsufficientDecay("no resolvable exponential decay")
    return rate, stderr
