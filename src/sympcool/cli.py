"""Command-line surface: JSON configs in, deterministic CSV/JSON files out.

Every run writes its outputs plus a manifest JSON recording the command
line, a sha256 digest of the canonicalized config, the tool version, the
seed, the produced files and, for traj and dsmc, their diagnostics
(solver statistics and located events; DSMC collision counters, energy
drift and seconds per step phase).  For a fixed (config, seed, version)
the data files are byte-identical; only the manifest's wall_time and
timings vary.

Configs use unit-suffixed keys (B0_gauss, T_ini_uK, delta_um, dt_s, ...).
A schema of `_Key` rows gives each section's keys, kinds, units and
defaults; the library constructor that takes a value owns its domain
(finite, positive, eta > 2, ...), and its DomainError is reported naming
the key its message names, at that key's line.  The CLI's one own rule:
a dsmc T_uK must be positive, as the summary's rates divide by it.
Exit codes: 0 success, 2 config error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import re
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .budget import BudgetParams, classify, critical_numbers, phase_diagram
from .constants import (AMU, GAUSS, GAUSS_PER_CM2, KILOGAUSS_PER_CM,
                        MASS_RB87, MICROKELVIN, MICROMETER, NANOKELVIN,
                        constants_table)
from .contact import TwoGasState, _rates_of, single_species_collision_rate
from .dsmc import (DsmcConfig, fit_relaxation, sample_equilibrium,
                   total_energy)
from .dsmc import run as dsmc_run
from .errors import (ConfigError, DomainError, InsufficientDecay,
                     NoInteriorPeak, RadialUnconfined, SympcoolError)
from .physics import SpeciesState, TrapConfig, TrapFrequencies, \
    trap_frequencies
from .trajectory import (RampDriven, RateDriven, TrajectoryConfig,
                         TrajectoryPoint, detect_events, region_of_events,
                         simulate_with_audit)


# ---------------------------------------------------------------- config IO

_REQUIRED = object()


class _Key(NamedTuple):
    """One config key: the constructor field it fills, its kind, the factor
    from its unit into SI (None: no scaling) and its default (_REQUIRED
    when it must be given, None to leave the field to the constructor)."""
    key: str
    field: str
    kind: str = "number"
    unit: float | None = None
    default: object = _REQUIRED


_TYPES = {"number": (int, float), "int": int, "str": str, "bool": bool,
          "object": dict, "array": list}


def _line(raw: str, where: str, key: str | None = None) -> int:
    """1-based line of "key" in the section `where` ("config.species[1]"):
    each name on the path is looked for after its parent, item i of an
    array at its (i+1)-th "{"; an absent name leaves the parent's line."""
    names = where.split(".")[1:]
    if key is not None:
        names.append(key)
    pos = 0
    for name in names:
        base, _, index = name.partition("[")
        # max(): a name that is not found leaves pos where it was
        pos = max(raw.find(f'"{base}"', pos), pos)
        for _ in range(int(index[:-1]) + 1 if index else 0):
            pos = max(raw.find("{", pos + 1), pos)
    return raw.count("\n", 0, pos) + 1


def _load_config(path) -> tuple[dict, str]:
    try:
        raw = Path(path).read_text(encoding="utf-8")
        cfg = json.loads(raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(cfg, dict):
        raise ConfigError("config top level must be a JSON object", line=1)
    return cfg, raw


def _is_kind(v, kind: str) -> bool:
    return (isinstance(v, _TYPES[kind])
            and isinstance(v, bool) == (kind == "bool"))


def _problem(row: _Key, v) -> str | None:
    """Why value v is not of its schema row's kind, or None."""
    if row.kind == "numbers":
        ok = isinstance(v, list) and all(_is_kind(x, "number") for x in v)
        return None if ok else "must be an array of numbers"
    return None if _is_kind(v, row.kind) else f"must be a {row.kind}"


def _read(obj, schema, raw: str, where: str, known=None) -> dict:
    """Constructor keywords of one config section, checked against its
    schema; `known` widens the set of accepted keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object", line=_line(raw, where))
    accepted = {row.key for row in (known or schema)}
    unknown = [k for k in obj if k not in accepted]
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}",
                          line=_line(raw, where, unknown[0]))
    kw = {}
    for row in schema:
        if row.key not in obj:
            if row.default is _REQUIRED:
                raise ConfigError(f"missing key '{row.key}' in {where}",
                                  line=_line(raw, where))
            if row.default is None:
                continue
            v = row.default
        else:
            v = obj[row.key]
            problem = _problem(row, v)
            if problem:
                raise ConfigError(f"key '{row.key}' in {where} {problem}",
                                  line=_line(raw, where, row.key))
            if row.kind == "numbers":
                v = tuple(float(x) for x in v)
        if row.unit is not None:
            v = v * row.unit
        kw[row.field] = v
    return kw


def _build(ctor, kw: dict, raw: str, where: str, schema, obj: dict):
    """ctor(**kw); a DomainError becomes a ConfigError naming the first
    given key whose field the message names, at that key's line, else at
    the line of the section."""
    try:
        return ctor(**kw)
    except DomainError as exc:
        message = str(exc)
        key, first = None, len(message)
        for row in schema:
            m = re.search(rf"\b{row.field}\b", message)
            if row.key in obj and m and m.start() < first:
                key, first = row.key, m.start()
        named = where if key is None else f"key '{key}' in {where}"
        raise ConfigError(f"{named}: {message}", line=_line(raw, where, key))


def _jsonable(x):
    """NaN/inf -> None so emitted JSON stays strictly parseable."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


# ------------------------------------------------------------- file writers

def _json_text(name: str, obj) -> str:
    """Strict JSON text of one output file.  A NaN or infinity reaching
    this point is a fault of the program: reported, never written."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise SympcoolError(f"cannot write {name}: {exc}")


def _cell(c, as_json: bool):
    if isinstance(c, str):
        return c
    if isinstance(c, (bool, np.bool_)):
        return bool(c) if as_json else str(int(c))
    return _jsonable(float(c)) if as_json else repr(float(c))


def _column_text(column) -> list[str]:
    """The CSV cells of one column as _cell writes them: a column of
    floats by float.__repr__ and one of booleans as 1/0, each in one pass,
    any other cell by cell."""
    if all(isinstance(c, float) for c in column):
        return list(map(float.__repr__, column))
    if all(isinstance(c, (bool, np.bool_)) for c in column):
        return ["1" if c else "0" for c in column]
    return [_cell(c, False) for c in column]


def _table_text(name: str, header, rows) -> str:
    """One table as CSV (floats by repr, booleans 0/1) or, by the file
    suffix, as a JSON list of row objects (NaN and infinities null)."""
    if name.endswith(".json"):
        return _json_text(name, [
            {h: _cell(c, True) for h, c in zip(header, row)} for row in rows])
    columns = [_column_text(column) for column in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def _gnuplot(logscale: str, xlabel: str, ylabel: str, plot: str) -> str:
    return ("set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"set logscale {logscale}\n"
            f"set xlabel '{xlabel}'\n"
            f"set ylabel '{ylabel}'\n"
            f"plot {plot}\n")


# ------------------------------------------------------------ config schemas

_ROLES = ({"label": "buffer", "F": 1, "mF": -1},
          {"label": "target", "F": 2, "mF": 2})

_SPECIES = (
    _Key("label", "label", "str", default=None),
    _Key("F", "F", "int", default=None), _Key("mF", "mF", "int", default=None),
    _Key("mass_amu", "mass", unit=AMU, default=MASS_RB87 / AMU),
    _Key("sigma_self_m2", "sigma_self", default=0.0),
    _Key("sigma_cross_m2", "sigma_cross", default=0.0))

_FREQS = (
    _Key("omega_x_rad_per_s", "omega_x"),
    _Key("omega_y_rad_per_s", "omega_y"),
    _Key("omega_z_rad_per_s", "omega_z"),
    _Key("gravity_m_per_s2", "gravity", default=None))

_STATE = (
    _Key("N1", "N1"), _Key("N2", "N2"),
    _Key("T1_uK", "T1", unit=MICROKELVIN),
    _Key("T2_uK", "T2", unit=MICROKELVIN),
    _Key("M1_amu", "M1", unit=AMU), _Key("M2_amu", "M2", unit=AMU),
    _Key("sigma12_m2", "sigma12"),
    _Key("delta_um", "delta", unit=MICROMETER, default=None),
    _Key("trap1", "f1", "object"), _Key("trap2", "f2", "object"))

_TRAP = (
    _Key("B0_gauss", "B0", unit=GAUSS),
    _Key("G_kG_per_cm", "G", unit=KILOGAUSS_PER_CM),
    _Key("C_gauss_per_cm2", "C", unit=GAUSS_PER_CM2),
    _Key("gravity_m_per_s2", "gravity", default=None),
    _Key("buffer", "buffer", "object", default={}),
    _Key("target", "target", "object", default={}))

_BUDGET = (
    _Key("eta", "eta"), _Key("N1_ini", "N1_ini"), _Key("N2", "N2"),
    _Key("T_ini_uK", "T_ini", unit=MICROKELVIN),
    _Key("omega1_bar_rad_per_s", "omega1_bar"),
    _Key("omega2_bar_rad_per_s", "omega2_bar"),
    _Key("psd_prefactor", "psd_prefactor", default=None))

# evaporation.model picks the constructor and its rows; the keys of
# either model are accepted in both
_EVAP_ROWS = (
    _Key("model", "model", "str"),
    _Key("prefactor", "prefactor", default=1.0),
    _Key("sigma_self_m2", "sigma_self", default=None),
    _Key("times_s", "times", "numbers"),
    _Key("numbers", "numbers", "numbers"))
_EVAPORATION = {"rate": (RateDriven, _EVAP_ROWS[1:3]),
                "ramp": (RampDriven, _EVAP_ROWS[3:])}

_TRAJ = (
    _Key("eta", "eta"), _Key("t_end_s", "t_end"),
    _Key("contact_mode", "contact_mode", "str", default="finite"),
    _Key("dt_max_s", "dt_max", default=0.1),
    _Key("bec_threshold", "bec_threshold", default=None),
    _Key("psd_prefactor", "psd_prefactor", default=None),
    _Key("stop_at_threshold", "stop_at_threshold", "bool", default=False),
    _Key("initial", "initial", "object"),
    _Key("evaporation", "evaporation_model", "object"))

# --seed, when given, stands in for the seed key
_DSMC = (
    _Key("species", "species", "array"), _Key("traps", "traps", "array"),
    _Key("dt_s", "dt"), _Key("t_end_s", "t_end"),
    _Key("cell_size_um", "cell_size", unit=MICROMETER),
    _Key("seed", "rng_seed", "int"),
    _Key("record_every", "record_every", "int", default=10))
_ENSEMBLE = (
    _Key("n_test", "n", "int"), _Key("T_uK", "T", unit=MICROKELVIN),
    _Key("weight", "weight", default=1.0))


def _species_from(obj, raw: str, where: str, role: dict, known=None):
    """SpeciesState of one section, role giving label, F and mF defaults."""
    kw = {**role, **_read(obj, _SPECIES, raw, where, known)}
    return _build(SpeciesState, kw, raw, where, _SPECIES, obj)


def _freqs_from(obj, raw: str, where: str, **defaults) -> TrapFrequencies:
    kw = {**defaults, **_read(obj, _FREQS, raw, where)}
    return _build(TrapFrequencies, kw, raw, where, _FREQS, obj)


def _state_from(obj, raw: str, where: str) -> TwoGasState:
    """TwoGasState from a JSON object; delta defaults to the sag split."""
    kw = _read(obj, _STATE, raw, where)
    kw["f1"] = _freqs_from(kw["f1"], raw, f"{where}.trap1")
    kw["f2"] = _freqs_from(kw["f2"], raw, f"{where}.trap2")
    kw.setdefault("delta", kw["f1"].sag - kw["f2"].sag)
    return _build(TwoGasState, kw, raw, where, _STATE, obj)


def _evaporation_from(obj, raw: str, where: str):
    model = _read(obj, _EVAP_ROWS[:1], raw, where, _EVAP_ROWS)["model"]
    if model not in _EVAPORATION:
        raise ConfigError("evaporation.model must be 'rate' or 'ramp'",
                          line=_line(raw, where, "model"))
    ctor, schema = _EVAPORATION[model]
    kw = _read(obj, schema, raw, where, _EVAP_ROWS)
    return _build(ctor, kw, raw, where, schema, obj)


# -------------------------------------------------------------- subcommands
# Each takes the flags, the config (phase-diagram: its grid flags) and its
# raw text, and returns {file name: JSON value, (header, rows) or text}.

def _cmd_trap(args, cfg: dict, raw: str) -> dict:
    kw = _read(cfg, _TRAP, raw, "config")
    buffer = _species_from(kw.pop("buffer"), raw, "config.buffer", _ROLES[0])
    target = _species_from(kw.pop("target"), raw, "config.target", _ROLES[1])
    trap = _build(TrapConfig, kw, raw, "config", _TRAP, cfg)
    try:
        f1 = trap_frequencies(buffer, trap)
        f2 = trap_frequencies(target, trap)
    except RadialUnconfined as exc:
        raise ConfigError(f"config: {exc}",
                          line=_line(raw, "config", "G_kG_per_cm"))
    return {"trap_frequencies.json": {
                "buffer": _trap_block(f1), "target": _trap_block(f2),
                "delta_um": (f1.sag - f2.sag) / MICROMETER},
            "constants.json": constants_table()}


def _trap_block(f: TrapFrequencies) -> dict:
    return {"omega_x_rad_per_s": f.omega_x, "omega_y_rad_per_s": f.omega_y,
            "omega_z_rad_per_s": f.omega_z,
            "omega_bar_rad_per_s": f.omega_bar, "sag_um": f.sag / MICROMETER}


def _cmd_budget(args, cfg: dict, raw: str) -> dict:
    kw = _read(cfg, _BUDGET, raw, "config")
    params = _build(BudgetParams, kw, raw, "config", _BUDGET, cfg)
    outcome = classify(params.N2, params)
    try:
        n2a, n2b, n2c = critical_numbers(params)
    except NoInteriorPeak:
        n2a = n2b = n2c = math.nan
    except DomainError as exc:
        raise ConfigError(f"config: {exc}", line=_line(raw, "config", "eta"))
    result = {"region": outcome.region.value, "d1max": outcome.D1_max,
              "d2max": outcome.D2_max, "dequal": outcome.D_equal,
              "n1_at_buffer_peak": outcome.N1_at_buffer_peak,
              "closed_form_ordering": outcome.closed_form_ordering,
              "alpha": params.alpha, "t_min_nK": params.T_min / NANOKELVIN,
              "n2_a": n2a, "n2_b": n2b, "n2_c": n2c}
    return {"budget_outcome.json": {k: _jsonable(v)
                                    for k, v in result.items()}}


_GRID_FLAGS = ("eta_min", "eta_max", "eta_points", "n2_min", "n2_max",
               "n2_points", "ratio")


def _cmd_phase_diagram(args, cfg: dict, raw: str) -> dict:
    if args.eta_points < 1 or args.n2_points < 1:
        raise ConfigError("grid point counts must be >= 1")
    if not 2 < args.eta_min <= args.eta_max < math.inf:
        raise ConfigError("need 2 < eta-min <= eta-max, both finite")
    if not 0 < args.n2_min <= args.n2_max < math.inf:
        raise ConfigError("need 0 < n2-min <= n2-max, both finite")
    if not 0 < args.ratio < math.inf:
        raise ConfigError("ratio must be positive and finite")
    eta_grid = np.linspace(args.eta_min, args.eta_max, args.eta_points)
    n2_grid = np.geomspace(args.n2_min, args.n2_max, args.n2_points)
    try:
        table = phase_diagram(eta_grid, n2_grid, trap_ratio=args.ratio)
    except DomainError as exc:
        # the errors that name eta come from an N2_c that runs off as eta
        # nears 3, so the smallest eta, which phase_diagram takes first,
        # fails first; those naming N2 from the smallest cells, which it
        # takes first at each eta; any other means a cell's N2 reached
        # N1_ini
        if str(exc).startswith("eta = "):
            raise ConfigError(f"--eta-min {args.eta_min!r}: {exc}")
        if str(exc).startswith("N2 = "):
            raise ConfigError(f"--n2-min {args.n2_min!r}: {exc}")
        raise ConfigError(f"--n2-max {args.n2_max!r} is too large: a cell's "
                          "target number N2 = n2 * N2_c reaches the "
                          "diagram's reference buffer number")
    header = ["eta", "n2_over_n2c", "region", "d1max", "d2max", "dequal"]
    rows = [[r[k] for k in header] for r in table["rows"]]
    boundaries = [{k: _jsonable(v) for k, v in b.items()}
                  for b in table["boundaries"]]
    name = f"{args.stem}.{args.format}"
    files = {name: (header, rows),
             f"{args.stem}_boundaries.json": boundaries}
    if args.plot_script:
        files[f"{args.stem}.gp"] = _gnuplot(
            "xy", "N2 / N2_c", "peak phase-space density",
            f"'{name}' using 2:4 with points, '' using 2:5 with points")
    return files


_SWEEP_FIELDS = ("delta", "T", "T1", "T2", "N1", "N2")


def _cmd_contact(args, cfg: dict, raw: str) -> dict:
    state = _state_from(cfg, raw, "config")
    (rx, ry, rz), overlap, gamma, w, rate = _rates_of(state)
    files = {"contact_summary.json": {
        "rho_x_um": rx / MICROMETER, "rho_y_um": ry / MICROMETER,
        "rho_z_um": rz / MICROMETER, "delta_um": state.delta / MICROMETER,
        "overlap": overlap, "gamma_per_s": gamma, "heat_flow_W": w,
        "thermalization_rate_per_s": rate,
        "tau_s": _jsonable(1.0 / rate if rate > 0 else math.inf)}}
    if args.sweep:
        var, *parts = args.sweep.split(":")
        if len(parts) != 3 or var not in _SWEEP_FIELDS:
            raise ConfigError("--sweep must be VAR:START:STOP:COUNT with "
                              f"VAR in {_SWEEP_FIELDS}")
        try:
            start = float(parts[0])
            stop = float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ConfigError("--sweep START/STOP/COUNT must be numeric")
        if count < 2 or not math.isfinite(start) or not math.isfinite(stop):
            raise ConfigError("--sweep needs finite START/STOP and COUNT >= 2")
        rows = []
        for v in np.linspace(start, stop, count):
            if var == "T":
                changes = {"T1": float(v), "T2": float(v)}
            else:
                changes = {var: float(v)}
            try:
                s = replace(state, **changes)
            except DomainError as exc:
                raise ConfigError(f"--sweep value {float(v)}: {exc}")
            (_, _, rho_z), *rates = _rates_of(s)
            rows.append([v, rho_z, *rates])
        header = [var, "rho_z", "overlap", "gamma", "w", "inv_tau"]
        files[f"contact_sweep.{args.format}"] = (header, rows)
    return files


def _cmd_traj(args, cfg: dict, raw: str) -> dict:
    kw = _read(cfg, _TRAJ, raw, "config")
    kw["initial"] = _state_from(kw["initial"], raw, "config.initial")
    kw["evaporation_model"] = _evaporation_from(
        kw["evaporation_model"], raw, "config.evaporation")
    traj_cfg = _build(TrajectoryConfig, kw, raw, "config", _TRAJ, cfg)

    points, audit = simulate_with_audit(traj_cfg)
    args.diagnostics = {k: audit[k]
                        for k in ("nfev", "rk_steps", "status", "events")}
    events = detect_events(points, traj_cfg.bec_threshold)
    header = [f.name for f in fields(TrajectoryPoint)]
    name = f"traj.{args.format}"
    energy = {"energy_removed_J": None, "energy_total_final_J": None,
              "max_drift_J": None}
    if audit["E_removed"] is not None:
        # E_total tracks E_total[0] + E_removed (signed change); any gap
        # is integrator drift
        removed = np.asarray(audit["E_removed"])
        total = np.asarray(audit["E_total"])
        drift = np.max(np.abs(total - total[0] - removed))
        energy = {"energy_removed_J": float(-removed[-1]),
                  "energy_total_final_J": float(total[-1]),
                  "max_drift_J": float(drift)}
    rows = list(map(operator.attrgetter(*header), points))
    files = {name: (header, rows),
             "traj_events.json": {
                 "region": region_of_events(events).value,
                 "events": [asdict(e) for e in events],
                 "energy_audit": energy}}
    if args.plot_script:
        files["traj.gp"] = _gnuplot(
            "y", "t [s]", "T [K]",
            f"'{name}' using 1:3 with lines, '' using 1:4 with lines")
    return files


def _cmd_dsmc(args, cfg: dict, raw: str) -> dict:
    given = cfg if args.seed is None else {**cfg, "seed": args.seed}
    kw = _read(given, _DSMC, raw, "config")
    species, traps = kw.pop("species"), kw.pop("traps")
    if len(species) not in (1, 2) or len(traps) != len(species):
        raise ConfigError("need 1 or 2 species with matching traps",
                          line=_line(raw, "config", "species"))
    seed = kw["rng_seed"]
    args.seed = seed
    # the sampling generator below is keyed by the 64-bit words [seed, 1]
    if not 0 <= seed < 1 << 64:
        raise ConfigError(
            f"seed {seed} is outside [0, 2**64)",
            line=None if given is not cfg else _line(raw, "config", "seed"))

    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    ensembles, freqs, temps0 = [], [], []
    for i, (obj, trap) in enumerate(zip(species, traps)):
        where = f"config.species[{i}]"
        spec = _species_from(obj, raw, where, _ROLES[i], _SPECIES + _ENSEMBLE)
        ens = _read(obj, _ENSEMBLE, raw, where, _SPECIES + _ENSEMBLE)
        f = _freqs_from(trap, raw, f"config.traps[{i}]", gravity=0.0)
        ensembles.append(_build(sample_equilibrium, dict(
            species=spec, trap=f, rng=rng, **ens), raw, where, _ENSEMBLE, obj))
        # the library samples a point cloud at T = 0, but the summary's
        # analytic rates below divide by the initial temperature
        if ens["T"] <= 0:
            raise ConfigError(f"key 'T_uK' in {where} must be positive",
                              line=_line(raw, where, "T_uK"))
        freqs.append(f)
        temps0.append(ens["T"])
    dsmc_cfg = _build(DsmcConfig, {**kw, "ensembles": tuple(ensembles),
                                   "traps": tuple(freqs)},
                      raw, "config", _DSMC, cfg)
    result = dsmc_run(dsmc_cfg)
    energy = [sum(e.weight * total_energy(e, f) for e, f in zip(ens, freqs))
              for ens in (ensembles, result.ensembles)]
    args.diagnostics = {
        "channels": {f"{a}-{b}": counts
                     for (a, b), counts in result.diagnostics.items()},
        "lone_particle_fraction": result.lone_particle_fraction,
        "relative_energy_drift": (energy[1] - energy[0]) / energy[0],
        "timings_s": result.timings}

    single = len(ensembles) == 1
    n_phys = [e.n * e.weight for e in ensembles]
    t_end = float(result.times[-1])
    collisions = float(result.collisions_cum[-1])
    summary: dict = {"lone_particle_fraction": result.lone_particle_fraction,
                     "collisions_total": collisions}
    species = [e.species for e in ensembles]
    if single:
        gamma = single_species_collision_rate(
            n_phys[0], temps0[0], freqs[0].omega_bar, species[0].sigma_self,
            species[0].mass)
        summary.update({
            "analytic_collision_rate_per_atom_per_s": gamma,
            "measured_collision_rate_per_atom_per_s":
                2.0 * collisions / (n_phys[0] * t_end),
            "analytic_thermalization_rate_per_s": gamma / 3.0})
    else:
        state = TwoGasState.from_traps(
            n_phys[0], n_phys[1], temps0[0], temps0[1], freqs[0], freqs[1],
            species[0].mass, species[1].mass, species[0].sigma_cross)
        _, overlap, gamma, _, rate = _rates_of(state)
        summary.update({"analytic_thermalization_rate_per_s": rate,
                        "analytic_pair_rate_per_s": gamma,
                        "overlap": overlap})
        cross = (result.channel_collisions or {}).get((0, 1))
        if cross is not None:
            summary["measured_pair_rate_per_s"] = cross / t_end
        try:
            rate, stderr = fit_relaxation(
                result.times, result.temps[:, 0] - result.temps[:, 1])
            summary.update(fitted_rate_per_s=rate,
                           fitted_rate_stderr_per_s=stderr)
        except InsufficientDecay as exc:
            summary.update(fitted_rate_per_s=None, fit_note=str(exc))
    second = np.full(len(result.times), math.nan) if single \
        else result.temps[:, 1]
    rows = zip(result.times, result.temps[:, 0], second, result.collisions_cum)
    return {f"dsmc.{args.format}": (
                ["t", "T1_kin", "T2_kin", "collisions_cum"], list(rows)),
            "dsmc_summary.json": summary}


# ------------------------------------------------------------------ parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(prog="sympcool", description=(
        "Sympathetic-cooling budget, contact, trajectory and DSMC tools."))
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(name, func, help, config=("--config",), table=True,
               plot=False):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func, config=None, diagnostics=None, seed=None)
        if config:
            sp.add_argument(*config, dest="config", required=True,
                            help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory" + (
            ", or a .csv/.json table path" if not config else ""))
        if table:
            sp.add_argument("--format", choices=("csv", "json"),
                            default="csv")
        if plot:
            sp.add_argument("--plot-script", action="store_true",
                            help="also emit a gnuplot script")
        return sp

    common("trap", _cmd_trap, "trap frequencies and sag", table=False)
    common("budget", _cmd_budget, "cooling outcome for one config",
           table=False)
    sp = common("phase-diagram", _cmd_phase_diagram,
                "regime map over (eta, N2)", config=(), plot=True)
    for flag, kind, default in (
            ("--eta-min", float, 4.0), ("--eta-max", float, 10.0),
            ("--eta-points", int, 13), ("--n2-min", float, 0.05),
            ("--n2-max", float, 2.0), ("--n2-points", int, 9)):
        sp.add_argument(flag, type=kind, default=default)
    sp.add_argument("--ratio", type=float, required=True,
                    help="omega2_bar / omega1_bar")
    sp = common("contact", _cmd_contact, "interspecies rates for one state",
                config=("--state", "--config"))
    sp.add_argument("--sweep", default=None,
                    help="VAR:START:STOP:COUNT sweep, VAR in "
                         + ",".join(_SWEEP_FIELDS))
    common("traj", _cmd_traj, "two-temperature cooling trajectory",
           plot=True)
    sp = common("dsmc", _cmd_dsmc, "kinetic Monte Carlo cross-check")
    sp.add_argument("--seed", type=int, help="seed override")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        # phase-diagram --out may name the table file; its stem then names
        # the sidecars and its suffix the format
        outdir = Path(args.out)
        args.stem = args.cmd.replace("-", "_")
        if args.config is None and outdir.suffix in (".csv", ".json"):
            args.stem = outdir.stem
            args.format = outdir.suffix[1:]
            outdir = outdir.parent
        if args.config is not None:
            cfg, raw = _load_config(args.config)
        else:
            cfg, raw = {k: getattr(args, k) for k in _GRID_FLAGS}, ""
        files = args.func(args, cfg, raw)

        # every file is rendered before the first is written, so a run
        # that fails leaves no partial output behind
        texts = {}
        for name, content in files.items():
            if isinstance(content, str):
                texts[name] = content
            elif isinstance(content, tuple):
                texts[name] = _table_text(name, *content)
            else:
                texts[name] = _json_text(name, content)
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        manifest = f"{args.stem}_manifest.json"
        texts[manifest] = _json_text(manifest, {
            "command": "sympcool " + " ".join(argv), "config": cfg,
            "config_digest": hashlib.sha256(canonical.encode()).hexdigest(),
            "tool_version": __version__, "seed": args.seed or 0,
            "outputs": list(files),
            **({} if args.diagnostics is None
               else {"diagnostics": args.diagnostics}),
            "wall_time": time.perf_counter() - t0})
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (outdir / name).write_text(text, encoding="utf-8")
        return 0
    except ConfigError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"sympcool: config error{where}: {exc}", file=sys.stderr)
        return 2
    except (SympcoolError, OSError) as exc:
        print(f"sympcool: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
