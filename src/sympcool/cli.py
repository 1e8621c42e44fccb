"""Command-line surface: JSON configs in, deterministic CSV/JSON files out.

Every run writes its outputs plus a manifest JSON recording the command
line, a sha256 digest of the canonicalized config, the tool version, the
seed, and the produced files.  For a fixed (config, seed, version) the
data files are byte-identical between runs; only the manifest's wall_time
field varies.

Configs use explicit unit-suffixed keys (B0_gauss, T_ini_uK, delta_um,
dt_s, ...) and unknown keys are rejected so typos fail loudly.  Exit
codes: 0 success, 2 config validation error (with a line-anchored
message where possible), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .budget import BudgetParams, classify, critical_numbers, phase_diagram
from .constants import (AMU, GAUSS, GAUSS_PER_CM2, KILOGAUSS_PER_CM,
                        MASS_RB87, MICROKELVIN, MICROMETER,
                        write_constants_json)
from .contact import (TwoGasState, energy_exchange_rate,
                      interspecies_collision_rate,
                      interspecies_thermalization_rate, overlap_factor,
                      rms_sizes, single_species_collision_rate)
from .dsmc import DsmcConfig, fit_relaxation
from .dsmc import run as dsmc_run
from .dsmc import sample_equilibrium
from .errors import (ConfigError, DomainError, InsufficientDecay,
                     NoInteriorPeak, SympcoolError)
from .physics import SpeciesState, TrapConfig, TrapFrequencies, \
    trap_frequencies
from .trajectory import (RampDriven, RateDriven, TrajectoryConfig,
                         detect_events, region_from_events,
                         simulate_with_audit)

_NUMBER = (int, float)


# ---------------------------------------------------------------- config IO

def _key_line(raw: str, key: str):
    """1-based line of the first occurrence of "key" in the raw JSON."""
    needle = f'"{key}"'
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _load_config(path) -> tuple[dict, str]:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(cfg, dict):
        raise ConfigError("config top level must be a JSON object", line=1)
    return cfg, raw


def _reject_unknown(obj: dict, allowed, raw: str, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}",
                              line=_key_line(raw, key))


def _get(obj: dict, key: str, raw: str, where: str, *, kind="number",
         required=True, default=None, positive=False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}",
                              line=_key_line(raw, where) or 1)
        return default
    v = obj[key]
    ok = {"number": lambda x: isinstance(x, _NUMBER)
                              and not isinstance(x, bool),
          "int": lambda x: isinstance(x, int) and not isinstance(x, bool),
          "str": lambda x: isinstance(x, str),
          "bool": lambda x: isinstance(x, bool),
          "object": lambda x: isinstance(x, dict),
          "array": lambda x: isinstance(x, list)}[kind](v)
    if not ok:
        raise ConfigError(f"key '{key}' in {where} must be a {kind}",
                          line=_key_line(raw, key))
    if positive and kind in ("number", "int") and v <= 0:
        raise ConfigError(f"key '{key}' in {where} must be positive",
                          line=_key_line(raw, key))
    return v


def _jsonable(x):
    """NaN/inf -> None so emitted JSON stays strictly parseable."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


# ------------------------------------------------------------- file writers

def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, str):
                cells.append(c)
            elif isinstance(c, (bool, np.bool_)):
                cells.append(str(int(c)))
            else:
                cells.append(_fmt(c))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_manifest(outdir: Path, stem: str, argv, config: dict, seed: int,
                    outputs: list[str], t0: float) -> Path:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": "sympcool " + " ".join(argv),
        "config": config,
        "config_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "tool_version": __version__,
        "seed": seed,
        "outputs": outputs,
        "wall_time": time.perf_counter() - t0,
    }
    path = outdir / f"{stem}_manifest.json"
    _write_json(path, manifest)
    return path


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------- shared sub-builders

_SPECIES_KEYS = {"label", "F", "mF", "mass_amu", "sigma_self_m2",
                 "sigma_cross_m2"}


def _species_from(obj: dict, raw: str, where: str, *, label, F, mF) -> SpeciesState:
    _reject_unknown(obj, _SPECIES_KEYS, raw, where)
    try:
        return SpeciesState(
            label=_get(obj, "label", raw, where, kind="str",
                       required=False, default=label),
            F=_get(obj, "F", raw, where, kind="int", required=False,
                   default=F),
            mF=_get(obj, "mF", raw, where, kind="int", required=False,
                    default=mF),
            mass=_get(obj, "mass_amu", raw, where, required=False,
                      default=MASS_RB87 / AMU, positive=True) * AMU,
            sigma_self=_get(obj, "sigma_self_m2", raw, where,
                            required=False, default=0.0),
            sigma_cross=_get(obj, "sigma_cross_m2", raw, where,
                             required=False, default=0.0))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}", line=_key_line(raw, "mF"))


_TRAP_FREQ_KEYS = {"omega_x_rad_per_s", "omega_y_rad_per_s",
                   "omega_z_rad_per_s", "gravity_m_per_s2"}


def _trap_freqs_from(obj: dict, raw: str, where: str,
                     default_gravity: float) -> TrapFrequencies:
    _reject_unknown(obj, _TRAP_FREQ_KEYS, raw, where)
    return TrapFrequencies.from_axes(
        omega_x=_get(obj, "omega_x_rad_per_s", raw, where, positive=True),
        omega_y=_get(obj, "omega_y_rad_per_s", raw, where, positive=True),
        omega_z=_get(obj, "omega_z_rad_per_s", raw, where, positive=True),
        gravity=_get(obj, "gravity_m_per_s2", raw, where, required=False,
                     default=default_gravity))


_STATE_KEYS = {"N1", "N2", "T1_uK", "T2_uK", "M1_amu", "M2_amu",
               "sigma12_m2", "delta_um", "trap1", "trap2"}


def _state_from(obj: dict, raw: str, where: str) -> TwoGasState:
    """TwoGasState from a JSON object; delta defaults to the sag split."""
    _reject_unknown(obj, _STATE_KEYS, raw, where)
    f1 = _trap_freqs_from(_get(obj, "trap1", raw, where, kind="object"),
                          raw, f"{where}.trap1", default_gravity=9.80665)
    f2 = _trap_freqs_from(_get(obj, "trap2", raw, where, kind="object"),
                          raw, f"{where}.trap2", default_gravity=9.80665)
    delta_um = _get(obj, "delta_um", raw, where, required=False)
    try:
        state = TwoGasState(
            N1=_get(obj, "N1", raw, where, positive=True),
            N2=_get(obj, "N2", raw, where, positive=True),
            T1=_get(obj, "T1_uK", raw, where, positive=True) * MICROKELVIN,
            T2=_get(obj, "T2_uK", raw, where, positive=True) * MICROKELVIN,
            f1=f1, f2=f2,
            M1=_get(obj, "M1_amu", raw, where, positive=True) * AMU,
            M2=_get(obj, "M2_amu", raw, where, positive=True) * AMU,
            sigma12=_get(obj, "sigma12_m2", raw, where),
            delta=(delta_um * MICROMETER if delta_um is not None
                   else f1.sag - f2.sag))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}", line=_key_line(raw, "N1"))
    return state


# -------------------------------------------------------------- subcommands

_TRAP_KEYS = {"B0_gauss", "G_kG_per_cm", "C_gauss_per_cm2",
              "gravity_m_per_s2", "buffer", "target"}


def _cmd_trap(args, argv) -> int:
    t0 = time.perf_counter()
    cfg, raw = _load_config(args.config)
    _reject_unknown(cfg, _TRAP_KEYS, raw, "config")
    trap = TrapConfig(
        B0=_get(cfg, "B0_gauss", raw, "config", positive=True) * GAUSS,
        G=_get(cfg, "G_kG_per_cm", raw, "config",
               positive=True) * KILOGAUSS_PER_CM,
        C=_get(cfg, "C_gauss_per_cm2", raw, "config",
               positive=True) * GAUSS_PER_CM2,
        gravity=_get(cfg, "gravity_m_per_s2", raw, "config",
                     required=False, default=9.80665))
    buffer = _species_from(cfg.get("buffer", {}), raw, "buffer",
                           label="buffer", F=1, mF=-1)
    target = _species_from(cfg.get("target", {}), raw, "target",
                           label="target", F=2, mF=2)
    f1 = trap_frequencies(buffer, trap)
    f2 = trap_frequencies(target, trap)

    def block(f: TrapFrequencies) -> dict:
        return {"omega_x_rad_per_s": f.omega_x,
                "omega_y_rad_per_s": f.omega_y,
                "omega_z_rad_per_s": f.omega_z,
                "omega_bar_rad_per_s": f.omega_bar,
                "sag_um": f.sag / MICROMETER}

    outdir = _outdir(args)
    result = {"buffer": block(f1), "target": block(f2),
              "delta_um": (f1.sag - f2.sag) / MICROMETER}
    _write_json(outdir / "trap_frequencies.json", result)
    write_constants_json(outdir / "constants.json")
    _write_manifest(outdir, "trap", argv, cfg, args.seed or 0,
                    ["trap_frequencies.json", "constants.json"], t0)
    return 0


_BUDGET_KEYS = {"eta", "N1_ini", "N2", "T_ini_uK", "omega1_bar_rad_per_s",
                "omega2_bar_rad_per_s", "psd_prefactor"}


def _cmd_budget(args, argv) -> int:
    t0 = time.perf_counter()
    cfg, raw = _load_config(args.config)
    _reject_unknown(cfg, _BUDGET_KEYS, raw, "config")
    kwargs = {}
    prefactor = _get(cfg, "psd_prefactor", raw, "config", required=False)
    if prefactor is not None:
        kwargs["psd_prefactor"] = prefactor
    try:
        params = BudgetParams(
            eta=_get(cfg, "eta", raw, "config"),
            N1_ini=_get(cfg, "N1_ini", raw, "config", positive=True),
            N2=_get(cfg, "N2", raw, "config", positive=True),
            T_ini=_get(cfg, "T_ini_uK", raw, "config",
                       positive=True) * MICROKELVIN,
            omega1_bar=_get(cfg, "omega1_bar_rad_per_s", raw, "config",
                            positive=True),
            omega2_bar=_get(cfg, "omega2_bar_rad_per_s", raw, "config",
                            positive=True), **kwargs)
    except DomainError as exc:
        raise ConfigError(f"config: {exc}", line=_key_line(raw, "eta"))
    outcome = classify(params.N2, params)
    try:
        n2a, n2b, n2c = critical_numbers(params)
    except NoInteriorPeak:
        n2a = n2b = n2c = math.nan
    result = {
        "region": outcome.region.value,
        "d1max": _jsonable(outcome.D1_max),
        "d2max": _jsonable(outcome.D2_max),
        "dequal": _jsonable(outcome.D_equal),
        "n1_at_buffer_peak": _jsonable(outcome.N1_at_buffer_peak),
        "closed_form_ordering": outcome.closed_form_ordering,
        "alpha": params.alpha,
        "t_min_nK": params.T_min / 1e-9,
        "n2_a": _jsonable(n2a), "n2_b": _jsonable(n2b),
        "n2_c": _jsonable(n2c),
    }
    outdir = _outdir(args)
    _write_json(outdir / "budget_outcome.json", result)
    _write_manifest(outdir, "budget", argv, cfg, args.seed or 0,
                    ["budget_outcome.json"], t0)
    return 0


def _cmd_phase_diagram(args, argv) -> int:
    t0 = time.perf_counter()
    if args.eta_points < 1 or args.n2_points < 1:
        raise ConfigError("grid point counts must be >= 1")
    if args.eta_min <= 2 or args.eta_max < args.eta_min:
        raise ConfigError("need 2 < eta-min <= eta-max")
    if args.n2_min <= 0 or args.n2_max < args.n2_min:
        raise ConfigError("need 0 < n2-min <= n2-max")
    if args.ratio <= 0:
        raise ConfigError("ratio must be positive")
    eta_grid = np.linspace(args.eta_min, args.eta_max, args.eta_points)
    n2_grid = np.geomspace(args.n2_min, args.n2_max, args.n2_points)
    table = phase_diagram(eta_grid, n2_grid, trap_ratio=args.ratio)

    out = Path(args.out)
    if out.suffix in (".csv", ".json"):
        outdir = out.parent if str(out.parent) else Path(".")
        outdir.mkdir(parents=True, exist_ok=True)
        stem = out.stem
        table_name = out.name
    else:
        outdir = _outdir(args)
        stem = "phase_diagram"
        table_name = f"phase_diagram.{args.format}"
    header = ["eta", "n2_over_n2c", "region", "d1max", "d2max", "dequal"]
    use_json = table_name.endswith(".json") or (
        args.format == "json" and not table_name.endswith(".csv"))
    if use_json:
        table_name = f"{stem}.json"
        _write_json(outdir / table_name,
                    [{k: _jsonable(r[k]) for k in
                      ("eta", "n2_over_n2c", "region", "d1max", "d2max",
                       "dequal")} for r in table["rows"]])
    else:
        rows = [[r["eta"], r["n2_over_n2c"], r["region"], r["d1max"],
                 r["d2max"], r["dequal"]] for r in table["rows"]]
        _write_csv(outdir / table_name, header, rows)
    boundaries = [{k: _jsonable(v) for k, v in b.items()}
                  for b in table["boundaries"]]
    _write_json(outdir / f"{stem}_boundaries.json", boundaries)
    outputs = [table_name, f"{stem}_boundaries.json"]
    if args.plot_script:
        gp = (f"set datafile separator ','\n"
              f"set key autotitle columnhead\n"
              f"set logscale xy\n"
              f"set xlabel 'N2 / N2_c'\n"
              f"set ylabel 'peak phase-space density'\n"
              f"plot '{table_name}' using 2:4 with points, "
              f"'' using 2:5 with points\n")
        (outdir / f"{stem}.gp").write_text(gp, encoding="utf-8")
        outputs.append(f"{stem}.gp")
    flag_config = {"eta_min": args.eta_min, "eta_max": args.eta_max,
                   "eta_points": args.eta_points, "n2_min": args.n2_min,
                   "n2_max": args.n2_max, "n2_points": args.n2_points,
                   "ratio": args.ratio}
    _write_manifest(outdir, stem, argv, flag_config, args.seed or 0,
                    outputs, t0)
    return 0


_SWEEP_FIELDS = ("delta", "T", "T1", "T2", "N1", "N2")


def _contact_row(state: TwoGasState) -> list:
    rate = interspecies_thermalization_rate(state)
    return [rms_sizes(state)[2], overlap_factor(state),
            interspecies_collision_rate(state),
            energy_exchange_rate(state), rate]


def _cmd_contact(args, argv) -> int:
    t0 = time.perf_counter()
    cfg, raw = _load_config(args.config)
    state = _state_from(cfg, raw, "config")
    rx, ry, rz = rms_sizes(state)
    rate = interspecies_thermalization_rate(state)
    summary = {
        "rho_x_um": rx / MICROMETER, "rho_y_um": ry / MICROMETER,
        "rho_z_um": rz / MICROMETER,
        "delta_um": state.delta / MICROMETER,
        "overlap": overlap_factor(state),
        "gamma_per_s": interspecies_collision_rate(state),
        "heat_flow_W": energy_exchange_rate(state),
        "thermalization_rate_per_s": rate,
        "tau_s": _jsonable(1.0 / rate if rate > 0 else math.inf),
    }
    outdir = _outdir(args)
    _write_json(outdir / "contact_summary.json", summary)
    outputs = ["contact_summary.json"]

    if args.sweep:
        parts = args.sweep.split(":")
        if len(parts) != 4 or parts[0] not in _SWEEP_FIELDS:
            raise ConfigError(
                f"--sweep must be VAR:START:STOP:COUNT with VAR in "
                f"{_SWEEP_FIELDS}")
        var = parts[0]
        try:
            start, stop = float(parts[1]), float(parts[2])
            count = int(parts[3])
        except ValueError:
            raise ConfigError("--sweep START/STOP/COUNT must be numeric")
        if count < 2:
            raise ConfigError("--sweep COUNT must be >= 2")
        values = np.linspace(start, stop, count)
        header = [var, "rho_z", "overlap", "gamma", "w", "inv_tau"]
        rows = []
        for v in values:
            fields = {"T": {"T1": v, "T2": v}}.get(var, {var: float(v)})
            try:
                swept = replace(state, **{k: float(x)
                                          for k, x in fields.items()})
            except DomainError as exc:
                raise ConfigError(f"--sweep value {v!r}: {exc}")
            rows.append([v] + _contact_row(swept))
        name = f"contact_sweep.{args.format}"
        if args.format == "json":
            _write_json(outdir / name,
                        [dict(zip(header, (_jsonable(float(c))
                                           for c in row)))
                         for row in rows])
        else:
            _write_csv(outdir / name, header, rows)
        outputs.append(name)
    _write_manifest(outdir, "contact", argv, cfg, args.seed or 0,
                    outputs, t0)
    return 0


_TRAJ_KEYS = {"eta", "contact_mode", "t_end_s", "dt_max_s", "bec_threshold",
              "psd_prefactor", "stop_at_threshold", "initial", "evaporation"}
_EVAP_KEYS = {"model", "prefactor", "sigma_self_m2", "times_s", "numbers"}


def _evaporation_from(obj: dict, raw: str):
    _reject_unknown(obj, _EVAP_KEYS, raw, "evaporation")
    model = _get(obj, "model", raw, "evaporation", kind="str")
    try:
        if model == "rate":
            return RateDriven(
                prefactor=_get(obj, "prefactor", raw, "evaporation",
                               required=False, default=1.0),
                sigma_self=_get(obj, "sigma_self_m2", raw, "evaporation",
                                required=False))
        if model == "ramp":
            times = _get(obj, "times_s", raw, "evaporation", kind="array")
            numbers = _get(obj, "numbers", raw, "evaporation", kind="array")
            return RampDriven(times=tuple(float(t) for t in times),
                              numbers=tuple(float(n) for n in numbers))
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"evaporation: {exc}", line=_key_line(raw, "model"))
    raise ConfigError("evaporation.model must be 'rate' or 'ramp'",
                      line=_key_line(raw, "model"))


def _cmd_traj(args, argv) -> int:
    t0 = time.perf_counter()
    cfg, raw = _load_config(args.config)
    _reject_unknown(cfg, _TRAJ_KEYS, raw, "config")
    state = _state_from(_get(cfg, "initial", raw, "config", kind="object"),
                        raw, "initial")
    evap = _evaporation_from(_get(cfg, "evaporation", raw, "config",
                                  kind="object"), raw)
    extra = {}
    for key, name in (("bec_threshold", "bec_threshold"),
                      ("psd_prefactor", "psd_prefactor")):
        v = _get(cfg, key, raw, "config", required=False)
        if v is not None:
            extra[name] = v
    try:
        traj_cfg = TrajectoryConfig(
            initial=state,
            eta=_get(cfg, "eta", raw, "config"),
            evaporation_model=evap,
            contact_mode=_get(cfg, "contact_mode", raw, "config",
                              kind="str", required=False,
                              default="finite"),
            t_end=_get(cfg, "t_end_s", raw, "config", positive=True),
            dt_max=_get(cfg, "dt_max_s", raw, "config", required=False,
                        default=0.1, positive=True),
            stop_at_threshold=_get(cfg, "stop_at_threshold", raw, "config",
                                   kind="bool", required=False,
                                   default=False), **extra)
    except DomainError as exc:
        raise ConfigError(f"config: {exc}", line=_key_line(raw, "eta"))

    points, audit = simulate_with_audit(traj_cfg)
    events = detect_events(points)
    region = region_from_events(points)

    outdir = _outdir(args)
    name = f"traj.{args.format}"
    header = ["t", "N1", "T1", "T2", "D1", "D2", "Gamma", "overlap",
              "stalled", "bec1", "bec2"]
    rows = [[p.t, p.N1, p.T1, p.T2, p.D1, p.D2, p.Gamma, p.overlap,
             p.stalled, p.bec1, p.bec2] for p in points]
    if args.format == "json":
        _write_json(outdir / name,
                    [{"t": p.t, "N1": p.N1, "T1": p.T1, "T2": p.T2,
                      "D1": p.D1, "D2": p.D2, "Gamma": p.Gamma,
                      "overlap": p.overlap, "stalled": p.stalled,
                      "bec1": p.bec1, "bec2": p.bec2} for p in points])
    else:
        _write_csv(outdir / name, header, rows)
    if audit["E_removed"] is None:
        audit_summary = {"energy_removed_J": None,
                         "energy_total_final_J": None,
                         "max_drift_J": None}
    else:
        # E_total tracks E_total[0] + E_removed (signed change); any gap
        # is integrator drift
        removed = np.asarray(audit["E_removed"])
        total = np.asarray(audit["E_total"])
        drift = float(np.max(np.abs(total - total[0] - removed)))
        audit_summary = {"energy_removed_J": float(-removed[-1]),
                         "energy_total_final_J": float(total[-1]),
                         "max_drift_J": drift}
    summary = {
        "region": region.value,
        "events": [{"kind": e.kind, "t": e.t, "N1": e.N1, "T1": e.T1,
                    "T2": e.T2} for e in events],
        "energy_audit": audit_summary,
    }
    _write_json(outdir / "traj_events.json", summary)
    outputs = [name, "traj_events.json"]
    if args.plot_script:
        gp = ("set datafile separator ','\n"
              "set key autotitle columnhead\n"
              "set logscale y\n"
              "set xlabel 't [s]'\n"
              "set ylabel 'T [K]'\n"
              f"plot '{name}' using 1:3 with lines, "
              "'' using 1:4 with lines\n")
        (outdir / "traj.gp").write_text(gp, encoding="utf-8")
        outputs.append("traj.gp")
    _write_manifest(outdir, "traj", argv, cfg, args.seed or 0, outputs, t0)
    return 0


_DSMC_KEYS = {"species", "traps", "dt_s", "t_end_s", "cell_size_um",
              "seed", "record_every"}
_DSMC_SPECIES_KEYS = _SPECIES_KEYS | {"n_test", "T_uK", "weight"}


def _cmd_dsmc(args, argv) -> int:
    t0 = time.perf_counter()
    cfg, raw = _load_config(args.config)
    _reject_unknown(cfg, _DSMC_KEYS, raw, "config")
    species_list = _get(cfg, "species", raw, "config", kind="array")
    traps_list = _get(cfg, "traps", raw, "config", kind="array")
    if len(species_list) not in (1, 2) \
            or len(traps_list) != len(species_list):
        raise ConfigError("need 1 or 2 species with matching traps",
                          line=_key_line(raw, "species"))
    seed = args.seed if args.seed is not None \
        else _get(cfg, "seed", raw, "config", kind="int")
    # the sampling generator below is keyed by the 64-bit words [seed, 1]
    if not 0 <= seed < 1 << 64:
        raise ConfigError(
            f"seed {seed} is outside [0, 2**64)",
            line=None if args.seed is not None else _key_line(raw, "seed"))

    defaults = [("buffer", 1, -1), ("target", 2, 2)]
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    ensembles, freqs, temps0, weights, n_tests = [], [], [], [], []
    for i, obj in enumerate(species_list):
        if not isinstance(obj, dict):
            raise ConfigError(f"species[{i}] must be an object",
                              line=_key_line(raw, "species"))
        _reject_unknown(obj, _DSMC_SPECIES_KEYS, raw, f"species[{i}]")
        label, F, mF = defaults[i]
        spec = _species_from({k: obj[k] for k in obj if k in _SPECIES_KEYS},
                             raw, f"species[{i}]", label=label, F=F, mF=mF)
        n_test = _get(obj, "n_test", raw, f"species[{i}]", kind="int",
                      positive=True)
        T = _get(obj, "T_uK", raw, f"species[{i}]",
                 positive=True) * MICROKELVIN
        weight = _get(obj, "weight", raw, f"species[{i}]", required=False,
                      default=1.0, positive=True)
        if not isinstance(traps_list[i], dict):
            raise ConfigError(f"traps[{i}] must be an object",
                              line=_key_line(raw, "traps"))
        f = _trap_freqs_from(traps_list[i], raw, f"traps[{i}]",
                             default_gravity=0.0)
        try:
            ens = sample_equilibrium(spec, n_test, T, f, rng, weight=weight)
        except DomainError as exc:
            raise ConfigError(f"species[{i}]: {exc}",
                              line=_key_line(raw, "n_test"))
        ensembles.append(ens)
        freqs.append(f)
        temps0.append(T)
        weights.append(weight)
        n_tests.append(n_test)

    try:
        dsmc_cfg = DsmcConfig(
            ensembles=tuple(ensembles), traps=tuple(freqs),
            dt=_get(cfg, "dt_s", raw, "config", positive=True),
            t_end=_get(cfg, "t_end_s", raw, "config", positive=True),
            cell_size=_get(cfg, "cell_size_um", raw, "config",
                           positive=True) * MICROMETER,
            rng_seed=seed,
            record_every=_get(cfg, "record_every", raw, "config",
                              kind="int", required=False, default=10,
                              positive=True))
    except DomainError as exc:
        raise ConfigError(f"config: {exc}", line=_key_line(raw, "dt_s"))

    result = dsmc_run(dsmc_cfg)

    outdir = _outdir(args)
    name = f"dsmc.{args.format}"
    single = len(ensembles) == 1
    header = ["t", "T1_kin", "T2_kin", "collisions_cum"]
    rows = [[result.times[i], result.temps[i, 0],
             math.nan if single else result.temps[i, 1],
             result.collisions_cum[i]] for i in range(len(result.times))]
    if args.format == "json":
        _write_json(outdir / name,
                    [dict(zip(header, (_jsonable(float(c)) for c in row)))
                     for row in rows])
    else:
        _write_csv(outdir / name, header, rows)

    summary: dict = {"lone_particle_fraction":
                     result.lone_particle_fraction,
                     "collisions_total": float(result.collisions_cum[-1])}
    if single:
        spec = ensembles[0].species
        n_phys = n_tests[0] * weights[0]
        gamma = single_species_collision_rate(
            n_phys, temps0[0], freqs[0].omega_bar, spec.sigma_self,
            spec.mass)
        measured = (2.0 * float(result.collisions_cum[-1])
                    / (n_phys * float(result.times[-1])))
        summary.update({
            "analytic_collision_rate_per_atom_per_s": gamma,
            "measured_collision_rate_per_atom_per_s": measured,
            "analytic_thermalization_rate_per_s": gamma / 3.0,
        })
    else:
        state = TwoGasState(
            N1=n_tests[0] * weights[0], N2=n_tests[1] * weights[1],
            T1=temps0[0], T2=temps0[1], f1=freqs[0], f2=freqs[1],
            M1=ensembles[0].species.mass, M2=ensembles[1].species.mass,
            sigma12=ensembles[0].species.sigma_cross,
            delta=freqs[0].sag - freqs[1].sag)
        summary["analytic_thermalization_rate_per_s"] = \
            interspecies_thermalization_rate(state)
        summary["analytic_pair_rate_per_s"] = \
            interspecies_collision_rate(state)
        summary["overlap"] = overlap_factor(state)
        cross = (result.channel_collisions or {}).get((0, 1))
        if cross is not None:
            summary["measured_pair_rate_per_s"] = \
                cross / float(result.times[-1])
        dT = result.temps[:, 0] - result.temps[:, 1]
        try:
            rate, stderr = fit_relaxation(result.times, dT)
            summary["fitted_rate_per_s"] = rate
            summary["fitted_rate_stderr_per_s"] = stderr
        except InsufficientDecay as exc:
            summary["fitted_rate_per_s"] = None
            summary["fit_note"] = str(exc)
    _write_json(outdir / "dsmc_summary.json", summary)
    _write_manifest(outdir, "dsmc", argv, cfg, seed,
                    [name, "dsmc_summary.json"], t0)
    return 0


# ------------------------------------------------------------------ parsing

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sympcool",
        description="Sympathetic-cooling budget, contact, trajectory and "
                    "DSMC tools.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, config=True, plot=False):
        if config:
            sp.add_argument("--config", required=True,
                            help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed override")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if plot:
            sp.add_argument("--plot-script", action="store_true",
                            help="also emit a gnuplot script")

    sp = sub.add_parser("trap", help="trap frequencies and sag")
    common(sp)
    sp.set_defaults(func=_cmd_trap)

    sp = sub.add_parser("budget", help="cooling outcome for one config")
    common(sp)
    sp.set_defaults(func=_cmd_budget)

    sp = sub.add_parser("phase-diagram", help="regime map over (eta, N2)")
    sp.add_argument("--eta-min", type=float, default=4.0)
    sp.add_argument("--eta-max", type=float, default=10.0)
    sp.add_argument("--eta-points", type=int, default=13)
    sp.add_argument("--n2-min", type=float, default=0.05)
    sp.add_argument("--n2-max", type=float, default=2.0)
    sp.add_argument("--n2-points", type=int, default=9)
    sp.add_argument("--ratio", type=float, required=True,
                    help="omega2_bar / omega1_bar")
    sp.add_argument("--out", default=".",
                    help="output directory, or a .csv/.json file path")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--plot-script", action="store_true")
    sp.set_defaults(func=_cmd_phase_diagram)

    sp = sub.add_parser("contact", help="interspecies rates for one state")
    sp.add_argument("--state", "--config", dest="config", required=True,
                    help="TwoGasState JSON path")
    sp.add_argument("--sweep", default=None,
                    help="VAR:START:STOP:COUNT sweep, VAR in "
                         + ",".join(_SWEEP_FIELDS))
    sp.add_argument("--out", default=".")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_contact)

    sp = sub.add_parser("traj", help="two-temperature cooling trajectory")
    common(sp, plot=True)
    sp.set_defaults(func=_cmd_traj)

    sp = sub.add_parser("dsmc", help="kinetic Monte Carlo cross-check")
    common(sp)
    sp.set_defaults(func=_cmd_dsmc)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ConfigError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"sympcool: config error{where}: {exc}", file=sys.stderr)
        return 2
    except SympcoolError as exc:
        print(f"sympcool: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sympcool: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
