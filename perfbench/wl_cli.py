"""Workload cli_study: a parameter study driven through sympcool.cli.main.

Each round runs, in-process and with files written to disk:
  - TRAPS `trap` runs on random Ioffe-Pritchard fields,
  - BUDGETS `budget` runs with N2 drawn around its critical number, so
    every regime occurs,
  - CONTACTS `contact --sweep` runs over random states and sweep axes,
  - one `phase-diagram` of PD_ETA x PD_N2 cells at a random trap ratio,
  - RAMPS instant-mode `traj` runs on random evaporation schedules (the
    set-up of acceptance criterion 8, with RAMP_KNOTS knots over RAMP_S
    seconds so that every schedule costs about the same), writing CSV,
  - the README's finite-mode `traj` config, twice,
  - one small single-species `dsmc` run,
  - two operations that a fault in the program makes fail today; their
    inputs do not depend on the seed, so they fail in every round.
Here `cli` parsing and writing and `budget` dominate; `trajectory` runs
without an ODE and `dsmc` at a size where per-step overhead rules.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import bench
import oracle

# Counts put the median operation in the middle of the budget runs.
TRAPS, BUDGETS, CONTACTS, RAMPS = 30, 60, 12, 20
RAMP_KNOTS, RAMP_S = 6, 30.0
PD_ETA, PD_N2 = 25, 21
SWEEP_POINTS = 40
RB_AMU = 86.909180531
AXES = [2 * math.pi * 80, 2 * math.pi * 100, 2 * math.pi * 125]

REL = 1e-9              # closed forms and rates recomputed by the oracle
T_LAW = 1e-6            # instant mode on T(N1), acceptance criterion 8
DSMC_BAND = 0.12        # per-atom collision rate, about 5 sigma
FAULT_KINDS = ("fault_budget_nan", "fault_traj_threshold")
STALE_NS = 50_000_000     # file timestamps come from a coarse kernel clock

README_TRAJ = {
    "eta": 6.5, "contact_mode": "finite", "t_end_s": 30, "dt_max_s": 0.05,
    "initial": {
        "N1": 1e6, "N2": 1e4, "T1_uK": 10, "T2_uK": 10,
        "M1_amu": 86.909, "M2_amu": 86.909, "sigma12_m2": 2e-15,
        "trap1": {"omega_x_rad_per_s": 628.3, "omega_y_rad_per_s": 628.3,
                  "omega_z_rad_per_s": 628.3, "gravity_m_per_s2": 0},
        "trap2": {"omega_x_rad_per_s": 628.3, "omega_y_rad_per_s": 628.3,
                  "omega_z_rad_per_s": 628.3, "gravity_m_per_s2": 0}},
    "evaporation": {"model": "rate", "prefactor": 5, "sigma_self_m2": 2e-15},
}

# Instant mode with a non-default threshold.  The BEC event time must be
# the linear interpolation of D through this threshold between the
# bracketing traj.csv rows.
THRESHOLD_TRAJ = {
    "eta": 6.5, "contact_mode": "instant", "t_end_s": 12.0, "dt_max_s": 0.25,
    "bec_threshold": 1.5,
    "initial": {
        "N1": 1e6, "N2": 2e4, "T1_uK": 2.0, "T2_uK": 2.0,
        "M1_amu": RB_AMU, "M2_amu": RB_AMU, "sigma12_m2": 2e-15,
        "trap1": {"omega_x_rad_per_s": AXES[0], "omega_y_rad_per_s": AXES[1],
                  "omega_z_rad_per_s": AXES[2], "gravity_m_per_s2": 0},
        "trap2": {"omega_x_rad_per_s": AXES[0], "omega_y_rad_per_s": AXES[1],
                  "omega_z_rad_per_s": AXES[2], "gravity_m_per_s2": 0}},
    "evaporation": {"model": "ramp", "times_s": [0.0, 10.0],
                    "numbers": [1e6, 0.0]},
}

NAN_BUDGET = {"eta": 6.5, "N1_ini": 1e8, "N2": 1e4, "T_ini_uK": math.nan,
              "omega1_bar_rad_per_s": 628.3, "omega2_bar_rad_per_s": 888.6}


# ----------------------------------------------------------------- inputs

def _trap_cfg(draw) -> dict:
    cfg = {"B0_gauss": float(draw.uniform(20.0, 300.0)),
           "G_kG_per_cm": float(draw.uniform(0.5, 2.0)),
           "C_gauss_per_cm2": float(draw.uniform(20.0, 300.0)),
           "buffer": {"F": 1, "mF": -1},
           "target": {"F": 2, "mF": int(draw.integers(1, 3))}}
    if draw.random() < 0.5:
        cfg["gravity_m_per_s2"] = float(draw.uniform(9.7, 9.9))
    return cfg


def _budget_cfg(draw) -> dict:
    while True:
        eta = float(draw.uniform(2.6, 10.0))
        w1 = 2 * math.pi * float(draw.uniform(50.0, 300.0))
        w2 = w1 * float(draw.uniform(0.6, 1.6))
        t_ini = float(10 ** draw.uniform(math.log10(20.0), math.log10(500.0)))
        n1 = float(10 ** draw.uniform(7.0, 9.0))
        pref = float(draw.uniform(1.5, 3.0)) if draw.random() < 0.3 else None
        log_n2 = (oracle.log_n2_critical(eta, n1, t_ini * 1e-6, w2,
                                         pref or oracle.PSD_PREFACTOR)
                  + float(draw.uniform(math.log(0.05), math.log(3.0))))
        if math.log(10.0) < log_n2 < math.log(0.01 * n1):
            n2 = math.exp(log_n2)
            break
    cfg = {"eta": eta, "N1_ini": n1, "N2": n2, "T_ini_uK": t_ini,
           "omega1_bar_rad_per_s": w1, "omega2_bar_rad_per_s": w2}
    if pref is not None:
        cfg["psd_prefactor"] = pref
    return cfg


def _trap_block(draw, gravity) -> dict:
    block = {f"omega_{a}_rad_per_s": 2 * math.pi * float(draw.uniform(30, 300))
             for a in "xyz"}
    if gravity is not None:
        block["gravity_m_per_s2"] = gravity
    return block


SWEEP_RANGES = {"delta": (0.0, 40e-6), "T": (0.2e-6, 20e-6),
                "T1": (0.2e-6, 20e-6), "T2": (0.2e-6, 20e-6),
                "N1": (1e5, 1e7), "N2": (1e3, 1e5)}


def _contact_cfg(draw) -> tuple[dict, str]:
    m2 = [RB_AMU, 6.0151228874, 39.96399848][int(draw.integers(3))]
    cfg = {"N1": float(10 ** draw.uniform(5, 7)),
           "N2": float(10 ** draw.uniform(3, 5)),
           "T1_uK": float(draw.uniform(0.2, 20.0)),
           "T2_uK": float(draw.uniform(0.2, 20.0)),
           "M1_amu": RB_AMU, "M2_amu": m2,
           "sigma12_m2": float(10 ** draw.uniform(-16, -14)),
           "trap1": _trap_block(draw, None), "trap2": _trap_block(draw, None)}
    if draw.random() < 0.5:
        cfg["delta_um"] = float(draw.uniform(0.0, 40.0))
    var = list(SWEEP_RANGES)[int(draw.integers(len(SWEEP_RANGES)))]
    lo, hi = SWEEP_RANGES[var]
    a, b = sorted(float(x) for x in draw.uniform(lo, hi, 2))
    return cfg, f"{var}:{a!r}:{b!r}:{SWEEP_POINTS}"


def _ramp_cfg(draw) -> dict:
    n1 = float(10 ** draw.uniform(5.5, 7.5))
    n2 = n1 * float(10 ** draw.uniform(-3.0, -1.0))
    t_uk = float(10 ** draw.uniform(0.0, 1.5))
    steps = draw.uniform(0.5, 10.0, RAMP_KNOTS)
    times = np.concatenate(([0.0], RAMP_S * np.cumsum(steps) / steps.sum()))
    numbers = n1 * np.concatenate(([1.0], np.cumprod(
        draw.uniform(0.3, 0.95, RAMP_KNOTS))))
    trap = {"omega_x_rad_per_s": AXES[0], "omega_y_rad_per_s": AXES[1],
            "omega_z_rad_per_s": AXES[2], "gravity_m_per_s2": 0}
    return {"eta": float(draw.uniform(4.0, 10.0)), "contact_mode": "instant",
            "t_end_s": float(times[-1]) + 1.0, "dt_max_s": 0.25,
            "initial": {"N1": n1, "N2": n2, "T1_uK": t_uk, "T2_uK": t_uk,
                        "M1_amu": RB_AMU, "M2_amu": RB_AMU,
                        "sigma12_m2": 2e-15, "trap1": trap,
                        "trap2": dict(trap)},
            "evaporation": {"model": "ramp",
                            "times_s": [float(t) for t in times],
                            "numbers": [n1] + [float(x) for x in numbers[1:]]}}


def _dsmc_cfg(draw) -> dict:
    return {"species": [{"n_test": 1500, "T_uK": 1.0,
                         "sigma_self_m2": 1e-13}],
            "traps": [{f"omega_{a}_rad_per_s": w
                       for a, w in zip("xyz", AXES)}],
            "dt_s": 3.2e-4, "t_end_s": 0.15, "cell_size_um": 2.4,
            "record_every": 10, "seed": int(draw.integers(1 << 31))}


def build(seed: int, sc, workdir: Path) -> list[dict]:
    """Write every config file under workdir and return the op list."""
    draw = bench.rng(seed, 3)
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []

    def add(kind, sub, cfg=None, extra=(), **meta):
        argv = [sub]
        if cfg is not None:
            path = cfg_dir / f"{len(ops):03d}_{kind}.json"
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            argv += ["--config", str(path)]
        ops.append({"kind": kind, "argv": argv + list(extra), "cfg": cfg,
                    **meta})

    for _ in range(TRAPS):
        add("trap", "trap", _trap_cfg(draw))
    for _ in range(BUDGETS):
        add("budget", "budget", _budget_cfg(draw))
    for i in range(CONTACTS):
        cfg, sweep = _contact_cfg(draw)
        add("contact", "contact", cfg,
            ["--sweep", sweep, "--format", ("csv", "json")[i % 2]],
            sweep=sweep, fmt=("csv", "json")[i % 2])
    pd = {"eta_min": float(draw.uniform(3.2, 4.5)),
          "eta_max": float(draw.uniform(9.0, 11.0)),
          "n2_min": float(draw.uniform(0.03, 0.08)),
          "n2_max": float(draw.uniform(1.8, 3.0)),
          "ratio": float(draw.uniform(0.75, 1.5))}
    add("phase_diagram", "phase-diagram", None,
        ["--eta-min", repr(pd["eta_min"]), "--eta-max", repr(pd["eta_max"]),
         "--eta-points", str(PD_ETA), "--n2-min", repr(pd["n2_min"]),
         "--n2-max", repr(pd["n2_max"]), "--n2-points", str(PD_N2),
         "--ratio", repr(pd["ratio"]), "--format", "json"], grid=pd)
    for _ in range(RAMPS):
        add("traj_instant", "traj", _ramp_cfg(draw))
    add("traj_readme", "traj", README_TRAJ)
    add("traj_readme", "traj", README_TRAJ)
    add("dsmc", "dsmc", _dsmc_cfg(draw))
    add("fault_budget_nan", "budget", NAN_BUDGET)
    add("fault_traj_threshold", "traj", THRESHOLD_TRAJ)
    return ops


# ------------------------------------------------------------------ rounds

def run_round(ops_list, ops: bench.Ops, sc, root: Path) -> list:
    """Run op i into root/<i> and read back the files it wrote.

    Every round writes into the same directories, as a user rerunning a
    study would: creating and deleting thousands of files per round made
    the file system's latency swing fivefold on the 2-vCPU host of
    README.md and swamped the program's own time.  A file the op did not
    rewrite (older than the op) is not read back, so it cannot pass for
    output.
    """
    outs = []
    for i, op in enumerate(ops_list):
        out = root / f"{i:03d}"
        since = time.time_ns() - STALE_NS
        code = ops.call(f"cli.{op['argv'][0]}", sc.cli.main,
                        op["argv"] + ["--out", str(out)])
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())
                  if p.stat().st_mtime_ns >= since}
                 if out.is_dir() else {})
        outs.append((code, files))
    return outs


def _data_files(files: dict) -> dict:
    return {k: v for k, v in files.items() if not k.endswith("_manifest.json")}


def same(a: list, b: list) -> bool:
    return all(ca == cb and _data_files(fa) == _data_files(fb)
               for (ca, fa), (cb, fb) in zip(a, b))


# ------------------------------------------------------------------ checks

def _close(got, want, rel=REL) -> bool:
    return got is not None and abs(got - want) <= rel * abs(want)


def _csv_rows(data: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return rows[0], np.array([[float(c) for c in r] for r in rows[1:]])


def _check_trap(cfg, files) -> list[str]:
    got = bench.strict_json(files["trap_frequencies.json"].decode())
    bench.strict_json(files["constants.json"].decode())
    g = cfg.get("gravity_m_per_s2", oracle.G_STANDARD)
    fields = dict(B0=cfg["B0_gauss"] * 1e-4, G=cfg["G_kG_per_cm"] * 10.0,
                  C=cfg["C_gauss_per_cm2"] * 1.0, gravity=g)
    fails, sags = [], []
    for role in ("buffer", "target"):
        sp = cfg[role]
        ref = oracle.ioffe_pritchard(sp["F"], sp["mF"], oracle.M_RB87,
                                     **fields)
        sags.append(ref["sag"])
        blk = got[role]
        for key in ("omega_x", "omega_y", "omega_z", "omega_bar"):
            if not _close(blk[f"{key}_rad_per_s"], ref[key]):
                fails.append(f"trap {role} {key}")
        if not _close(blk["sag_um"], ref["sag"] / 1e-6):
            fails.append(f"trap {role} sag")
    if not _close(got["delta_um"], (sags[0] - sags[1]) / 1e-6):
        fails.append("trap delta_um")
    return fails


def _check_budget(cfg, files) -> list[str]:
    got = bench.strict_json(files["budget_outcome.json"].decode())
    pref = cfg.get("psd_prefactor", oracle.PSD_PREFACTOR)
    args = (cfg["eta"], cfg["N1_ini"], cfg["N2"], cfg["T_ini_uK"] * 1e-6,
            cfg["omega1_bar_rad_per_s"], cfg["omega2_bar_rad_per_s"], pref)
    ref = oracle.budget_outcome(*args)
    fails = []
    if got["region"] != ref["region"]:
        fails.append(f"budget region {got['region']} vs oracle "
                     f"{ref['region']} at eta={cfg['eta']:.4f}")
    if got["closed_form_ordering"] != ref["ordering"]:
        fails.append("budget closed_form_ordering")
    keys = ("d2max", "d1max", "dequal") if ref["ordering"] else ("d2max",)
    for key in keys:
        if not _close(got[key], ref[key]):
            fails.append(f"budget {key} {got[key]} vs {ref[key]}")
    if cfg["eta"] > 3.0:
        n2c = oracle.n2_critical(cfg["eta"], cfg["N1_ini"],
                                 cfg["T_ini_uK"] * 1e-6,
                                 cfg["omega2_bar_rad_per_s"], pref)
        if not _close(got["n2_c"], n2c):
            fails.append(f"budget n2_c {got['n2_c']} vs {n2c}")
    elif got["n2_c"] is not None:
        fails.append("budget n2_c reported without an interior peak")
    return fails


def _contact_quantities(c: dict) -> list[float]:
    """(rho_z, overlap, gamma, heat flow, 1/tau) of one state dict in SI."""
    args = (c["T1"], c["T2"], c["M1"], c["M2"], c["w1"], c["w2"])
    gam = oracle.pair_rate(c["N1"], c["N2"], *args, c["sigma12"], c["delta"])
    return [oracle.pair_widths(*args)[2],
            oracle.overlap(*args, c["delta"]), gam,
            oracle.K_B * (c["T2"] - c["T1"]) * gam,
            oracle.relaxation_rate(c["N1"], c["N2"], *args, c["sigma12"],
                                   c["delta"])]


def _contact_state(cfg: dict) -> dict:
    def omegas(block):
        return [block[f"omega_{a}_rad_per_s"] for a in "xyz"]

    def sag(block):
        return block.get("gravity_m_per_s2", oracle.G_STANDARD) \
            / block["omega_z_rad_per_s"] ** 2

    delta = (cfg["delta_um"] * 1e-6 if "delta_um" in cfg
             else sag(cfg["trap1"]) - sag(cfg["trap2"]))
    return {"N1": cfg["N1"], "N2": cfg["N2"], "T1": cfg["T1_uK"] * 1e-6,
            "T2": cfg["T2_uK"] * 1e-6, "M1": cfg["M1_amu"] * oracle.AMU,
            "M2": cfg["M2_amu"] * oracle.AMU, "w1": omegas(cfg["trap1"]),
            "w2": omegas(cfg["trap2"]), "sigma12": cfg["sigma12_m2"],
            "delta": delta}


def _check_contact(op, files) -> list[str]:
    state = _contact_state(op["cfg"])
    got = bench.strict_json(files["contact_summary.json"].decode())
    rz, ov, gam, w, rate = _contact_quantities(state)
    fails = [f"contact summary {k}" for k, v, ref in (
        ("rho_z_um", got["rho_z_um"], rz / 1e-6),
        ("overlap", got["overlap"], ov), ("gamma_per_s", got["gamma_per_s"],
                                          gam),
        ("heat_flow_W", got["heat_flow_W"], w),
        ("thermalization_rate_per_s", got["thermalization_rate_per_s"],
         rate), ("tau_s", got["tau_s"], 1.0 / rate)) if not _close(v, ref)]
    var, lo, hi, count = op["sweep"].split(":")
    values = np.linspace(float(lo), float(hi), int(count))
    name = f"contact_sweep.{op['fmt']}"
    if op["fmt"] == "csv":
        header, table = _csv_rows(files[name])
    else:
        rows = bench.strict_json(files[name].decode())
        header = [var, "rho_z", "overlap", "gamma", "w", "inv_tau"]
        table = np.array([[r[k] for k in header] for r in rows], dtype=float)
    if header[0] != var or len(table) != len(values):
        return fails + ["contact sweep shape"]
    for v, row in zip(values, table):
        swept = dict(state, **({"T1": v, "T2": v} if var == "T"
                               else {var: float(v)}))
        ref = [v] + _contact_quantities(swept)
        if not all(_close(g, r) for g, r in zip(row, ref)):
            fails.append(f"contact sweep {var}={v!r}")
            break
    return fails


def _check_phase_diagram(op, files) -> list[str]:
    grid = op["grid"]
    rows = bench.strict_json(files["phase_diagram.json"].decode())
    bounds = bench.strict_json(files["phase_diagram_boundaries.json"].decode())
    etas = np.linspace(grid["eta_min"], grid["eta_max"], PD_ETA)
    n2s = np.geomspace(grid["n2_min"], grid["n2_max"], PD_N2)
    ratio = grid["ratio"]
    w1 = 2.0 * math.pi * 100.0
    fails = []
    if len(rows) != PD_ETA * PD_N2 or len(bounds) != PD_ETA:
        return ["phase-diagram shape"]
    for eta, b in zip(etas, bounds):
        ra, rb = oracle.boundary_ratios(eta, ratio)
        if not (_close(b["n2a_over_n2c"], ra) and _close(b["n2b_over_n2c"],
                                                         rb)):
            fails.append(f"phase-diagram boundaries at eta={eta:.4f}")
    cells = [(eta, r) for eta in etas for r in n2s]
    for (eta, r), row in zip(cells, rows):
        n2c = oracle.n2_critical(eta, 1e8, 300e-6, ratio * w1)
        ref = oracle.budget_outcome(eta, 1e8, r * n2c, 300e-6, w1,
                                    ratio * w1)
        if not (_close(row["eta"], eta, 1e-15) and _close(row["n2_over_n2c"],
                                                          r, 1e-15)):
            fails.append("phase-diagram grid")
            break
        if row["region"] != ref["region"]:
            fails.append(f"phase-diagram region {row['region']} vs oracle "
                         f"{ref['region']} at eta={eta:.4f} N2/N2c={r:.4f}")
        keys = ("d2max", "d1max", "dequal") if ref["ordering"] else ("d2max",)
        if not all(_close(row[k], ref[k]) for k in keys):
            fails.append(f"phase-diagram numbers at eta={eta:.4f} "
                         f"N2/N2c={r:.4f}")
    return fails


def _event_times(table, col_d, col_flag, threshold):
    """Linear interpolation of D through the threshold between the rows
    that bracket the first raised flag; None when the flag never rises."""
    raised = np.flatnonzero(table[:, col_flag] > 0.5)
    if raised.size == 0:
        return None
    i = int(raised[0])
    if i == 0:
        return float(table[0, 0])
    (t0, d0), (t1, d1) = table[i - 1, [0, col_d]], table[i, [0, col_d]]
    return float(t0 + (threshold - d0) / (d1 - d0) * (t1 - t0))


def _check_instant(cfg, files) -> list[str]:
    header, table = _csv_rows(files["traj.csv"])
    events = bench.strict_json(files["traj_events.json"].decode())["events"]
    ini = cfg["initial"]
    col = {h: k for k, h in enumerate(header)}
    eta, n1_ini, n2 = cfg["eta"], ini["N1"], ini["N2"]
    alpha = (eta - 2.0) / 3.0
    t_min = ini["T1_uK"] * 1e-6 * (n2 / n1_ini) ** alpha
    law = t_min * (table[:, col["N1"]] / n2 + 1.0) ** alpha
    fails = []
    worst = max(np.max(np.abs(table[:, col["T1"]] / law - 1.0)),
                np.max(np.abs(table[:, col["T2"]] / law - 1.0)))
    if not worst <= T_LAW:
        fails.append(f"instant traj off T(N1) by {worst:.2e}")
    wbar = (AXES[0] * AXES[1] * AXES[2]) ** (1.0 / 3.0)
    pref = cfg.get("psd_prefactor", oracle.PSD_PREFACTOR)
    cube = (oracle.HBAR * wbar / (oracle.K_B * law)) ** 3
    if not (np.allclose(table[:, col["D1"]], pref * table[:, col["N1"]] * cube,
                        rtol=T_LAW, atol=0.0)
            and np.allclose(table[:, col["D2"]], pref * n2 * cube,
                            rtol=T_LAW, atol=0.0)):
        fails.append("instant traj D1/D2 off N (hbar w / k_B T)^3")
    threshold = cfg.get("bec_threshold", oracle.BEC)
    for kind, d, flag in (("bec1", "D1", "bec1"), ("bec2", "D2", "bec2")):
        want = _event_times(table, col[d], col[flag], threshold)
        got = [e["t"] for e in events if e["kind"] == kind]
        if want is None:
            if got:
                fails.append(f"instant traj {kind} event without a flag")
        elif len(got) != 1 or abs(got[0] - want) > 1e-9 * max(1.0, want):
            fails.append(f"instant traj {kind} at {got} s, interpolation "
                         f"through D = {threshold} gives {want:.6f} s")
    return fails


def _readme_spec() -> dict:
    ini = README_TRAJ["initial"]
    w = [ini["trap1"][f"omega_{a}_rad_per_s"] for a in "xyz"]
    evap = README_TRAJ["evaporation"]
    return {"N1": ini["N1"], "N2": ini["N2"], "T1": ini["T1_uK"] * 1e-6,
            "T2": ini["T2_uK"] * 1e-6, "eta": README_TRAJ["eta"],
            "prefactor": evap["prefactor"], "M1": ini["M1_amu"] * oracle.AMU,
            "M2": ini["M2_amu"] * oracle.AMU, "w1": w, "w2": w,
            "sigma12": ini["sigma12_m2"], "sigma_self": evap["sigma_self_m2"],
            "delta": 0.0}


def _check_readme(files, twin_files) -> list[str]:
    fails = []
    if _data_files(files) != _data_files(twin_files):
        fails.append("README traj: two runs of one config differ")
    header, table = _csv_rows(files["traj.csv"])
    col = {h: k for k, h in enumerate(header)}
    spec = _readme_spec()
    misfit = oracle.ode_misfit(table[:, [col["N1"], col["T1"], col["T2"]]].T,
                               oracle.two_temperature(spec, table[:, 0]))
    if not misfit <= 1.0:
        fails.append(f"README traj off the reference ODE, misfit "
                     f"{misfit:.2f}")
    audit = bench.strict_json(files["traj_events.json"].decode())
    e0 = 3.0 * oracle.K_B * (spec["N1"] * spec["T1"] + spec["N2"] * spec["T2"])
    if not audit["energy_audit"]["max_drift_J"] <= 1e-6 * e0:
        fails.append("README traj energy audit drift")
    return fails


def _check_dsmc(cfg, files) -> list[str]:
    header, table = _csv_rows(files["dsmc.csv"])
    summary = bench.strict_json(files["dsmc_summary.json"].decode())
    sp = cfg["species"][0]
    tr = cfg["traps"][0]
    wbar = (tr["omega_x_rad_per_s"] * tr["omega_y_rad_per_s"]
            * tr["omega_z_rad_per_s"]) ** (1.0 / 3.0)
    n, sigma = sp["n_test"], sp["sigma_self_m2"]
    fails = []
    nominal = oracle.self_rate(n, sp["T_uK"] * 1e-6, wbar, sigma,
                               oracle.M_RB87)
    if not _close(summary["analytic_collision_rate_per_atom_per_s"],
                  nominal):
        fails.append("dsmc analytic collision rate")
    t_kin = float(np.mean(table[:, header.index("T1_kin")]))
    expected = oracle.self_rate(n, t_kin, wbar, sigma, oracle.M_RB87)
    measured = 2.0 * table[-1, header.index("collisions_cum")] \
        / (n * table[-1, 0])
    if not abs(measured / expected - 1.0) <= DSMC_BAND:
        fails.append(f"dsmc collision rate {measured:.3f}/s vs "
                     f"{expected:.3f}/s")
    return fails


def _strict_outputs(files) -> list[str]:
    fails = []
    for name, data in files.items():
        if name.endswith(".json"):
            try:
                bench.strict_json(data.decode("utf-8"))
            except ValueError as exc:
                fails.append(f"{name} is not strict JSON: {exc}")
    return fails


def check_op(ops_list, outs, i) -> list[str]:
    """Failures of op i; an op that raised inside a check fails too."""
    op, (code, files) = ops_list[i], outs[i]
    kind = op["kind"]
    if kind == "fault_budget_nan":
        return [] if code == 2 else [f"NaN T_ini_uK: exit {code}, want 2"]
    if code != 0:
        return [f"{kind} #{i}: exit code {code}, want 0"]
    fails = _strict_outputs(files)
    try:
        if kind == "trap":
            fails += _check_trap(op["cfg"], files)
        elif kind == "budget":
            fails += _check_budget(op["cfg"], files)
        elif kind == "contact":
            fails += _check_contact(op, files)
        elif kind == "phase_diagram":
            fails += _check_phase_diagram(op, files)
        elif kind in ("traj_instant", "fault_traj_threshold"):
            fails += _check_instant(op["cfg"], files)
        elif kind == "traj_readme":
            twin = i + 1 if ops_list[i + 1]["kind"] == kind else i - 1
            fails += _check_readme(files, outs[twin][1])
        elif kind == "dsmc":
            fails += _check_dsmc(op["cfg"], files)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        fails.append(f"unreadable output ({type(exc).__name__}: {exc})")
    return [f"{kind} #{i}: {f}" for f in fails]


def check(ops_list, outs) -> list[str]:
    fails = []
    for i, op in enumerate(ops_list):
        if op["kind"] not in FAULT_KINDS:
            fails += check_op(ops_list, outs, i)
    return fails


def known_faults(ops_list, outs) -> dict:
    """{op index: failures} of the operations a known program fault
    breaks; an operation with no failure is left out."""
    fails = {i: check_op(ops_list, outs, i)
             for i, op in enumerate(ops_list) if op["kind"] in FAULT_KINDS}
    return {i: f for i, f in fails.items() if f}
