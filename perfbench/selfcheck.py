"""Show that every check of the benchmark catches a corrupted output.

    python3 perfbench/selfcheck.py

For each workload this builds the inputs from seed SEED, runs one
round, requires the checks to pass on the real outputs, then feeds them
copies with one deliberate corruption each (a perturbed number, a
flipped flag, a non-strict JSON token, ...) and requires the check
aimed at it to fail.
For the two known-fault operations of cli_study it also feeds the
output a mended program would give and requires the fault to clear.
Exits 1 if any corruption slips through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
import warnings

import numpy as np

import bench


def _replace_point(points, i, **changes):
    points[i] = dataclasses.replace(points[i], **changes)


# ------------------------------------------------------------------- dsmc

def dsmc_cases(legs, outs):
    import wl_dsmc

    def energy(o):
        o[0][0].ensembles[0].velocities[0] *= 1.001

    def collisions(o):
        o[1][0].channel_collisions[(0, 1)] *= 1.2

    def program_fit(o):
        res, fit = o[0]
        o[0] = (res, (fit[0] * 1.5, fit[1]))

    def reference_fit(o):
        res = o[0][0]
        spec = legs[0][0]
        slow = np.exp(0.5 * wl_dsmc.analytic_rate(spec) * res.times)
        mean = res.temps.mean(axis=1)
        half = 0.5 * (res.temps[:, 0] - res.temps[:, 1]) * slow
        res.temps[:, 0], res.temps[:, 1] = mean + half, mean - half

    return [("energy drift", energy, "energy drift"),
            ("cross-collision count", collisions, "cross collisions"),
            ("program's fitted rate", program_fit, "fitted rate"),
            ("relaxation of the temperatures", reference_fit,
             "reference fit")]


# ------------------------------------------------------------- trajectory

def traj_cases(legs, outs):
    def ode(o):
        pts = o[2][0]
        _replace_point(pts, len(pts) // 2, T2=pts[len(pts) // 2].T2 * 1.0001)

    def audit_removed(o):
        o[3][1]["E_removed"] = o[3][1]["E_removed"] * 1.01

    def audit_total(o):
        o[3][1]["E_total"] = o[3][1]["E_total"] * (1 + 1e-9)

    def psd(o):
        _replace_point(o[4][0], 5, D1=o[4][0][5].D1 * 1.01)

    def stall(o):
        pts = o[0][0]
        for i in range(len(pts)):
            _replace_point(pts, i, stalled=False)

    def condense(o):
        _replace_point(o[1][0], -1, bec2=False)

    return [("reference ODE", ode, "reference ODE"),
            ("energy audit", audit_removed, "misses E_removed"),
            ("audit total energy", audit_total, "audit E_total"),
            ("phase-space density", psd, "D1/D2"),
            ("weak-contact stall", stall, "no latched stall"),
            ("strong-contact condensation", condense, "did not condense")]


# -------------------------------------------------------------------- cli

def _nth(ops_list, kind, nth=0):
    """Index of the nth operation of one kind."""
    return [i for i, op in enumerate(ops_list) if op["kind"] == kind][nth]


def _edit_json(files, name, edit):
    obj = json.loads(files[name])
    edit(obj)
    files[name] = json.dumps(obj).encode()


def _edit_csv(files, name, row, col, factor):
    lines = files[name].decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    files[name] = ("\n".join(lines) + "\n").encode()


def cli_cases(ops_list, outs):
    def files(o, kind, nth=0):
        return o[_nth(ops_list, kind, nth)][1]

    def scale(key, factor):
        def edit(obj):
            obj[key] *= factor
        return edit

    def nan_token(o):
        _edit_json(files(o, "trap"), "trap_frequencies.json",
                   scale("delta_um", float("nan")))

    def trap(o):
        _edit_json(files(o, "trap"), "trap_frequencies.json",
                   lambda obj: obj["target"].update(
                       omega_z_rad_per_s=obj["target"]["omega_z_rad_per_s"]
                       * (1 + 1e-7)))

    def swap(obj):
        obj["region"] = ("NoBEC" if obj["region"] != "NoBEC"
                         else "TargetOnly")

    def region(o):
        _edit_json(files(o, "budget"), "budget_outcome.json", swap)

    def d2max(o):
        _edit_json(files(o, "budget"), "budget_outcome.json",
                   scale("d2max", 1 + 1e-7))

    def contact_summary(o):
        _edit_json(files(o, "contact"), "contact_summary.json",
                   scale("gamma_per_s", 1 + 1e-7))

    def contact_sweep(o):
        _edit_csv(files(o, "contact"), "contact_sweep.csv", 7, 3, 1 + 1e-7)

    def pd_region(o):
        _edit_json(files(o, "phase_diagram"), "phase_diagram.json",
                   lambda rows: swap(rows[3]))

    def pd_bounds(o):
        def edit(rows):
            rows[2]["n2b_over_n2c"] *= 1 + 1e-7
        _edit_json(files(o, "phase_diagram"), "phase_diagram_boundaries.json",
                   edit)

    def instant_law(o):
        _edit_csv(files(o, "traj_instant"), "traj.csv", 10, 2, 1 + 1e-5)

    def instant_event(o):
        def edit(obj):
            bec = [e for e in obj["events"] if e["kind"].startswith("bec")]
            bec[0]["t"] += 1e-3
        with_bec = next(f for (code, f), op in zip(o, ops_list)
                        if op["kind"] == "traj_instant"
                        and b'"bec' in f["traj_events.json"])
        _edit_json(with_bec, "traj_events.json", edit)

    def twin(o):
        f = files(o, "traj_readme", 1)
        f["traj.csv"] = f["traj.csv"].replace(b"\n", b"\r\n", 1)

    def readme_ode(o):
        _edit_csv(files(o, "traj_readme"), "traj.csv", 100, 2, 1 + 1e-4)

    def dsmc(o):
        f = files(o, "dsmc")
        last = len(f["dsmc.csv"].decode().splitlines()) - 1
        _edit_csv(f, "dsmc.csv", last, 3, 1.3)

    def exit_code(o):
        i = _nth(ops_list, "budget", 1)
        o[i] = (1, o[i][1])

    return [("strict JSON", nan_token, "not strict JSON"),
            ("trap frequencies", trap, "trap target omega_z"),
            ("budget region", region, "budget region"),
            ("budget closed form", d2max, "budget d2max"),
            ("contact summary", contact_summary, "contact summary"),
            ("contact sweep", contact_sweep, "contact sweep"),
            ("phase-diagram region", pd_region, "phase-diagram region"),
            ("phase-diagram boundaries", pd_bounds, "boundaries"),
            ("instant mode on T(N1)", instant_law, "off T(N1)"),
            ("instant event time", instant_event, "interpolation"),
            ("byte-identical reruns", twin, "two runs of one config"),
            ("finite traj reference ODE", readme_ode, "reference ODE"),
            ("small DSMC collision rate", dsmc, "dsmc collision rate"),
            ("exit code", exit_code, "exit code 1")]


def cli_mended(ops_list, outs):
    """Outputs a mended program would give for the two known-fault ops."""
    import wl_cli
    fixed = copy.deepcopy(outs)
    i = _nth(ops_list, "fault_budget_nan")
    fixed[i] = (2, {})
    i = _nth(ops_list, "fault_traj_threshold")
    files = fixed[i][1]
    cfg = ops_list[i]["cfg"]
    header, table = wl_cli._csv_rows(files["traj.csv"])
    col = {h: k for k, h in enumerate(header)}

    def mend(obj):
        for e in obj["events"]:
            if e["kind"] in ("bec1", "bec2"):
                d = "D1" if e["kind"] == "bec1" else "D2"
                e["t"] = wl_cli._event_times(table, col[d], col[e["kind"]],
                                             cfg["bec_threshold"])
    _edit_json(files, "traj_events.json", mend)
    return fixed


# ------------------------------------------------------------------- main

SEED = 1

CASES = {"dsmc_thermalize": dsmc_cases, "traj_overlap": traj_cases,
         "cli_study": cli_cases}


def selfcheck(name, seed, sc) -> int:
    wl = bench.load_workload(name)
    workdir = bench.OUT / f"selfcheck-{name}"
    try:
        inputs = wl.build(seed, sc, workdir)
        ops = bench.Ops(bench.Calibrator())
        outs = wl.run_round(inputs, ops, sc, workdir / "out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missed = 0
    base = wl.check(inputs, outs)
    print(f"{name}: real outputs -> {'pass' if not base else base}")
    missed += bool(base)
    for label, corrupt, expect in CASES[name](inputs, outs):
        bad = copy.deepcopy(outs)
        corrupt(bad)
        fails = wl.check(inputs, bad)
        caught = any(expect in f for f in fails)
        missed += not caught
        print(f"  {'caught' if caught else 'MISSED'}: {label}"
              + (f" ({fails[0]})" if fails else ""))
    if name == "cli_study":
        faults = wl.known_faults(inputs, outs)
        mended = wl.known_faults(inputs, cli_mended(inputs, outs))
        ok = len(faults) == 2 and not mended
        missed += not ok
        print(f"  {'caught' if ok else 'MISSED'}: known faults fail today "
              f"({len(faults)} ops) and clear on mended outputs "
              f"({len(mended)} left)")
    return missed


def main() -> None:
    bench.single_threaded()
    bench.use_source_tree()
    sc = bench.import_program()
    warnings.simplefilter("ignore", sc.CellUnderflowWarning)
    missed = sum(selfcheck(n, SEED, sc) for n in CASES)
    print("all corruptions caught" if not missed
          else f"{missed} corruptions missed")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
