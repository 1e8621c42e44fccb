"""Paired benchmark runs of a base commit and the working tree.

    python3 tools/bench_pairs.py --out BENCH_11.json --change TEXT \
        [--workload NAME ...] [--seeds 21-30] [--base HEAD] \
        [--claim WORKLOAD:METRIC]

Run from the repository root.  The base commit (default HEAD, the parent
of an uncommitted change) is exported with `git archive` into a temporary
directory; the working tree is the change.  For every workload and seed
the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, T being BENCHMARK.json's run_seconds, base first
in even pairs and change first in odd ones, so that a drift of the
host's speed falls on both sides alike.  Each side runs its own
perfbench/ and src/.  The output file records the host, the Python,
numpy and scipy versions, the non-blank line count of src/sympcool in
each checkout and, per workload and end-to-end metric, both sides'
median and quartiles (linear interpolation), the relative change of the
median, in how many pairs the change was lower, every run, and whether
the change's median is worse than the base's by more than the metric's
BENCHMARK.json bound ("within" or "exceeded").  With --claim, a "claim"
entry says whether the change is lower in at least nine of ten pairs
and its median lies below the base's by more than the base's
interquartile range, lists every bound exceeded on any workload, and
"layers" summarizes the per-layer metrics the same way over TRACE_PAIRS
alternating pairs of traced runs (--trace 1) on the claimed workload
and the first TRACE_PAIRS seeds, to show in which layer the saving
sits; one traced run swings by a fifth on layers a change does not
touch.

Before the workloads, every side's cold start is timed: a fresh
interpreter on `import sympcool, sympcool.cli`, and one on each README
example of `trap`, `budget`, `phase-diagram`, `contact` and `traj`, each
COLD_STARTS times, base first in even pairs.  One untimed run per side
writes the bytecode caches first.  These are raw wall-clock seconds
around the whole process, summarized per command by each side's median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
TRACE_PAIRS = 5
COLD_STARTS = 7

_W = {"omega_x_rad_per_s": 628.3, "omega_y_rad_per_s": 628.3,
      "omega_z_rad_per_s": 628.3}
# the README's example configs, by file name
README_CONFIGS = {
    "trap.json": {"B0_gauss": 56, "G_kG_per_cm": 1.0, "C_gauss_per_cm2": 56,
                  "buffer": {"F": 1, "mF": -1}, "target": {"F": 2, "mF": 2}},
    "budget.json": {"eta": 6.5, "N1_ini": 1e8, "N2": 1e4, "T_ini_uK": 300,
                    "omega1_bar_rad_per_s": 628.3,
                    "omega2_bar_rad_per_s": 888.6},
    "state.json": {"N1": 1e6, "N2": 1e4, "T1_uK": 0.4, "T2_uK": 0.4,
                   "M1_amu": 86.909, "M2_amu": 86.909, "sigma12_m2": 2e-15,
                   "delta_um": 26, "trap1": _W, "trap2": _W},
    "traj.json": {
        "eta": 6.5, "contact_mode": "finite", "t_end_s": 30, "dt_max_s": 0.05,
        "initial": {"N1": 1e6, "N2": 1e4, "T1_uK": 10, "T2_uK": 10,
                    "M1_amu": 86.909, "M2_amu": 86.909, "sigma12_m2": 2e-15,
                    "trap1": {**_W, "gravity_m_per_s2": 0},
                    "trap2": {**_W, "gravity_m_per_s2": 0}},
        "evaporation": {"model": "rate", "prefactor": 5,
                        "sigma_self_m2": 2e-15}},
}
# timed commands: python's arguments, run in a directory holding the configs
COLD_COMMANDS = {
    "import": ["-c", "import sympcool, sympcool.cli"],
    "trap": ["-m", "sympcool.cli", "trap", "--config", "trap.json",
             "--out", "results"],
    "budget": ["-m", "sympcool.cli", "budget", "--config", "budget.json"],
    "phase-diagram": ["-m", "sympcool.cli", "phase-diagram", "--eta-min",
                      "4", "--eta-max", "10", "--eta-points", "13",
                      "--ratio", "1.414", "--out", "fig3.csv",
                      "--plot-script"],
    "contact": ["-m", "sympcool.cli", "contact", "--state", "state.json",
                "--sweep", "delta:0:40e-6:81"],
    "traj": ["-m", "sympcool.cli", "traj", "--config", "traj.json",
             "--plot-script"],
}


def _sig(x) -> float:
    """x to six significant digits, so that per-layer values of some
    microseconds keep their precision."""
    return float(f"{x:.6g}")


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float),
                                [25, 50, 75])
    return {"median": _sig(med), "q1": _sig(q1), "q3": _sig(q3)}


def summarize(base_runs: list[dict], change_runs: list[dict],
              metrics: dict, bounds: dict | None = None) -> dict:
    """One workload's summary from paired run.py results.

    base_runs[i] and change_runs[i] are the JSON results of pair i;
    metrics maps each metric to its unit.  A tie counts for neither side
    in the pair count, and the relative change is None where the
    parent's median is 0 (a layer that does not run on the workload).
    bounds maps end-to-end metrics to their BENCHMARK.json entry; each
    of those gets a "bound" entry from bound_check.
    """
    if len(base_runs) != len(change_runs) or not base_runs:
        raise ValueError("need the same positive number of runs per side")
    sides = {"parent": base_runs, "change": change_runs}
    out = {
        "failed": {side: f"{sum(r['failed'] for r in runs)}/"
                         f"{sum(r['attempted'] for r in runs)}"
                   for side, runs in sides.items()},
        "correct_every_run": {side: all(r["correct"] for r in runs)
                              for side, runs in sides.items()},
    }
    for name, unit in metrics.items():
        values = {side: [_sig(r["metrics"][name]["value"]) for r in runs]
                  for side, runs in sides.items()}
        stats = {side: quartiles(v) for side, v in values.items()}
        lower = sum(c < b for b, c in zip(values["parent"],
                                          values["change"]))
        base, change = stats["parent"]["median"], stats["change"]["median"]
        out[name] = {
            "unit": unit, **stats,
            "relative_change_of_median": (round(change / base - 1.0, 3)
                                          if base else None),
            "change_lower_in_pairs": f"{lower}/{len(base_runs)}",
            "parent_runs": values["parent"], "change_runs": values["change"],
        }
        if bounds and name in bounds:
            out[name]["bound"] = bound_check(base, change, bounds[name])
    return out


def bound_check(parent: float, change: float, spec: dict) -> dict:
    """Whether the change's median is worse than the parent's by more
    than spec["bound"], a fraction of the parent's median, in the
    direction spec["better"] ("lower" or "higher") says is better."""
    limit = spec["bound"]
    if spec["better"] == "lower":
        exceeded = change > parent * (1.0 + limit)
    else:
        exceeded = change < parent * (1.0 - limit)
    return {"better": spec["better"], "bound": limit,
            "verdict": "exceeded" if exceeded else "within"}


def exceeded_bounds(workloads: dict) -> list[str]:
    """"WORKLOAD METRIC" of every bound_check verdict "exceeded" in the
    summaries of workloads (workload name to summarize's result)."""
    return [f"{workload} {name}"
            for workload, summary in workloads.items()
            for name, entry in summary.items()
            if isinstance(entry, dict)
            and entry.get("bound", {}).get("verdict") == "exceeded"]


def cold_start_summary(parent: dict, change: dict) -> dict:
    """Per command, each side's median of its raw cold-start seconds, the
    relative change of the median, in how many pairs the change was
    faster, and every time; parent and change map a command to its
    times, pair i being the i-th of each."""
    out = {}
    for name, base_times in parent.items():
        change_times = change[name]
        if len(base_times) != len(change_times) or not base_times:
            raise ValueError("need the same positive number of cold starts "
                             "per side")
        medians = {side: round(float(np.median(times)), 4)
                   for side, times in (("parent", base_times),
                                       ("change", change_times))}
        lower = sum(c < b for b, c in zip(base_times, change_times))
        out[name] = {
            "unit": "s", **medians,
            "relative_change_of_median": round(
                medians["change"] / medians["parent"] - 1.0, 3),
            "change_lower_in_pairs": f"{lower}/{len(base_times)}",
            "parent_runs": [round(t, 4) for t in base_times],
            "change_runs": [round(t, 4) for t in change_times]}
    return out


def claim_verdict(summary: dict, metric: str, exceeded=()) -> dict:
    """Lower in at least nine tenths of the pairs, and the median lower
    than the parent's by more than the parent's interquartile range;
    "bounds_exceeded" lists exceeded, the end-to-end bounds that the
    change exceeds on any workload (see exceeded_bounds)."""
    m = summary[metric]
    lower, pairs = map(int, m["change_lower_in_pairs"].split("/"))
    parent, change = m["parent"], m["change"]
    gap = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    held = 10 * lower >= 9 * pairs and gap > iqr
    return {"target": "lower in at least 9 of 10 pairs and the median "
                      "below the parent's by more than the parent's "
                      "interquartile range",
            "result": f"lower in {lower}/{pairs} pairs, median "
                      f"{m['relative_change_of_median']:+.1%}, median gap "
                      f"{gap:.4g} against parent IQR {iqr:.4g} {m['unit']}: "
                      + ("met" if held else "not met"),
            "bounds_exceeded": list(exceeded)}


def src_lines(checkout: Path) -> int:
    return sum(1 for path in sorted((checkout / "src" / "sympcool")
                                    .rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip())


def host() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "vcpus": os.cpu_count(), "os": platform.platform()}


def export(commit: str, dest: Path) -> None:
    """The files of commit, as git archive writes them, under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", commit],
                          cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds,
             trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py exited {proc.returncode} in {checkout} "
                         f"on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_start(checkout: Path, workdir: Path, args: list[str]) -> float:
    """Raw wall seconds of one fresh interpreter on args in workdir, with
    checkout/src first on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH"))))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode} with "
                         f"{checkout}/src")
    return elapsed


def cold_starts(sides: dict[str, Path], tmp: Path) -> dict:
    """Cold-start times of every COLD_COMMANDS entry on both sides,
    COLD_STARTS alternating pairs each, summarized by cold_start_summary."""
    workdirs = {}
    for side in sides:
        workdirs[side] = tmp / f"cold_{side}"
        workdirs[side].mkdir()
        for name, obj in README_CONFIGS.items():
            (workdirs[side] / name).write_text(json.dumps(obj),
                                               encoding="utf-8")
    times = {side: {name: [] for name in COLD_COMMANDS} for side in sides}
    for name, args in COLD_COMMANDS.items():
        for side, checkout in sides.items():     # writes the .pyc caches
            cold_start(checkout, workdirs[side], args)
        for i in range(COLD_STARTS):
            order = list(sides.items())
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                times[side][name].append(
                    cold_start(checkout, workdirs[side], args))
        print(f"cold start {name}: " + " ".join(
            f"{side} median {np.median(t[name]):.3f} s"
            for side, t in times.items()), flush=True)
    return cold_start_summary(times["parent"], times["change"])


def parse_claim(text: str, workloads, metrics) -> tuple[str, str]:
    """(workload, metric) of a --claim WORKLOAD:METRIC; ValueError unless
    the workload is among those run and the metric is end-to-end."""
    workload, colon, metric = text.partition(":")
    if not colon:
        raise ValueError(f"--claim {text!r} is not WORKLOAD:METRIC")
    if workload not in workloads:
        raise ValueError(f"--claim workload {workload!r} is not among the "
                         f"workloads run: {', '.join(workloads)}")
    if metric not in metrics:
        raise ValueError(f"--claim metric {metric!r} is not an end-to-end "
                         f"metric: {', '.join(metrics)}")
    return workload, metric


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--change", required=True,
                    help="one line saying what the change does")
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several; default every workload")
    ap.add_argument("--seeds", default="21-30", help="FIRST-LAST or one seed")
    ap.add_argument("--base", default="HEAD", help="commit to compare with")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    args = ap.parse_args()
    workloads = args.workload or names
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.claim:      # checked before the runs, which take about 40 min
        try:
            claim = parse_claim(args.claim, workloads, metrics)
        except ValueError as exc:
            ap.error(str(exc))

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base = Path(tmp) / "base"
        export(args.base, base)
        result = {
            "change": args.change, "host": host(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "src.lines": {"parent": src_lines(base), "change": src_lines(ROOT)},
            "method": f"python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds} --trace 0, {len(seeds)} "
                      f"alternating parent/change pairs per workload "
                      f"(parent first in even pairs), seeds "
                      f"{args.seeds}, parent {args.base} by git archive, "
                      f"change the working tree, each side from its own "
                      f"checkout; times in reference seconds; quartiles by "
                      f"linear interpolation over the runs; cold_start in "
                      f"raw seconds, {COLD_STARTS} alternating pairs per "
                      f"command after one untimed run per side",
            "cold_start": cold_starts({"parent": base, "change": ROOT},
                                      Path(tmp)),
            "workloads": {},
        }

        def pairs(workload, seeds, trace, shown):
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = (("parent", base), ("change", ROOT))
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    r = run_once(checkout, workload, seed, seconds, trace)
                    runs[side].append(r)
                    print(f"{workload} seed {seed} {side}: "
                          f"correct={r['correct']} "
                          f"failed={r['failed']}/{r['attempted']} "
                          + " ".join(f"{k}={r['metrics'][k]['value']:.4g}"
                                     for k in shown), flush=True)
            return runs["parent"], runs["change"]

        for workload in workloads:
            result["workloads"][workload] = summarize(
                *pairs(workload, seeds, 0, metrics), metrics, bounds)
        if args.claim:
            workload, metric = claim
            result["claim"] = {
                "metric": f"{workload} {metric}",
                **claim_verdict(result["workloads"][workload], metric,
                                exceeded_bounds(result["workloads"])),
                "layers": summarize(
                    *pairs(workload, seeds[:TRACE_PAIRS], 1, ()), layers)}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                              encoding="utf-8")
    print("bounds exceeded: " + (", ".join(
        exceeded_bounds(result["workloads"])) or "none"), flush=True)


if __name__ == "__main__":
    main()
