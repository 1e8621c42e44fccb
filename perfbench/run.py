"""sympcool benchmark: one workload per process, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: dsmc_thermalize, traj_overlap
and cli_study (see README.md in this directory).  The seed makes the
inputs; the program only ever sees the generated inputs.

A run first starts PROBES fresh interpreters that each import sympcool
and build the inputs (setup_s is their median), then imports and builds
once more in this process and repeats whole rounds of the workload's
operations for about S seconds.  Every round runs the same operations on
the same inputs; the first round's outputs go through the independent
checks and every later round must reproduce them exactly.

--trace 0 reports the end-to-end metrics: wall_s (median over rounds of
the time spent in the program), op_p50_ms (median over a round's
operations of each one's median time), setup_s and peak_rss_mb.  Times
are in reference seconds (see bench.Calibrator).
--trace 1 runs one untraced round, then traced rounds with span wrappers
on every public function of the program, and reports the per-layer
metrics plus the tracing overhead.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import warnings

import bench

PROBES = 5
MAX_TRACED_ROUNDS = 2   # spans of one traj_overlap round run to ~10^6


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(bench.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def probe_setup(args, workdir) -> list[dict]:
    """Import and inputs times, in reference seconds, from PROBES fresh
    interpreters."""
    samples = []
    for k in range(PROBES):
        probe_dir = workdir / f"probe{k}"
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "probe.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--workdir",
             str(probe_dir)],
            capture_output=True, text=True, timeout=120)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited "
                             f"{proc.returncode}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({key: got[key] * got["factor"]
                        for key in ("import_s", "inputs_s")})
    return samples


def src_lines() -> int:
    return sum(1 for path in sorted((bench.SRC / "sympcool").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip())


class Rounds:
    """Runs whole rounds and keeps what the metrics and checks need."""

    def __init__(self, workload, inputs, sc, workdir):
        self.wl, self.inputs, self.sc, self.workdir = (workload, inputs, sc,
                                                       workdir)
        self.spans: list[tuple[bench.Ops, int, int]] = []
        self.first = None
        self.faults = 0
        self.problems: list[str] = []

    def run(self, ops: bench.Ops) -> float:
        lo = len(ops.spans)
        t0 = time.perf_counter()
        outs = self.wl.run_round(self.inputs, ops, self.sc,
                                 self.workdir / "out")
        elapsed = time.perf_counter() - t0
        self.spans.append((ops, lo, len(ops.spans)))
        self.faults += len(self.wl.known_faults(self.inputs, outs))
        if self.first is None:
            self.first = outs
        elif not self.wl.same(self.first, outs):
            self.problems.append(f"round {len(self.spans)} did not "
                                 "reproduce round 1")
        return elapsed

    def until(self, ops: bench.Ops, deadline: float, max_rounds=None) -> int:
        """Whole rounds until the next one would pass the deadline."""
        done = 0
        while True:
            elapsed = self.run(ops)
            done += 1
            if (max_rounds is not None and done >= max_rounds) \
                    or time.perf_counter() + elapsed > deadline:
                return done

    def op_medians(self) -> list[float]:
        """Each operation's median scaled time over the rounds.  Rounds
        repeat the same operations in the same order, so the median over
        these does not depend on how many rounds fitted in the run."""
        per_round = [[d for d, span in zip(ops.scaled(lo, hi),
                                           ops.spans[lo:hi]) if span[2]]
                     for ops, lo, hi in self.spans]
        return [bench.median(times) for times in zip(*per_round)]

    def walls(self, scaled=True) -> list[float]:
        """Program time of each round, in reference or raw seconds."""
        return [sum(ops.scaled(lo, hi)) if scaled
                else sum(e - s for s, e, _ in ops.spans[lo:hi])
                for ops, lo, hi in self.spans]


def main() -> None:
    args = parse_args()
    bench.single_threaded()
    bench.use_source_tree()
    workdir = bench.OUT / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, workdir) -> dict:
    setup = probe_setup(args, workdir)
    sc = bench.import_program()
    warnings.simplefilter("ignore", sc.CellUnderflowWarning)
    wl = bench.load_workload(args.workload)
    inputs = wl.build(args.seed, sc, workdir)

    units = bench.declared_units()
    rounds = Rounds(wl, inputs, sc, workdir)
    cal = bench.Calibrator()
    cal.sample()
    untraced = bench.Ops(cal)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from tracer import Tracer
        rounds.run(untraced)
        tracer = Tracer()
        tracer.install()
        traced = bench.Ops(cal, tracer)
        try:
            n_traced = rounds.until(traced, deadline, MAX_TRACED_ROUNDS)
        finally:
            tracer.uninstall()
        cal.sample()
        tracer.save(bench.OUT / f"spans_{args.workload}.npz")
        metrics = tracer.layer_metrics(n_traced)
        for key, value in metrics.items():
            if units[key] in ("s", "ms", "us", "ns"):
                metrics[key] = value * cal.factor()
            elif units[key] == "1/s":
                metrics[key] = value / cal.factor()
        walls = rounds.walls()
        metrics["trace.overhead_ratio"] = bench.median(walls[1:]) / walls[0]
        metrics["setup.import_s"] = bench.median(s["import_s"] for s in setup)
        metrics["setup.inputs_s"] = bench.median(s["inputs_s"] for s in setup)
        metrics["src.lines"] = src_lines()
        attempted = untraced.attempted + traced.attempted
        errors = untraced.errors + traced.errors
    else:
        rounds.until(untraced, deadline)
        cal.sample()
        metrics = {
            "wall_s": bench.median(rounds.walls()),
            "op_p50_ms": 1e3 * bench.median(rounds.op_medians()),
            "setup_s": bench.median(s["import_s"] + s["inputs_s"]
                                    for s in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        attempted = untraced.attempted
        errors = untraced.errors

    problems = wl.check(inputs, rounds.first) + rounds.problems + errors
    for line in problems:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    n_rounds = len(rounds.spans)
    print(f"perfbench: {args.workload} seed {args.seed}: {n_rounds} rounds "
          f"of {attempted // n_rounds} operations, round walls "
          f"{[round(w, 3) for w in rounds.walls(scaled=False)]} s raw, "
          f"{[round(w, 3) for w in rounds.walls()]} s scaled; "
          f"known-fault failures {rounds.faults}; "
          f"{len(cal.ends)} calibration samples", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": rounds.faults + len(errors),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in sorted(metrics.items())}}


if __name__ == "__main__":
    main()
