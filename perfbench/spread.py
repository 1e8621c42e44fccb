"""Run-to-run spread of the end-to-end metrics, the way they are judged.

    python3 perfbench/spread.py --workload NAME

Runs run.py once per seed 1-10 (RUNS seeds from FIRST_SEED) with tracing
off and BENCHMARK.json's run_seconds, one run after another.  Prints,
for each end-to-end metric, the median, the quartiles of
statistics.quantiles(values, n=4) and (Q3 - Q1) / median next to the
metric's bound, plus the failed share of the operations, and writes the
same to out/spread_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import bench

RUNS = 10
FIRST_SEED = 1


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=list(bench.WORKLOADS),
                    required=True)
    args = ap.parse_args()
    spec = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=300,
            cwd=bench.HERE.parent)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run.py exited {proc.returncode} on seed {seed}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(dict(result, seed=seed))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}"
                         for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread,
                                         "bound": m["bound"]}
        print(f"{m['name']:>12}: median {med:.5g} {m['unit']}, "
              f"quartiles {q1:.5g}..{q3:.5g}, spread {spread:.4f} "
              f"(bound {m['bound']}, third {m['bound'] / 3:.4f})")
    bench.OUT.mkdir(parents=True, exist_ok=True)
    (bench.OUT / f"spread_{args.workload}.json").write_text(
        json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
