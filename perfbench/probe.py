"""Set-up probe: one fresh interpreter that imports sympcool and builds
one workload's inputs, timing both.

    python3 perfbench/probe.py --workload NAME --seed N --workdir DIR

Prints {"import_s": ..., "inputs_s": ..., "factor": ...} as one JSON
line, factor being the bench.Calibrator scale measured right after.
run.py starts several probes in a row and reports the median of their
scaled times as setup_s, because only a fresh process pays the import
again.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import bench


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=bench.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    bench.single_threaded()
    bench.use_source_tree()

    t0 = time.perf_counter()
    sc = bench.import_program()
    t1 = time.perf_counter()
    workload = bench.load_workload(args.workload)
    t2 = time.perf_counter()
    workload.build(args.seed, sc, args.workdir)
    t3 = time.perf_counter()
    cal = bench.Calibrator()
    for _ in range(3):
        cal.sample()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2,
                      "factor": cal.factor()}))


if __name__ == "__main__":
    main()
