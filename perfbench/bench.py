"""Shared plumbing of the benchmark: where the program's sources are,
seeded input streams, operation timing and strict JSON parsing.

Only the standard library is imported here, so that a set-up probe can
load this module before it starts timing the import of sympcool (which
pulls in numpy and scipy).
"""

from __future__ import annotations

import bisect
import dataclasses
import importlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = {"dsmc_thermalize": "wl_dsmc", "traj_overlap": "wl_traj",
             "cli_study": "wl_cli"}

def single_threaded() -> None:
    """One thread per workload process (inherited by the probes): numpy's
    BLAS must not fan out, so the timings measure the program and not the
    host's spare cores."""
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})


def use_source_tree() -> None:
    """Put the checkout's src/ first on sys.path.

    Exits with code 2 when src/sympcool is absent, so that an installed
    copy of sympcool is never measured in place of the checkout.
    """
    if not (SRC / "sympcool" / "__init__.py").is_file():
        print(f"perfbench: no sympcool sources at {SRC / 'sympcool'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def import_program():
    """Import every sympcool module the workloads use; returns the package."""
    import sympcool
    import sympcool.cli  # noqa: F401  (not imported by the package itself)
    if not Path(sympcool.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {sympcool.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return sympcool


def declared_units() -> dict:
    """{metric: unit} for every metric BENCHMARK.json declares."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def load_workload(name: str):
    """The module that builds, runs and checks one workload."""
    return importlib.import_module(WORKLOADS[name])


def rng(seed: int, stream: int):
    """Independent numpy Generator for one input stream of one seed."""
    import numpy as np
    return np.random.Generator(np.random.Philox(key=[seed % (1 << 63),
                                                     stream]))


@dataclasses.dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        if not self.a >= 0.0:
            raise ValueError("a must be >= 0")


def _python_work(n: int) -> float:
    """Interpreter-bound part of the calibration kernel: validated frozen
    dataclass updates and math calls, like an ODE right-hand side."""
    acc, p = 0.0, _Pair(1.0, 2.0)
    for i in range(n):
        p = dataclasses.replace(p, a=i * 0.5)
        acc += math.sqrt(p.a * p.a + p.b) * math.exp(-p.a / (p.b + 1.0))
    return acc


class Calibrator:
    """Host-speed reference: a fixed kernel of numpy sorts, gathers and
    scatters on 2*10^4 elements plus interpreter-bound Python work, timed
    between the program's calls.

    This host's speed drifts by 20-40% over tens of seconds as
    neighbouring load comes and goes, which dwarfs the run-to-run
    differences of the program itself.  Each interval the program runs is
    therefore scaled by REF_S over the mean kernel time of the samples
    taken just before and just after it: the result is seconds on a host
    that runs the kernel in REF_S.  The kernel never calls sympcool, so a
    change to the program moves the scaled times as it moves the raw ones.
    """

    REF_S = 0.050           # kernel time on the reference host
    INTERVAL_S = 0.5        # at most one sample per this much time

    def __init__(self):
        import numpy as np
        self.np = np
        draw = np.random.default_rng(20010113)
        self.keys = draw.integers(0, 1 << 40, 20_000)
        self.pos = draw.random((20_000, 3))
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(10):
            order = np.argsort(self.keys, kind="stable")
            gathered = self.pos[order]
            self.pos[order] = gathered
            np.sqrt(np.sum(gathered * gathered, axis=1))
        _python_work(6000)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] \
                >= self.INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time of the samples that bracket
        [start, end] (the nearest one where a side has none)."""
        i = bisect.bisect_right(self.ends, start) - 1
        j = bisect.bisect_left(self.starts, end)
        near = [k for k in (i, j) if 0 <= k < len(self.ends)]
        return self.REF_S * len(near) / sum(self.ends[k] - self.starts[k]
                                            for k in near)

    def factor(self) -> float:
        """REF_S over the median kernel time of all samples."""
        return self.REF_S / median(e - s for s, e in zip(self.starts,
                                                           self.ends))


class Ops:
    """Records each call into the program as a (start, end, is_op) span.

    `call` is one operation (one dsmc.run, one simulate_with_audit, one
    cli.main); `aux` is library work a round does besides its operations,
    such as fitting or event detection.  Only these spans count as the
    program's time; the benchmark's own bookkeeping and the calibration
    kernel, which runs after an operation when one is due, do not.  An
    operation that raises returns None and is listed in `errors`; an aux
    call that raises returns the exception.  The checks fail on either.
    """

    def __init__(self, calibrator: Calibrator, tracer=None):
        self.spans: list[tuple[float, float, bool]] = []
        self.errors: list[str] = []
        self.calibrator = calibrator
        self.tracer = tracer

    def call(self, label: str, fn, *args, **kwargs):
        if self.tracer is not None:
            fn = self.tracer.root(label, fn)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the checks report it as a failure
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.spans.append((t0, time.perf_counter(), True))
            self.calibrator.due()

    def aux(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the checks report it as a failure
            return exc
        finally:
            self.spans.append((t0, time.perf_counter(), False))

    @property
    def attempted(self) -> int:
        return sum(1 for span in self.spans if span[2])

    def scaled(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Durations of spans[lo:hi] in reference seconds."""
        return [(e - s) * self.calibrator.scale(s, e)
                for s, e, _ in self.spans[lo:hi]]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def median(values) -> float:
    return float(statistics.median(values))
