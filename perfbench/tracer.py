"""Span tracing of the program's public functions, from outside it.

`Tracer.install` replaces every public function of the layer modules
with a wrapper that records one span (function, start, end, parent
span), both on its own module and wherever another sympcool module
imported it by name.  Spans live in flat arrays in memory and are
written out once, at the end of the run; `uninstall` puts the original
functions back.  Nothing is patched unless the benchmark runs with
--trace 1, so the end-to-end figures never carry the wrappers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("physics", "budget", "contact", "trajectory", "dsmc", "cli",
          "constants")


def _particle_steps(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    n = sum(e.n for e in cfg.ensembles)
    return {"particle_steps": n * int(round(cfg.t_end / cfg.dt)),
            "collisions": float(sum((result.channel_collisions
                                     or {}).values())),
            "lone_fraction": float(result.lone_particle_fraction)}


def _points(args, kwargs, result):
    return {"points": len(result[0])}


# work counts attached to the spans of a few functions
NOTES = {"dsmc.run": _particle_steps,
         "trajectory.simulate_with_audit": _points}


class Tracer:
    """Spans of one traced run: ids into `names`, parent span index (-1
    for none), start and end in perf_counter seconds."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, dict] = {}
        self.stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _wrap(self, fn, name: str):
        sid = self._id(name)
        note = NOTES.get(name)
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result
        return span

    def root(self, label: str, fn):
        """A wrapper that opens one benchmark operation's span, so the
        library spans of one operation share a root."""
        return self._wrap(fn, f"op.{label}")

    def install(self, package: str = "sympcool") -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # ------------------------------------------------------------- analysis

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return name, parent, dur

    def save(self, path: Path) -> None:
        name, parent, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures per traced round; a ratio whose layer did not
        run reads 0.

        A span's self time is its duration minus that of its children;
        spans never overlap their siblings, the run being single-threaded.
        """
        name, parent, dur = self.arrays()
        fn = np.array(self.names)[name]
        layer = np.array([s.split(".")[0] for s in self.names])[name]
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        parent_fn = np.where(has_parent, fn[up], "")
        parent_layer = np.where(has_parent, layer[up], "")
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(name))

        def per_round(mask, values=dur) -> float:
            return float(np.sum(values[mask])) / rounds

        def noted(fn_name, key) -> list:
            return [v[key] for i, v in self.notes.items() if fn[i] == fn_name]

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        out = {f"{lay}.self_s": per_round(layer == lay, own)
               for lay in ("physics", "budget", "contact", "cli")}
        out["contact.calls"] = float(np.count_nonzero(layer == "contact")) \
            / rounds

        run = fn == "dsmc.run"
        run_s = float(np.sum(dur[run]))
        lone = noted("dsmc.run", "lone_fraction")
        out["dsmc.run_s"] = run_s / rounds
        out["dsmc.ns_per_particle_step"] = ratio(
            1e9 * run_s, sum(noted("dsmc.run", "particle_steps")))
        out["dsmc.collisions_per_s"] = ratio(
            sum(noted("dsmc.run", "collisions")), run_s)
        out["dsmc.lone_fraction"] = float(np.mean(lone)) if lone else 0.0
        out["dsmc.fit_s"] = per_round(fn == "dsmc.fit_relaxation")

        sim = fn == "trajectory.simulate_with_audit"
        out["trajectory.self_s"] = per_round(sim, own)
        out["trajectory.rhs_evals"] = float(np.count_nonzero(
            (fn == "contact.energy_exchange_rate")
            & (parent_layer == "trajectory"))) / rounds
        out["trajectory.us_per_point"] = ratio(
            1e6 * float(np.sum(dur[sim])),
            sum(noted("trajectory.simulate_with_audit", "points")))
        events = ("trajectory.detect_events", "trajectory.region_from_events")
        out["trajectory.events_s"] = per_round(
            np.isin(fn, events) & ~np.isin(parent_fn, events))

        classify = fn == "budget.classify"
        out["budget.classify_ms_per_cell"] = ratio(
            1e3 * float(np.sum(dur[classify])), np.count_nonzero(classify))
        return out
