"""Outside-in span tracer for the vlcudn package.

`install` replaces every public function of each vlcudn module, in every
vlcudn module namespace that holds a reference to it, with a wrapper that
records calls, total time and self time (total minus the time of nested
wrapped calls).  Rebinding every holder matters because callers import
functions by name: `harness` binds `simulate_paths`, `quantize_state`, ...
and `mobility` binds `advance_positions`.  Stats are keyed
"<defining module>.<public name>", so time lands in the module where the
function is defined, whatever module calls it.

Only aggregates are kept: per key a [calls, total_s, self_s] triple plus a
few work counters.  ProcessPoolExecutor workers are forked from the traced
process and inherit the wrappers; each worker resets its copy at fork and
rewrites `trace-<pid>.json` after every top-level call, so the parent can
merge worker stats after the pool has shut down.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _ue_slots(args, result):
    # simulate_paths returns positions of shape (n_slots, n_ues, 2)
    return {"mobility.ue_slots": result.shape[0] * result.shape[1]}


def _action_cells(args, result):
    # powers is (actions, users); the kernel reads it and writes one
    # utility per action, so 8 * (A*U + A) bytes is the computed minimum
    # traffic, not a measurement of what numpy temporaries move.
    a, u = args[0].shape
    return {
        "kernels.action_utilities.cells": a * u,
        "kernels.action_utilities.bytes_computed": 8 * (a * u + a),
    }


def _gain_links(args, result):
    return {"kernels.lambertian_gains.links": len(args[0])}


# Work counters derived from a call's arguments or result, outside the span.
COUNTERS = {
    "mobility.simulate_paths": _ue_slots,
    "kernels.action_utilities": _action_cells,
    "kernels.lambertian_gains": _gain_links,
}


class Tracer:
    """Span aggregates of one process, dumped as JSON into out_dir."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        # stack[-1] accumulates the time of finished children of the open span
        self.stack = [0.0]
        self.worker = False
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self) -> None:
        for triple in self.stats.values():
            triple[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.stack[:] = [0.0]
        self.worker = True

    def wrap(self, key: str, fn):
        triple = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        counter = COUNTERS.get(key)
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                triple[0] += 1
                triple[1] += dt
                triple[2] += dt - child
                if len(stack) == 1 and self.worker:
                    self.dump()
            if counter is not None:
                for name, value in counter(args, result).items():
                    counts[name] += value
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> None:
        path = os.path.join(self.out_dir, "trace-%d.json" % os.getpid())
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "counts": self.counts}, fh)


def install(tracer: Tracer, package: str = "vlcudn") -> None:
    """Wrap the package's public functions everywhere they are bound."""
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    wrappers = {}  # id(original) -> (original, wrapper)
    for mod in modules:
        if mod.__name__ == package:
            continue
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or isinstance(fn, type)
                or not callable(fn)
                or getattr(fn, "__module__", None) != mod.__name__
                or id(fn) in wrappers
            ):
                continue
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def merge(out_dirs) -> tuple[dict, dict]:
    """Sum the stats and counters of every process dumped into out_dirs."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    paths = [
        os.path.join(d, name) for d in out_dirs for name in sorted(os.listdir(d))
        if name.startswith("trace-") and name.endswith(".json")
    ]
    for path in paths:
        with open(path) as fh:
            part = json.load(fh)
        for key, (calls, total, self_s) in part["stats"].items():
            acc = stats[key]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, value in part["counts"].items():
            counts[key] += value
    return dict(stats), dict(counts)
