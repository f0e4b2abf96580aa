"""Timing comparison of the jitted and plain-numpy kernel backends.

Runs itself twice as a subprocess, once per backend (the backend is
fixed at import time by the VLCUDN_DISABLE_NUMBA environment variable),
and prints microseconds per call side by side.  Shapes mirror real use:
the gain kernel sees whole-episode batches, the rate/utility/move
kernels are called once per slot on small arrays.

Usage: python3 benchmarks/bench_kernels.py
"""

import os
import subprocess
import sys
import timeit

import numpy as np

CASES = [
    ("lambertian_gains episode batch (n=9000)", "gains", 9000),
    ("lambertian_gains large batch (n=100000)", "gains", 100000),
    ("action_utilities one-row slice (1 x 3)", "utilities", 1),
    ("action_utilities per slot (216 x 3)", "utilities", 216),
    ("advance_positions per slot (n=27)", "advance", 27),
    ("run_episode reference config, 300 slots", "episode", 0),
]


def _bench_child():
    from vlcudn import kernels

    rng = np.random.default_rng(7)
    results = {}

    for label, kind, size in CASES:
        if kind == "gains":
            dx = rng.uniform(-5, 5, size)
            dy = rng.uniform(-5, 5, size)
            args = (dx, dy, 2.0, 1.0, 3.18e-5, 0.342)
            fn = kernels.lambertian_gains
        elif kind == "utilities":
            # size 1 is the one-row slice every policy but greedy scores
            powers = rng.uniform(0, 4e-3, (size, 3))
            serving = rng.uniform(3e-6, 8e-6, 3)
            interference = rng.uniform(0, 1e-11, 3)
            args = (powers, serving, interference, 3.33e6, 1e-21, 0.54,
                    False, 4.6e-6, 4.0, 1e6)
            fn = kernels.action_utilities
        elif kind == "advance":
            pos = rng.uniform(0, 2, (size, 2))
            wp = rng.uniform(0, 2, (size, 2))
            step = rng.uniform(0, 0.15, size)
            args = (pos, wp, step)
            fn = kernels.advance_positions
        else:
            import dataclasses

            from vlcudn import load_experiment, run_episode

            config = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.ini")
            cfg = load_experiment(config)
            cfg = dataclasses.replace(
                cfg, agent=dataclasses.replace(cfg.agent, max_slots=300, warmup_slots=20)
            )
            run_episode(cfg, seed=1)  # compile and warm caches
            t = timeit.timeit(lambda: run_episode(cfg, seed=2), number=3) / 3
            results[label] = t * 1e6
            continue

        fn(*args)  # trigger compilation outside the timed region
        number = max(20, min(20000, int(2e5 / max(size, 1))))
        t = timeit.timeit(lambda: fn(*args), number=number) / number
        results[label] = t * 1e6

    print(f"BACKEND {kernels.ACTIVE_BACKEND}")
    for label, us in results.items():
        print(f"RESULT\t{label}\t{us:.3f}")


def main():
    timings = {}
    for disable in ("0", "1"):
        env = dict(os.environ, VLCUDN_DISABLE_NUMBA=disable)
        proc = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        backend = None
        for line in proc.stdout.splitlines():
            if line.startswith("BACKEND "):
                backend = line.split(None, 1)[1]
            elif line.startswith("RESULT\t"):
                _, label, us = line.split("\t")
                timings.setdefault(label, {})[backend] = float(us)

    backends = ["numba", "numpy"]
    width = max(len(label) for label, _, _ in CASES)
    print(f"{'kernel':<{width}}  {'numba us':>10}  {'numpy us':>10}  {'speedup':>8}")
    for label, _, _ in CASES:
        row = timings[label]
        present = [row.get(b) for b in backends]
        if present[0] is None:
            print(f"{label:<{width}}  {'n/a':>10}  {present[1]:>10.2f}  {'n/a':>8}")
            continue
        speedup = present[1] / present[0]
        print(f"{label:<{width}}  {present[0]:>10.2f}  {present[1]:>10.2f}  {speedup:>7.2f}x")


if __name__ == "__main__":
    if "--child" in sys.argv:
        _bench_child()
    else:
        main()
