"""Repeat perfbench/run.py over several seeds and summarise the spread.

    python3 perfbench/record.py [--workloads a,b] [--seeds 1-10] [--trace]
                                [--append perfbench/trajectory.json --label NAME]

Run from the repository root.  For every workload and seed it runs one
untraced benchmark run of BENCHMARK.json's run_seconds, then prints, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives them)
next to the metric's bound.  --trace adds one traced run per workload, on
the first seed.  --append adds the summary, with the environment, as one
point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--append", help="trajectory JSON file to append a point to")
    parser.add_argument("--label", help="name of the appended point")
    args = parser.parse_args(argv)
    if args.append and not args.label:
        parser.error("--append needs --label")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.label, "run_seconds": bench["run_seconds"],
             "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            res = _run(bench["command"], workload, seed, bench["run_seconds"], 0)
            point["env"] = res["env"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(m["value"], 5) for k, m in res["metrics"].items()},
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(statistics.median(vals))
            summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {workload} {name}: median {statistics.median(vals):.6g} "
                  f"spread {spread:.4f} bound {bounds[name]} {verdict}", flush=True)
        point["workloads"][workload] = {"end_to_end": summary}
        if args.trace:
            res = _run(bench["command"], workload, args.seeds[0], bench["run_seconds"], 1)
            point["workloads"][workload]["per_layer"] = {
                k: m["value"] for k, m in res["metrics"].items()}
    if args.append:
        points = []
        if os.path.exists(args.append):
            with open(args.append) as fh:
                points = json.load(fh)
        points.append(point)
        with open(args.append, "w") as fh:
            json.dump(points, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
