#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload
(tracing off), seeds in the outer loop so that slow drift of the host
spreads evenly over the workloads, and prints, per metric, the median
and the interquartile distance as a share of the median -- the quantity
the benchmark's bounds are set against (each spread should stay under a
third of its bound; setup_s is exempt). Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads serve_ingest,check_bighist]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    workloads = args.workloads.split(",")
    values = {w: {name: [] for name in bounds} for w in workloads}
    for seed in seeds(args.seeds):
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            took = time.monotonic() - t0
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if out.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            got = values[workload]
            for name in bounds:
                got[name].append(result["metrics"][name]["value"])
            print(workload, seed, f"{took:.0f}s", {k: round(v[-1], 4) for k, v in got.items()}, flush=True)
    for workload in workloads:
        for name, vals in values[workload].items():
            if len(vals) < 4:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:18} {name:12} median {med:.4f}  spread {spread:.3f}  bound {bounds[name]}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
