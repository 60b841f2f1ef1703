#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each named workload,
from the repository root, and prints per metric the median and the
interquartile range as a share of the median, next to the metric's bound.
Exits non-zero when any run fails its output checks or any spread,
setup_s's included, exceeds its bound.

    python3 perfbench/spread.py --runs 10 sim_paper serve_light
    python3 perfbench/spread.py --seeds 1,1592598564,7 serve_saturated
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workloads (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seeds", help="comma-separated seeds (overrides --runs and --first-seed)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
                 else range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            if done.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: failed\n{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            series = values[name]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if spread > bound:
                ok = False
            print(f"{workload:16} {name:12} median {median:14.4f} spread {spread:7.4f} "
                  f"bound {bound:5.2f} {flag}  [{' '.join(f'{v:.4g}' for v in series)}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
