#!/usr/bin/env python3
"""Runs workloads repeatedly and prints each metric's median and quartiles.

    python3 perfbench/spread.py --runs 10                # end-to-end spreads
    python3 perfbench/spread.py --runs 3 --figures       # README figures

Each run uses another seed (1..runs, or --seed-base onwards). For every
end-to-end metric the table shows the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) /
median and the metric's bound from BENCHMARK.json; a spread at or above a
third of its bound is marked. --figures also runs the traced pass (per-layer
medians) and NMF Incremental on the same streams, and prints the
GraphBLAS/NMF update ratio.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace=0, nmf=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if nmf:
        cmd.append("--nmf")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)} (exit {p.returncode})")
    return json.loads(lines[-1])


def table(results, metrics):
    print(f"  {'metric':28} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for m in metrics:
        name = m["name"]
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        mark = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"  {name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound if bound is not None else '':>6}{mark}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--figures", action="store_true")
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's result line")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(args.seed_base, args.seed_base + args.runs)
    for wl in workloads:
        results = [run(wl, s, spec["run_seconds"]) for s in seeds]
        if args.verbose:
            for s, r in zip(seeds, results):
                print(f"  seed {s}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{wl}: {len(results)} runs, seeds {seeds.start}.."
              f"{seeds.stop - 1}, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        table(results, spec["end_to_end"])
        if not args.figures:
            continue
        traced = [run(wl, s, spec["run_seconds"], trace=1) for s in seeds]
        print(f"{wl}: per-layer medians over {len(traced)} traced runs")
        table(traced, spec["per_layer"])
        nmf = [run(wl, s, spec["run_seconds"], nmf=True) for s in seeds]
        for q in ("q1", "q2"):
            grb = statistics.median(
                r["metrics"][f"{q}_update_p50_ms"]["value"] for r in results)
            ref = statistics.median(
                r["metrics"][f"nmf.{q}_update_p50_ms"]["value"] for r in nmf)
            print(f"  {q.upper()} update p50: GraphBLAS Incremental "
                  f"{grb:.4g} ms, NMF Incremental {ref:.4g} ms, "
                  f"ratio {grb / ref:.1f}x")


if __name__ == "__main__":
    main()
