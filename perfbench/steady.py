#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload repeatedly, each time with another seed, and prints
for every end-to-end metric the median, the quartiles, the spread
(quartile distance as a share of the median) and the max/min ratio,
next to the metric's bound from BENCHMARK.json. The bounds in
BENCHMARK.json are set from this output.

    python3 perfbench/steady.py                      # every workload, 10 runs each
    python3 perfbench/steady.py --runs 5 --workload cluster-replay
    python3 perfbench/steady.py --trace              # traced runs: per-layer metrics

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true", help="repeat --first-seed instead of varying it")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    defs = bench["per_layer" if args.trace else "end_to_end"]
    bad = False
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            r = run_once(w, seed, args.seconds, args.trace)
            results.append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items()))
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {vals}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max/min':>8} {'bound':>6}")
        for d in defs:
            vals = [r["metrics"][d["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else float("inf")
            ratio = max(vals) / min(vals) if min(vals) else float("inf")
            bound = d.get("bound")
            flag = ""
            if bound is not None and d["name"] != "setup_s" and spread > bound / 3:
                flag, bad = "  <-- above bound/3", True
            print(f"  {d['name']:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {ratio:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
