#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and print, for every
metric, the median, the quartiles and the quartile spread as a share of the
median (statistics.quantiles(values, n=4)), plus the share of failed
operations in each run.

    python3 perfbench/steady.py --workload serve-shared --runs 10

Run it from the repository root. The spreads it prints are where the bounds
in BENCHMARK.json come from (see README.md).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]

    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        if not res["correct"]:
            print(f"seed {seed}: checks failed", file=sys.stderr)
            sys.exit(1)
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())),
            file=sys.stderr)

    report = {"workload": args.workload, "runs": args.runs,
              "failed_shares": sorted(set(shares)), "metrics": {}}
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(values):
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        report["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "values": xs}
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    print(f"failed shares: {report['failed_shares']}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
