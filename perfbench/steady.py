#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, each with its own seed,
and prints each end-to-end metric's median, quartiles and spread against
its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload text-cold --runs 10

The spread is (q3 - q1) / median with Python's statistics.quantiles(n=4).
A metric is steady when its spread stays under a third of its bound;
setup_s is timed once per run from cold and is judged by its median only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, shares = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("run with seed %d failed" % seed)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("run with seed %d reported incorrect output" % seed)
        shares.append(result["failed"] / result["attempted"])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(line)), flush=True)

    print("\n%s, %d runs of %gs, failed share %s" %
          (args.workload, args.runs, seconds,
           "0" if not any(shares) else sorted(set(shares))))
    print("%-16s %14s %14s %14s %8s %6s %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "median only"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print("%-16s %14.6g %14.6g %14.6g %8.4f %6s %s" %
              (name, med, q1, q3, spread, "" if bound is None else bound, verdict))


if __name__ == "__main__":
    main()
