#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady its metrics are.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b] [--seed-base 1]

For every end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (Python's statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median, against the metric's bound. Each run uses another seed. With
--sets 2 the seeds are run twice and the second set's median is compared
with the first's, as a regression gate compares a change with its parent.
Use it to set the bounds and to re-check them on a new machine. Raw results
are written to .perfbench/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    results = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                out = run_once(workload, args.seed_base + i, args.seconds)
                runs.append(out)
                print(f"{workload} set {s + 1} seed {args.seed_base + i}: "
                      + " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}" for m in metrics)
                      + f" failed={out['failed']}/{out['attempted']}", flush=True)
            sets.append(runs)
        results[workload] = sets
        print(f"\n{workload}: {args.runs} runs x {args.sets} sets, {args.seconds} s each")
        print(f"  {'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}"
              f"{'vs set 1':>10}  verdict")
        for m in metrics:
            first = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = []
                if m["name"] != "setup_s":
                    verdict.append("steady" if spread < m["bound"] / 3 else
                                   "within bound" if spread <= m["bound"] else "TOO WIDE")
                shift = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    shift = f"{worse:+.3f}"
                    verdict.append("same" if worse <= m["bound"] else "WORSE")
                print(f"  {m['name']:<18}{s + 1:>4}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}"
                      f"{m['bound']:>8.2f}{shift:>10}  {', '.join(verdict)}")
        shares = {round(r["failed"] / r["attempted"], 12) for runs in sets for r in runs}
        print(f"  failed share per run: {sorted(shares)}\n")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main()
