#!/usr/bin/env python3
"""Steadiness check: runs two sets of runs of the same code and reports
whether they agree within the bounds BENCHMARK.json fixes.

Run from the root of the repository:

    python3 perfbench/steady.py                     # 10 runs per set, every workload
    python3 perfbench/steady.py --runs 5 --workloads sweep

Each set runs every workload once per seed (set 1: seeds 1..N, set 2:
seeds N+1..2N). For every end-to-end metric it prints each set's median
and quartiles and the spread (inter-quartile range over median). The
sets agree when each spread but setup_s's is within the metric's bound,
the second median is not worse than the first by more than the bound,
and the share of failed operations is identical. With --trace it also
makes one traced run per workload and prints the tracing overhead: the
traced run's end-to-end figures against the untraced medians.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    traced = None
    for line in p.stderr.splitlines():
        if line.startswith("# traced-e2e "):
            traced = json.loads(line[len("# traced-e2e "):])
    return result, traced


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", action="store_true", help="also measure tracing overhead")
    args = ap.parse_args()

    with open(BENCH) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for w in names:
        sets = []
        for s in range(2):
            runs = [run_once(bench["command"], w, s * args.runs + i + 1, bench["run_seconds"], False)[0]
                    for i in range(args.runs)]
            sets.append(runs)
        print(f"== {w}")
        for s, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"  set {s + 1}: correct={correct} failed shares={sorted(shares)}")
            ok &= correct
        share1 = {r["failed"] / r["attempted"] for r in sets[0]}
        share2 = {r["failed"] / r["attempted"] for r in sets[1]}
        if len(share1 | share2) != 1:
            print("  failed share differs between runs")
            ok = False
        medians = {}
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            (_, m1, _, s1), (_, m2, _, s2) = stats
            medians[name] = (m1 + m2) / 2
            worse = (m2 - m1) / m1 if lower else (m1 - m2) / m1
            agree = worse <= bound and (name == "setup_s" or (s1 <= bound and s2 <= bound))
            ok &= agree
            cells = "  ".join(f"set{k + 1} q1={a:.4g} med={b:.4g} q3={c:.4g} spread={d:.3f}"
                              for k, (a, b, c, d) in enumerate(stats))
            print(f"  {name:12s} {cells}  drift={worse:+.3f} bound={bound} {'ok' if agree else 'DISAGREE'}")
            pooled = [r["metrics"][name]["value"] for runs in sets for r in runs]
            print(f"  {'':12s} all {len(pooled)} runs: spread={spread(pooled)[3]:.3f}; values "
                  + " ".join(f"{v:.4g}" for v in pooled))
        if args.trace:
            _, traced = run_once(bench["command"], w, 2 * args.runs + 1, bench["run_seconds"], True)
            for name, v in sorted((traced or {}).items()):
                print(f"  tracing overhead {name}: traced {v:.4g} vs untraced median {medians[name]:.4g}"
                      f" ({(v - medians[name]) / medians[name]:+.1%})")
    print("AGREE" if ok else "DISAGREE")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
