#!/usr/bin/env python3
"""Alternating A/B runs of perfbench between two source checkouts.

    python3 tools/perfbench_ab.py PARENT_DIR CHANGE_DIR --workload pairs \
        --seeds 101-110 [--seconds 20] [--json ab.json]

For each seed it runs `python3 perfbench/run.py --workload W --seed S
--seconds T` once in each checkout (each builds its own server), and
alternates which side goes first: even positions in the seed range start
with the parent, odd ones with the change.  perfbench is used as it is.

It prints, per end-to-end metric, both sides' medians and quartiles, how
many of the pairs the change measured lower, and the ratio of the medians
(change / parent).  Any run that is not `"correct": true` with 0 failed
operations is reported and makes the exit status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench failed in %s (seed %d):\n%s" % (checkout, seed, proc.stderr))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,3,5")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    bad = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            r = run(sides[side], args.workload, seed, args.seconds)
            r["seed"] = seed
            results[side].append(r)
            if not r["correct"] or r["failed"]:
                bad.append("%s seed %d: correct=%s failed=%d" % (side, seed, r["correct"], r["failed"]))
            print("%s seed %d: %s" % (side, seed, json.dumps(r["metrics"])), file=sys.stderr)

    n = len(results["parent"])
    print("workload %s, %d pairs, %g s each" % (args.workload, n, args.seconds))
    print("%-16s %12s %23s %12s %23s %10s %8s" % (
        "metric", "parent med", "parent q1-q3", "change med", "change q1-q3", "lower k/n", "ratio"))
    for name in results["parent"][0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        lower = sum(1 for a, b in zip(p, c) if b < a)
        print("%-16s %12.4g %11.4g-%-11.4g %12.4g %11.4g-%-11.4g %6d/%-3d %8.3f" % (
            name, pm, *quartiles(p), cm, *quartiles(c), lower, n, cm / pm if pm else float("nan")))
    for b in bad:
        print("NOT CORRECT: " + b)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, **results}, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
