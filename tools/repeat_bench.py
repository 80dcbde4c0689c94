#!/usr/bin/env python3
"""Repeat one gated bench experiment and summarise its gated metrics.

Usage: repeat_bench.py EXPERIMENT [-n 5] [--seed 1]
       [--exe _build/default/bench/main.exe]

Runs `EXE EXPERIMENT --fast --seed SEED --json FILE` N times in a row and
prints, for every metric that tools/check_bench_regression.py gates
(names ending in `_speedup` or `_qps`), each run's value, the minimum and
the median.  Compare the minimum with the fail line the checker applies
to BENCH.json's floor, (1 - tolerance) x floor: a single run of a noisy
ratio (CONN's p99 ratio spans 0.4-2x between runs) says little.

Build first (`dune build`); point --exe at another checkout's build to
measure it the same way.  CONN wants a high fd limit (`ulimit -n 20000`).
Exits non-zero if any run fails.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check_bench_regression import gated, load  # noqa: E402


def run_once(exe, experiment, seed, path):
    cmd = [exe, experiment, "--fast", "--seed", str(seed), "--json", path]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s exited %d" % (" ".join(cmd), proc.returncode))
    return {m: v for m, v in load(path, experiment).items() if gated(m)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("experiment")
    ap.add_argument("-n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--exe", default=os.path.join("_build", "default", "bench", "main.exe"))
    args = ap.parse_args()

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.n):
            runs.append(run_once(args.exe, args.experiment, args.seed,
                                 os.path.join(tmp, "run%d.json" % i)))
            print("run %d/%d done" % (i + 1, args.n), file=sys.stderr)

    for metric in sorted(set().union(*runs)):
        values = [r[metric] for r in runs if metric in r]
        print("%s: runs %s  min %.4g  median %.4g" % (
            metric, " ".join("%.4g" % v for v in values), min(values),
            statistics.median(values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
