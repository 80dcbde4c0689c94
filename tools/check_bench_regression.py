#!/usr/bin/env python3
"""Gate a benchmark run against a committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--experiment NAME]
       [--tolerance 0.30]

Both files hold [{"experiment", "metric", "value"}, ...] records as written
by `bench/main.exe --json`.  Only higher-is-better metrics are gated:
names ending in `_qps` or `_speedup`.  A metric fails when

    current < (1 - tolerance) * baseline

Absolute `_qps` numbers depend on how fast the runner's disk happens to be
that minute (a shared-disk fsync costs anywhere from 100 to 500 us), so
they get a wider tolerance: `--qps-tolerance` (default 0.60).  `_speedup`
ratios are self-normalizing — batched and per-request variants hit the
same disk in the same run — so they carry the tight `--tolerance` and are
the gate's real teeth.  The committed baseline is already a conservative
floor (per-metric minimum over several runs).  A gated baseline metric
missing from the current run fails the gate (`MISSING`): a renamed or
dropped metric must not silently leave the gate.  A gated metric present
only in the current run is reported as `NEW` and passes.
"""

import argparse
import json
import sys


def load(path, experiment):
    with open(path) as f:
        records = json.load(f)
    return {
        r["metric"]: r["value"]
        for r in records
        if experiment is None or r["experiment"] == experiment
    }


def gated(metric):
    return metric.endswith("_qps") or metric.endswith("_speedup")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--experiment", default=None)
    ap.add_argument("--tolerance", type=float, default=0.30)
    ap.add_argument("--qps-tolerance", type=float, default=0.60)
    args = ap.parse_args()

    base = load(args.baseline, args.experiment)
    cur = load(args.current, args.experiment)

    failures = []
    for metric in sorted(base):
        if not gated(metric):
            continue
        if metric not in cur:
            print(f"  {'MISSING':>10} {metric}: absent from current run")
            failures.append(metric)
            continue
        b, c = base[metric], cur[metric]
        tol = args.tolerance if metric.endswith("_speedup") else args.qps_tolerance
        floor = (1.0 - tol) * b
        status = "ok" if c >= floor else "REGRESSION"
        print(f"  {status:>10} {metric}: {c:.4g} vs baseline {b:.4g} (floor {floor:.4g})")
        if c < floor:
            failures.append(metric)
    for metric in sorted(set(cur) - set(base)):
        if gated(metric):
            print(f"  NEW {metric}: {cur[metric]:.4g} (no baseline)")

    if failures:
        print(f"FAIL: {len(failures)} metric(s) regressed beyond tolerance "
              f"or missing: {', '.join(failures)}")
        return 1
    print("PASS: no gated metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
