"""Repeatability of the benchmark: run it N times, compare the runs.

    python3 bench/repeat.py [N] [--vary-seed] [--trace]

Runs ``run.py --all`` N times (default 5) and prints, per end-to-end metric
and workload, the median, the quartiles, the interquartile spread and the
max-min range as shares of the median, beside the metric's bound.  Exits 1
when an interquartile spread exceeds its bound (the driver's acceptance
test, applied from four runs up), when any run fails, or -- with ``--trace``
and one seed -- when a *count* metric differs between two runs.

``--vary-seed`` gives run *i* the seed 2020 + *i*: the acceptance procedure
(ten runs, ten seeds, spread = (q3 - q1) / median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import catalog
import harness

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(seed: int, trace: bool, out_path: str) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--all",
               "--seed", str(seed), "--out", out_path]
    if trace:
        command.append("--trace")
    completed = subprocess.run(command, stdout=subprocess.DEVNULL)
    if completed.returncode:
        raise SystemExit(f"run.py exited {completed.returncode} (seed {seed})")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values):
    median = statistics.median(values)
    q1, q3 = harness.quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "range_share": (max(values) - min(values)) / median if median else 0.0,
    }


def report(documents, compare_counts: bool) -> list:
    """Print the table of *documents* (one per run); return the failures."""
    failures = []
    print(f"\n{'workload':<17} {'metric':<24} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr':>6} {'range':>6} {'bound':>6}")
    for workload in documents[0]["workloads"]:
        runs = [d["workloads"][workload]["untraced"] for d in documents]
        rows = [(m.name, m.bound, [run["metrics"][m.name]["value"] for run in runs])
                for m in catalog.END_TO_END if m.name in runs[0]["metrics"]]
        rows.append(("bench.calib_ms", None,
                     [run["calibration"]["median_ms"] for run in runs]))
        for name, bound, values in rows:
            stats = summarize(values)
            # like the driver, do not gate the spread of setup_s; quartiles of
            # fewer than four runs are extrapolations, so those only print
            over = (bound is not None and stats["iqr_share"] > bound
                    and name != "setup_s" and len(documents) >= 4)
            print(f"{workload:<17} {name:<24} {stats['median']:>11.5g} "
                  f"{stats['q1']:>11.5g} {stats['q3']:>11.5g} "
                  f"{stats['iqr_share']:>6.1%} {stats['range_share']:>6.1%} "
                  + ("" if bound is None else f"{bound:>6.0%}")
                  + ("  OVER" if over else ""))
            if over:
                failures.append(f"{workload}.{name}: spread "
                                f"{stats['iqr_share']:.1%} > bound {bound:.0%}")
        if compare_counts:
            failures.extend(_count_mismatches(workload, documents))
    return failures


def _count_mismatches(workload: str, documents) -> list:
    out = []
    for metric in catalog.PER_LAYER:
        if metric.kind != "count":
            continue
        values = {d["workloads"][workload]["traced"]["metrics"][metric.name]["value"]
                  for d in documents}
        if len(values) > 1:
            out.append(f"{workload}.{metric.name}: count differs between runs: "
                       f"{sorted(values)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", nargs="?", type=int, default=5)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="also make the traced runs and compare count metrics")
    args = parser.parse_args(argv)

    documents = []
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="repeat-") as scratch:
        for i in range(args.n):
            seed = catalog.DEFAULT_SEED + (i if args.vary_seed else 0)
            print(f"# run {i + 1}/{args.n} (seed {seed})", flush=True)
            documents.append(
                run_once(seed, args.trace, os.path.join(scratch, "doc.json")))

    failures = report(documents, args.trace and not args.vary_seed)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
