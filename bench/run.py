"""One command for the H-BOLD stack's end-to-end benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
    python3 bench/run.py --all [--workload NAME] [--trace] [--out FILE]
    python3 bench/run.py --check [--workload NAME]     # < 20 s smoke run

Each workload runs in a fresh subprocess with ``PYTHONHASHSEED=0`` and
``PYTHONDONTWRITEBYTECODE=1``; temp dirs live under ``--tmp`` and are removed
on exit.  With ``--workload`` the last line of standard output is the
driver's JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
with ``--all`` / ``--check`` it is a one-line summary ending in
``"claim": null``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

# bench/ is sys.path[0] when this runs as a script; the workload modules
# import the program lazily, after the worker has put src/ on the path
import catalog
import harness
from wl_explore_sessions import ExploreSessions
from wl_index_fleet import IndexFleet
from wl_serving import ServeCached, ServeUncached
from wl_store_cycle import StoreCycle

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (IndexFleet, ExploreSessions, ServeUncached, ServeCached, StoreCycle)
}
WORKLOAD_NAMES = [name for name, _ in catalog.WORKLOADS]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run all five workloads")
    parser.add_argument("--check", action="store_true",
                        help="smoke mode: all five, shrunk inputs, 1 round, traced too")
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: the traced run (per-layer metrics)")
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--tmp", default=os.path.join(OUT_DIR, "tmp"),
                        help="root for temp dirs; removed on exit")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.check):
        parser.error("one of --workload, --all, --check is required")
    return args


# -- the worker: one workload, in this process ------------------------------------


def worker(args) -> int:
    """Run one workload here; write the result document to ``args.worker``."""
    sys.path.insert(0, SRC)
    cls = WORKLOAD_CLASSES[args.workload]

    def make_workload():
        return cls(args.seed, args.check, args.tmp)

    if args.trace:
        result = harness.run_traced(make_workload, OUT_DIR)
    else:
        result = harness.run_untraced(make_workload, args.seconds)
    result["seed"] = args.seed
    print(harness.format_result(result), flush=True)
    with open(args.worker, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if result["correct"] and not result["failed"] else 1


# -- the parent: fresh subprocess per workload -------------------------------------


def _spawn(args, workload: str, trace: int, tmp: str):
    result_path = os.path.join(tmp, f"{workload}.{trace}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--worker", result_path,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--tmp", tmp,
    ]
    if args.check:
        command.append("--check")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run(command, env=env).returncode
    if not os.path.exists(result_path):
        raise SystemExit(f"{workload}: worker exited {code} without a result")
    with open(result_path, encoding="utf-8") as handle:
        return code, json.load(handle)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.worker:
        return worker(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    tmp = os.path.join(args.tmp, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        print(f"# gc policy: {harness.GC_POLICY}")
        print(f"# load shape: {harness.LOAD_SHAPE}")
        print("# flush policy: the code's own (fsync on snapshot, manifest, WAL close)")
        print(f"# seed {args.seed}, PYTHONHASHSEED=0, fresh subprocess per workload",
              flush=True)
        if args.workload and not (args.all or args.check):
            code, result = _spawn(args, args.workload, args.trace, tmp)
            kind = "traced" if args.trace else "untraced"
            _write(args.out, _document(args, {args.workload: {kind: result}}))
            print(json.dumps(harness.contract_line(result)))
            return code
        codes, entries = [], {}
        for name in [args.workload] if args.workload else WORKLOAD_NAMES:
            code, result = _spawn(args, name, 0, tmp)
            codes.append(code)
            entries[name] = {"untraced": result}
            if args.trace or args.check:
                code, entries[name]["traced"] = _spawn(args, name, 1, tmp)
                codes.append(code)
        _write(args.out or os.path.join(OUT_DIR, "latest.json"),
               _document(args, entries))
        runs = [run for entry in entries.values() for run in entry.values()]
        print(json.dumps({
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "claim": None,
        }))
        return max(codes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _document(args, entries):
    """The JSON document: every worker result, whole, by workload and run."""
    return {
        "schema": "hbold-bench/1",
        "seed": args.seed,
        "seconds": 0.0 if args.check else args.seconds,
        "check": bool(args.check),
        "gc_policy": harness.GC_POLICY,
        "load_shape": harness.LOAD_SHAPE,
        "workloads": entries,
        "claim": None,
    }


def _write(path, document) -> None:
    if not path:
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
