"""``python -m perfbench run|compare`` -- see perfbench/README.md."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from perfbench import SRC, add_src_to_path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Benchmark the DD-POLICE simulators end to end and per layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="measure workloads, print every metric, write BENCH_*.json"
    )
    run.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+", metavar="NAME",
        help="workloads to run (default: all four)",
    )
    run.add_argument("--seed", type=int, default=29, help="input seed (default 29)")
    amount = run.add_mutually_exclusive_group()
    amount.add_argument(
        "--reps", type=int, metavar="N",
        help="timed units per workload (default 5 unless --seconds is given)",
    )
    amount.add_argument(
        "--seconds", type=float, metavar="S",
        help="keep starting units of a workload until S host seconds went into it",
    )
    run.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="add a traced unit per round and report the per-layer metrics",
    )
    run.add_argument(
        "--tiny", action="store_true", help="self-test scale (a few hundred peers)"
    )
    run.add_argument(
        "--out", type=Path, metavar="DIR", help="where BENCH_*.json go (default perfbench/out)"
    )
    compare = sub.add_parser(
        "compare", help="compare two directories of BENCH_*.json, row by row"
    )
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    return parser


def _run(args: argparse.Namespace) -> int:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; have {list(WORKLOADS)}", file=sys.stderr)
        return 2
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = harness.DEFAULT_REPS
    trace = bool(args.trace)
    host = harness.host_facts(args.seed, reps=reps, seconds=args.seconds, trace=trace)
    units = harness.measure(
        names, args.seed, reps=reps, seconds=args.seconds, trace=trace, tiny=args.tiny
    )
    docs = [harness.summarize(n, units[n], args.seed, tiny=args.tiny) for n in names]
    harness.write_ledger(docs, args.out or harness.OUT_DIR, host)
    ok = True
    for doc in docs:
        print(harness.render(doc))
        for unit in doc["units"]:
            if "failed" in unit:
                print(f"  unit failed: {unit['failed']}", file=sys.stderr)
        ok = ok and doc["correct"] and doc["failed"] == 0 and doc["reps"] > 0
    if any(doc["reps"] == 0 for doc in docs):
        return 1  # nothing measured: no result line
    # Last line(s): the object the benchmark driver parses, one per workload.
    for doc in docs:
        print(harness.contract_line(doc, trace))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    add_src_to_path()
    if args.command == "run":
        return _run(args)
    from perfbench.compare import compare

    rows, regressed = compare(args.a, args.b)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
