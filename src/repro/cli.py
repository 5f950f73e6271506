"""Command-line interface: run the registered experiment specs.

Installed as ``repro``. Every table of the paper's evaluation is a
registered spec executed by :func:`repro.experiments.library.run_spec`,
with dotted-path config overrides (see EXPERIMENTS.md)::

    repro run --list
    repro run fig9 fig10 fig11                  # shared sweep, run once
    repro run fig9 --backend des --scale smoke
    repro run fig13 --set police.cut_threshold=7 --set scale.n_peers=500
    repro run fault-sweep --set trials=1 --out /tmp/tables
    repro run fig12 --scale smoke --trace /tmp/run.jsonl --profile
    repro trace summarize /tmp/run.jsonl
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.exec import resolve_workers
from repro.experiments.library import run_spec
from repro.experiments.reporting import render_timelines
from repro.experiments.scenarios import SCALES
from repro.experiments.spec import (
    list_backends,
    list_specs,
    override_paths,
    parse_assignments,
)
from repro.obs.manifest import atomic_write_text, build_manifest, write_manifest
from repro.obs.trace import summarize_trace


def _render_run(run) -> str:
    """Tables of one executed spec, plus sparklines for the timelines."""
    parts = [run.tables[t] for t in run.tables]
    if run.spec.scenario == "damage-timelines":
        parts.append(
            render_timelines(
                [t.label for t in run.data],
                [t.damage_pct for t in run.data],
                title="damage over time (0..100%)",
                hi=100.0,
            )
        )
    return "\n\n".join(parts)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the DD-POLICE paper's evaluation artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run registered experiment specs with config overrides"
    )
    run.set_defaults(handler=_run_command)
    run.add_argument("specs", nargs="*", help="registered spec names (see --list)")
    run.add_argument(
        "--list",
        action="store_true",
        dest="list_specs",
        help="list every registered spec and exit",
    )
    run.add_argument(
        "--paths",
        action="store_true",
        help="list every valid --set override path and exit",
    )
    run.add_argument(
        "--backend",
        choices=[b.name for b in list_backends()],
        default=None,
        help="execution engine override (default: the spec's backend)",
    )
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="re-target the spec at a named scale before overrides",
    )
    run.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="dotted-path config override, e.g. police.cut_threshold=7 "
        "or scale.n_peers=500 (repeatable; see --paths)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the parallel executor (default: "
        "$REPRO_WORKERS or 1 = serial; 0 = one per CPU); results are "
        "bit-identical for any value",
    )
    run.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each table to DIR/<table>.txt with a "
        ".manifest.json sidecar embedding the spec and its SHA-256",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL trace of every simulation to PATH (overwritten; "
        "a .manifest.json sidecar is written next to it; forces serial "
        "execution so there is a single trace writer)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run each spec under cProfile and print the hottest "
        "functions after its tables",
    )

    trace = commands.add_parser(
        "trace", help="inspect JSONL trace files written with --trace"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize", help="validate a trace and print per-kind record counts"
    )
    summarize.set_defaults(handler=_trace_summarize)
    summarize.add_argument("file", help="JSONL trace file")
    return parser


def _trace_summarize(args: argparse.Namespace) -> int:
    """``repro trace summarize <file>``."""
    try:
        summary = summarize_trace(args.file)
    except OSError as exc:
        print(f"trace summarize: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"trace summarize: invalid trace: {exc}", file=sys.stderr)
        return 2
    print(f"records: {summary['records']}")
    if summary["records"]:
        print(f"t range: {summary['t_min']:g} .. {summary['t_max']:g} s")
    for kind, count in summary["kinds"].items():
        print(f"  {kind}: {count}")
    return 0


def _run_command(args: argparse.Namespace) -> int:
    """``repro run <spec> [--set dotted.path=value ...]``."""
    if args.list_specs:
        specs = list_specs()
        name_w = max(len(spec.name) for spec in specs)
        scenario_w = max(len(spec.scenario) for spec in specs)
        for spec in specs:
            print(
                f"{spec.name:<{name_w}} scenario={spec.scenario:<{scenario_w}} "
                f"backend={spec.backend:<5} {spec.title}"
            )
        return 0
    if args.paths:
        for path in override_paths():
            print(path)
        return 0
    if not args.specs:
        print("run: no specs given (try --list)", file=sys.stderr)
        return 2

    try:
        overrides = parse_assignments(args.assignments)
        workers = resolve_workers(args.workers)
    except ConfigError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2

    trace_path: Optional[str] = None
    if args.trace is not None:
        if workers != 1:
            print(
                "--trace forces serial execution (single trace writer)",
                file=sys.stderr,
            )
            workers = 1
        # Fresh trace per invocation, created even when no spec simulates
        # anything: every run appends to it.
        trace_path = str(args.trace)
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
        Path(trace_path).write_text("", encoding="utf-8")

    out_dir = Path(args.out) if args.out is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    for name in args.specs:
        profiler = cProfile.Profile() if args.profile else None
        spec_started = time.perf_counter()
        try:
            with profiler if profiler is not None else nullcontext():
                run = run_spec(
                    name,
                    scale=args.scale,
                    backend=args.backend,
                    overrides=overrides,
                    workers=workers,
                    trace_path=trace_path,
                )
        except ConfigError as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
        spec_wall_s = time.perf_counter() - spec_started
        print(_render_run(run))
        print()
        print(
            f"# spec {run.spec.name} sha256={run.sha256[:12]} "
            f"cases={run.cases} wall={run.duration_s:.2f}s"
        )
        if profiler is not None:
            top = io.StringIO()
            pstats.Stats(profiler, stream=top).sort_stats("cumulative").print_stats(15)
            print(f"# profile cli.{name}: {spec_wall_s:.2f}s wall")
            print(top.getvalue())
        if out_dir is not None:
            for table, text in run.tables.items():
                artifact = out_dir / f"{table}.txt"
                atomic_write_text(artifact, text + "\n")
                sidecar = write_manifest(artifact, run.manifest)
                print(f"# wrote {artifact} (manifest: {sidecar})")

    if args.trace is not None:
        manifest = build_manifest(
            kind="cli-trace",
            config={
                "specs": list(args.specs),
                "scale": args.scale,
                "backend": args.backend,
                "overrides": overrides,
            },
            workers=workers,
            tasks=len(args.specs),
            duration_s=time.perf_counter() - started,
            extra={"trace_path": str(args.trace)},
        )
        sidecar = write_manifest(args.trace, manifest)
        print(f"trace written to {args.trace} (manifest: {sidecar})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
