"""``python -m perfbench compare A B``: did B get worse than A?

A and B are directories of ``BENCH_<workload>.json`` files written by two
``run`` invocations with the same benchmark code and settings. Every
(metric, workload) pair gets its own row; nothing is folded into a score.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench.harness import END_TO_END

BOUNDS = {m["name"]: m["bound"] for m in END_TO_END}


def load(directory: Path) -> Dict[str, Dict[str, Any]]:
    docs = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        docs[doc["workload"]] = doc
    return docs


def _worse_by(a: Dict[str, Any], b: Dict[str, Any]) -> float:
    """Share of A's median by which B's median is worse (negative: better)."""
    delta = b["median"] - a["median"]
    if a["better"] == "higher":
        delta = -delta
    if not a["median"]:
        return math.copysign(math.inf, delta) if delta else 0.0
    return delta / abs(a["median"])


def _every_run_better(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return b["max"] < a["min"] if a["better"] == "lower" else b["min"] > a["max"]


def _range_share(m: Dict[str, Any]) -> float:
    return (m["max"] - m["min"]) / abs(m["median"]) if m["median"] else 0.0


def verdict_timed(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> str:
    """improved / unchanged / regressed / unresolved for a host-time metric."""
    if _worse_by(a, b) > bound:
        return "regressed"
    if _every_run_better(a, b):
        return "improved"
    if max(_range_share(a), _range_share(b)) > bound:
        # the runs of one side spread wider than the bound: a change of
        # the bound's size could hide in there
        return "unresolved"
    return "unchanged"


def verdict_exact(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    if (a["min"], a["max"]) == (b["min"], b["max"]):
        return "unchanged"
    return "regressed" if _worse_by(a, b) > 0 else "improved"


def compare(dir_a: Path, dir_b: Path) -> Tuple[List[str], bool]:
    """Rows to print, and whether anything regressed."""
    docs_a, docs_b = load(dir_a), load(dir_b)
    rows: List[str] = []
    regressed = False
    for name in sorted(set(docs_a) & set(docs_b)):
        a, b = docs_a[name], docs_b[name]
        pairs = [
            (metric, a["end_to_end"][metric], b["end_to_end"][metric], BOUNDS[metric])
            for metric in BOUNDS
            if metric in a["end_to_end"] and metric in b["end_to_end"]
        ] + [
            (metric, a["exact"][metric], b["exact"][metric], None)
            for metric in a["exact"]
            if metric in b["exact"]
        ]
        for metric, ma, mb, bound in pairs:
            verdict = (
                verdict_exact(ma, mb) if bound is None else verdict_timed(ma, mb, bound)
            )
            regressed = regressed or verdict == "regressed"
            limit = "exact" if bound is None else f"bound {bound:.0%}"
            rows.append(
                f"{name:<24} {metric:<22} {verdict:<10} "
                f"{ma['median']:.6g} [{ma['min']:.6g}..{ma['max']:.6g}] -> "
                f"{mb['median']:.6g} [{mb['min']:.6g}..{mb['max']:.6g}] {ma['unit']} "
                f"({_worse_by(ma, mb):+.1%} worse, {limit}, n={ma['n']}/{mb['n']})"
            )
    for name in sorted(set(docs_a) ^ set(docs_b)):
        rows.append(f"{name:<24} only in one of the two sets: not compared")
    return rows, regressed
