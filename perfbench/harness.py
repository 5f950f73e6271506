"""Parent side of the benchmark: spawn units, aggregate, write the ledger.

Batch style: one unit at a time, each in a fresh child process; several
workloads are interleaved round-robin so host drift hits all of them
equally. Timed units are untraced; with tracing on, every round adds one
traced unit of the same input, which gives the per-layer numbers, the
tracing overhead, and a check that tracing changed no simulated result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench import ROOT, SRC
from perfbench.trace import CROSS_UNIT, PER_LAYER
from perfbench.workloads import WORKLOADS

OUT_DIR = ROOT / "perfbench" / "out"
EXPECTED_DIR = ROOT / "perfbench" / "expected"
#: A unit that takes this long is counted as failed, not waited for.
UNIT_TIMEOUT_S = 150.0
DEFAULT_REPS = 5

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END: List[Dict[str, Any]] = BENCHMARK["end_to_end"]

#: Simulated outcomes: deterministic for a seed, so they compare with ==.
#: (name, unit, better). Simulated time, never host time.
EXACT = (
    ("failed_share", "ratio", "lower"),
    ("good_success_rate", "ratio", "higher"),
    ("attackers_cut_share", "ratio", "higher"),
    ("good_cut_count", "count", "lower"),
    ("detect_latency_sim_s", "sim-s", "lower"),
)


# ---------------------------------------------------------------------------
# one unit
# ---------------------------------------------------------------------------

def run_unit(
    name: str, seed: int, *, traced: bool = False, tiny: bool = False, workers: int = 1
) -> Dict[str, Any]:
    """Run one unit in a fresh child; a failure comes back as ``{"failed": why}``."""
    scratch = OUT_DIR / "tmp" / f"{os.getpid()}-{time.monotonic_ns()}"
    request = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "tiny": tiny,
        "workers": workers,
        "out_dir": str(scratch),
        "spawned_at": 0.0,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    unit: Dict[str, Any] = {"traced": traced, "workers": workers}
    request["spawned_at"] = time.perf_counter()
    # A session of its own, so a timed-out unit's pool workers die with it.
    with subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", json.dumps(request)],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=UNIT_TIMEOUT_S)
            if child.returncode == 0:
                unit.update(json.loads(stdout.strip().splitlines()[-1]))
            else:
                unit["failed"] = f"exit {child.returncode}: {stderr.strip()[-2000:]}"
        except subprocess.TimeoutExpired:
            unit["failed"] = f"timed out after {UNIT_TIMEOUT_S:g} s"
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    shutil.rmtree(scratch, ignore_errors=True)
    return unit


# ---------------------------------------------------------------------------
# many units
# ---------------------------------------------------------------------------

def measure(
    names: Sequence[str],
    seed: int,
    *,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
    tiny: bool = False,
) -> Dict[str, List[Dict[str, Any]]]:
    """Units per workload: ``reps`` rounds each, or rounds until ``seconds``
    of host time went into the workload. One round is one untraced unit,
    plus one traced unit when ``trace`` is on."""
    units: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}
    rounds = {name: 0 for name in names}
    pending = list(names)
    while pending:
        for name in list(pending):
            started = time.perf_counter()
            units[name].append(run_unit(name, seed, tiny=tiny))
            if trace:
                units[name].append(run_unit(name, seed, traced=True, tiny=tiny))
                if (
                    rounds[name] == 0
                    and WORKLOADS[name].engine == "fluid"
                    and (os.cpu_count() or 1) >= 2
                ):
                    # ROADMAP item 1's pmap question: the same input on two
                    # workers, reported beside nproc, never gated.
                    units[name].append(run_unit(name, seed, tiny=tiny, workers=2))
            spent[name] += time.perf_counter() - started
            rounds[name] += 1
            done = rounds[name] >= reps if seconds is None else spent[name] >= seconds
            if done:
                pending.remove(name)
    return units


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _spread(values: Sequence[float]) -> Dict[str, Any]:
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _expected_digest(name: str, seed: int, tiny: bool) -> Optional[str]:
    path = EXPECTED_DIR / f"{name}.json"
    if tiny or not path.exists():
        return None
    expected = json.loads(path.read_text(encoding="utf-8"))
    return expected["digest"] if expected["seed"] == seed else None


def summarize(
    name: str, units: List[Dict[str, Any]], seed: int, *, tiny: bool = False
) -> Dict[str, Any]:
    """One ``BENCH_<workload>.json`` document (without host facts)."""
    workload = WORKLOADS[name]
    good = [u for u in units if "failed" not in u]
    timed = [u for u in good if not u["traced"] and u["workers"] == 1]
    traced = [u for u in good if u["traced"]]
    w2 = [u for u in good if u["workers"] == 2]

    # Every unit of one seed must simulate the same thing: traced or not,
    # on one worker or two, and (at the committed seed) today as before.
    expected = _expected_digest(name, seed, tiny)
    reference = expected or (good[0]["digest"] if good else None)
    wrong = [u for u in good if u["digest"] != reference]
    correct = bool(timed) and not wrong
    failed = len(units) - len(good) + len(wrong)
    digests = {u["digest"] for u in good}

    doc: Dict[str, Any] = {
        "workload": name,
        "why": workload.why,
        "scale": "tiny" if tiny else "bench",
        "params": dict(workload.params(tiny)),
        "events_unit": workload.events_unit,
        "seed": seed,
        "attempted": len(units),
        "failed": failed,
        "correct": correct,
        "digest": sorted(digests),
        "expected_digest": expected,
        "reps": len(timed),
        "end_to_end": {},
        "exact": {},
        "per_layer": {},
        "units": units,
    }
    if timed:
        # how fast the host ran the calibration loop beside each timed unit
        doc["host_speed"] = _spread([u["host_speed"] for u in timed])
    for metric in END_TO_END if timed else ():
        entry = {
            **metric,
            "time_base": "host",
            **_spread([u[metric["name"]] for u in timed]),
        }
        if metric["name"] in timed[0]["raw"]:
            # unscaled host seconds, as a stopwatch would have read them
            entry["raw_median"] = statistics.median(
                u["raw"][metric["name"]] for u in timed
            )
        doc["end_to_end"][metric["name"]] = entry
    for metric, unit, better in EXACT:
        if metric == "failed_share":
            values = [failed / len(units)]
        else:
            values = [u["sim"][metric] for u in good if metric in u["sim"]]
        if values:
            doc["exact"][metric] = {
                "unit": unit,
                "better": better,
                "time_base": "simulated",
                **_spread(values),
            }
    if traced and timed:
        run_s = statistics.median(u["run_s"] for u in timed)
        cross = {
            "trace.overhead_share": [
                (statistics.median(u["run_s"] for u in traced) - run_s) / run_s
            ],
            # 0 where the question does not arise (not the fluid workload,
            # or fewer than two cores)
            "exec.pmap.w2_speedup": [run_s / u["run_s"] for u in w2] or [0.0],
            "exec.pmap.w2_identical": (
                [float(u["digest"] == reference) for u in w2] or [0.0]
            ),
        }
        for metric, unit, better in PER_LAYER:
            values = (
                cross[metric]
                if metric in CROSS_UNIT
                else [u["layers"][metric] for u in traced]
            )
            doc["per_layer"][metric] = {
                "unit": unit,
                "better": better,
                "time_base": "host",
                **_spread(values),
            }
    return doc


def host_facts(seed: int, **extra: Any) -> Dict[str, Any]:
    """Host facts for the ledger, through the program's own manifest builder."""
    # git looks upward for a repository; keep it inside this checkout
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    from repro.obs.manifest import build_manifest

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return build_manifest(
        kind="perfbench",
        seed=seed,
        extra={
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model,
            "load_1min_at_start": os.getloadavg()[0],
            **extra,
        },
    )


def contract_line(doc: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the benchmark driver reads off the last line."""
    section = doc["per_layer"] if trace else doc["end_to_end"]
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in section.items()
            },
        }
    )


def render(doc: Dict[str, Any]) -> str:
    """Every metric by name with its unit, median and min-max."""
    lines = [
        f"== {doc['workload']}  seed={doc['seed']} scale={doc['scale']} "
        f"reps={doc['reps']} attempted={doc['attempted']} failed={doc['failed']} "
        f"correct={doc['correct']}  (events = {doc['events_unit']})"
    ]
    if "host_speed" in doc:
        speed = doc["host_speed"]
        lines.append(
            f"  host speed vs reference: {speed['median']:.3f} "
            f"[{speed['min']:.3f} .. {speed['max']:.3f}]; host times below are "
            f"stopwatch seconds x this factor"
        )
    for section in ("end_to_end", "exact", "per_layer"):
        for name, m in doc[section].items():
            lines.append(
                f"  {name:<46} {m['median']:>16.6g} {m['unit']:<6} "
                f"[{m['min']:.6g} .. {m['max']:.6g}] n={m['n']} "
                f"{m['time_base']} time, {m['better']} is better"
            )
    return "\n".join(lines)


def write_ledger(docs: Sequence[Dict[str, Any]], out_dir: Path, host: Dict[str, Any]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        path = out_dir / f"BENCH_{doc['workload']}.json"
        path.write_text(
            json.dumps({**doc, "host": host}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
