"""One unit of one workload, in a process of its own.

``python -m perfbench.child '<request json>'`` runs the workload once,
untraced or traced, and prints one JSON line with what it measured. The
parent starts a fresh child per unit, so every unit pays interpreter
start and ``import repro`` (that is ``setup_s``) and reports a peak RSS
of its own.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict


def run(request: Dict[str, Any]) -> Dict[str, Any]:
    from perfbench import calibrate, trace
    from perfbench.workloads import WORKLOADS, execute

    workload = WORKLOADS[request["workload"]]
    out_dir = Path(request["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = trace.Tracer() if request["traced"] else None
    reading_started = time.perf_counter()
    before = calibrate.reading()
    first_reading_s = time.perf_counter() - reading_started
    try:
        outcome = execute(
            workload,
            request["seed"],
            tiny=request["tiny"],
            workers=request["workers"],
            out_dir=out_dir,
            once_imported=tracer.install if tracer is not None else None,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    extracted_at = time.perf_counter()
    # ru_maxrss is KiB on Linux; read before the second calibration
    # reading can add its own few MB on top of the workload's peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = calibrate.reading()
    leftover = trace.installed_wrappers()
    if leftover:
        raise RuntimeError(f"trace wrappers still installed: {leftover}")

    # perf_counter is CLOCK_MONOTONIC, shared with the parent that
    # stamped ``spawned_at`` just before starting this interpreter.
    # The first reading is the benchmark's own work, not set-up.
    started_at = request["spawned_at"] + first_reading_s
    raw = {
        "setup_s": outcome.entered_at - started_at,
        "run_s": outcome.run_s,
        "wall_s": extracted_at - started_at,
    }
    # < 1 while the host is slower than the reference, so times shrink
    host_speed = calibrate.REFERENCE_S / ((before + after) / 2.0)
    layers = None
    if tracer is not None:
        layers = {
            name: value * host_speed if name.endswith("_s") else value
            for name, value in trace.layer_metrics(tracer, outcome).items()
        }
    return {
        **{name: seconds * host_speed for name, seconds in raw.items()},
        "raw": raw,
        "host_speed": host_speed,
        "events": outcome.events,
        "events_per_s": outcome.events / (outcome.run_s * host_speed),
        "peak_rss_mb": peak_rss_mb,
        "digest": outcome.digest,
        "sim": outcome.sim,
        "layers": layers,
    }


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
