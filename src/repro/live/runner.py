"""The ``live`` backend: run one experiment Case as a real UDP swarm.

Runs a :class:`repro.live.supervisor.Supervisor` on the backend-neutral
:class:`repro.experiments.spec.Case` and adapts the collected JSONL
stats to the inputs of :func:`repro.experiments.spec.case_result`, the
reduction every backend shares, so ``repro run fig9 --backend live``
flows through the unchanged agent-sweep driver. The swarm's size is the
supervisor's :func:`~repro.live.supervisor.swarm_size`.

Features the testbed does not implement are rejected loudly with
:class:`~repro.errors.ConfigError` by
:func:`~repro.live.node.reject_unsupported`, before any node is spawned
-- fault injection schedules, adaptive adversaries, the naive-cutoff
defense, collusion, and a trace path (the swarm's per-node JSONL *is*
its observability story).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.experiments.spec import (
    Case,
    CaseResult,
    Minute,
    case_key,
    case_result,
    first_cuts,
)
from repro.live.node import reject_unsupported
from repro.live.supervisor import Supervisor, SwarmResult

#: Set to a directory to keep each case's per-node JSONL stats (debugging).
ENV_OUT_DIR = "REPRO_LIVE_OUT_DIR"


def _minutes(case: Case, result: SwarmResult) -> List[Minute]:
    """Swarm-wide per-minute samples with origin-aware attribution.

    An agent's good workload counts toward issued/succeeded *before* the
    attack minute and is excluded from it onward -- the live analogue of
    the DES origin-aware reclassification (DES agents also keep their
    normal workload running during the attack).
    """
    per_minute: Dict[int, Dict[str, float]] = {}
    for rec in result.minute_records:
        minute = int(rec["minute"])
        agg = per_minute.setdefault(
            minute,
            {"issued": 0.0, "succeeded": 0.0, "response_sum_s": 0.0, "messages": 0.0},
        )
        agg["messages"] += rec["sent"]
        if rec.get("agent") and minute > case.attack_start_min:
            continue
        agg["issued"] += rec["issued"]
        agg["succeeded"] += rec["succeeded"]
        agg["response_sum_s"] += rec["response_sum_s"]
    return [
        (
            minute,
            agg["messages"] / 1000.0,
            agg["response_sum_s"] / agg["succeeded"] if agg["succeeded"] else None,
            agg["succeeded"] / agg["issued"] if agg["issued"] else 0.0,
        )
        for minute, agg in sorted(per_minute.items())
    ]


def case_result_from_swarm(case: Case, result: SwarmResult) -> CaseResult:
    """Reduce collected swarm stats to the case's result."""
    return case_result(
        case,
        _minutes(case, result),
        first_cuts(
            (int(rec["suspect"]), float(rec["t"])) for rec in result.cut_events()
        ),
        result.agent_ids,
    )


def run_live_case(case: Case) -> CaseResult:
    """Run one case as a real swarm (the registered ``live`` task_fn)."""
    reject_unsupported(case)
    keep_dir = os.environ.get(ENV_OUT_DIR)
    if keep_dir:
        result = Supervisor(case, Path(keep_dir) / case_key(case)).run()
    else:
        with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
            result = Supervisor(case, Path(tmp)).run()
    return case_result_from_swarm(case, result)
