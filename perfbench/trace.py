"""Outside-in per-layer tracing.

The traced child swaps callables of the program for timing wrappers --
class attributes in place, module-level functions under every name they
were imported as -- runs the workload through the same public entry
point, and puts the originals back. Spans are aggregated per name in
memory (``calls``, inclusive ``busy``, time inside ``child`` spans, and
the share of ``busy`` spent directly under the event loop) and reduced to
the per-layer metrics when the unit ends. No file under ``src/`` knows
this exists; timed (untraced) units install none of this.

A hook whose target a later refactor renamed is skipped and counted in
``trace.hooks_missing`` instead of failing the run: the end-to-end
numbers never depend on a private name, only the breakdown does.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.workloads import Outcome


@dataclass(frozen=True)
class Hook:
    #: Span the call is booked under.
    span: str
    #: ``package.module:Qualified.name`` of the callable to wrap.
    target: str
    #: Optional ``(counts, args, result)`` callback counting work done.
    probe: Optional[Callable[[Dict[str, float], tuple, Any], None]] = None


def _probe_insert(counts, args, result) -> None:
    counts["int64map.keys"] += len(args[1])
    counts["int64map.fresh"] += int(result.sum())


def _probe_grant(counts, args, result) -> None:
    counts["bucket.asked"] += int(args[2].sum())
    counts["bucket.granted"] += int(result.sum())


def _probe_pmap(counts, args, result) -> None:
    counts["pmap.tasks"] += len(result)


#: Spans that only carry structure: the event loop, one fired event, and
#: the interval ``SoaRun.wall_s`` covers. Their self time is dispatch
#: (the loop) or unattributed (the other two).
RUN, FIRE, SOA_RUN = "simkit.engine.run", "simkit.engine.fire", "overlay.soa_network.run"
STRUCTURAL = (RUN, FIRE, SOA_RUN)

#: ``OverlayNetwork._deliver`` is one function for every message; its
#: span is chosen per call from the message kind.
DELIVER = "overlay.network.deliver"
_DELIVER_SPANS = {
    "QUERY": f"{DELIVER}.query",
    "QUERY_HIT": f"{DELIVER}.hit",
    "NEIGHBOR_LIST": "core.police.deliver.neighbor_list",
    "PING": "core.police.deliver.ping_pong",
    "PONG": "core.police.deliver.ping_pong",
    "NEIGHBOR_TRAFFIC": "core.police.deliver.neighbor_traffic",
}
_DELIVER_OTHER = f"{DELIVER}.other"

_ENGINE = "repro.simkit.engine:Simulator"
_SOA = "repro.overlay.soa_network:SoaFloodEngine"
_MAP = "repro.simkit.soa:Int64Map"
_NET = "repro.overlay.network:OverlayNetwork"
_POLICE = "repro.core.police:DDPoliceEngine"
_ACCOUNTING = "repro.metrics.accounting:QueryAccounting"
_STORE = "repro.evidence.store:ExactTrafficStore"

HOOKS: Tuple[Hook, ...] = (
    Hook(RUN, f"{_ENGINE}.run"),
    Hook(FIRE, "repro.simkit.events:Event.fire"),
    Hook(SOA_RUN, f"{_SOA}.run"),
    Hook("simkit.engine.schedule", f"{_ENGINE}.schedule_at"),
    Hook("simkit.engine.schedule", f"{_ENGINE}.schedule_bulk"),
    Hook("overlay.soa_network.build", f"{_SOA}.__init__"),
    Hook("overlay.soa_network.wave", f"{_SOA}._process_wave"),
    Hook("overlay.soa_network.issue", f"{_SOA}._issue"),
    Hook("overlay.soa_network.attack_batch", f"{_SOA}._attack_batch"),
    Hook("overlay.soa_network.minute_roll", f"{_SOA}._roll_minute"),
    Hook("overlay.soa_network.conclude", f"{_SOA}._conclude"),
    Hook("simkit.soa.int64map.insert", f"{_MAP}.insert_new", _probe_insert),
    Hook("simkit.soa.int64map.lookup", f"{_MAP}.lookup"),
    Hook("simkit.soa.int64map.rotate", f"{_MAP}.maybe_rotate"),
    Hook(
        "simkit.soa.token_bucket.grant",
        "repro.simkit.soa:TokenBucketArray.grant",
        _probe_grant,
    ),
    Hook("overlay.topology.generate", "repro.overlay.topology:generate_topology"),
    Hook("fluid.flows.build_edge_arrays", "repro.fluid.flows:build_edge_arrays"),
    Hook("overlay.content.catalog", "repro.overlay.content:ContentCatalog.__init__"),
    Hook("core.police.deploy", "repro.core.police:deploy_ddpolice"),
    Hook("metrics.accounting", f"{_ACCOUNTING}.on_issued"),
    Hook("metrics.accounting", f"{_ACCOUNTING}.on_issued_many"),
    Hook("metrics.accounting", f"{_ACCOUNTING}.on_first_response"),
    Hook("metrics.accounting", f"{_ACCOUNTING}.on_minute_rolled"),
    Hook("core.indicators", "repro.core.indicators:indicators_from_reports"),
    Hook("evidence.record_window", f"{_STORE}.record_window"),
    Hook("evidence.suspicious", f"{_STORE}.suspicious_neighbors"),
    Hook(DELIVER, f"{_NET}._deliver"),
    Hook("overlay.network.transmit", f"{_NET}.transmit"),
    Hook("overlay.network.minute_roll", f"{_NET}._roll_minute"),
    Hook("core.police.timer.ping_directory", f"{_POLICE}._ping_directory"),
    Hook("core.police.timer.broadcast_list", f"{_POLICE}._broadcast_list"),
    Hook("core.police.conclude", f"{_POLICE}._conclude"),
    Hook("attack.agent.batch", "repro.attack.agent:DDoSAgent._batch"),
    Hook("workload.issue", "repro.workload.generator:QueryWorkload._issue"),
    Hook("fluid.model.init", "repro.fluid.model:FluidSimulation.__init__"),
    Hook("fluid.model.step", "repro.fluid.model:FluidSimulation.step"),
    Hook("fluid.flows.propagate", "repro.fluid.flows:propagate_flows"),
    Hook("fluid.police.step", "repro.fluid.police:FluidPolice.step"),
    Hook("fluid.graphstate.edge_arrays", "repro.fluid.graphstate:GraphState.edge_arrays"),
    Hook("exec.pmap", "repro.exec:pmap", _probe_pmap),
    Hook("experiments.run_spec", "repro.experiments.library:run_spec"),
    Hook("experiments.reporting.render", "repro.experiments.reporting:render_table"),
    Hook("experiments.reporting.render", "repro.experiments.reporting:render_timelines"),
    Hook("obs.manifest", "repro.obs.manifest:build_manifest"),
    Hook("obs.manifest", "repro.obs.manifest:write_manifest"),
)

# One record per span name: [calls, busy, child, top]. ``top`` is the
# part of ``busy`` whose parent span is structural (an event or a run
# root), so top-level busy times never double count nested work.
_CALLS, _BUSY, _CHILD, _TOP = range(4)


class Tracer:
    """Installs the hooks, aggregates spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {
            key: 0.0
            for key in (
                "int64map.keys", "int64map.fresh",
                "bucket.asked", "bucket.granted", "pmap.tasks",
            )
        }
        self.missing: List[str] = []
        #: Open spans, innermost last: [child seconds so far, structural?].
        self._stack: List[List[Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrapping -----------------------------------------------------------
    def _record(self, span: str) -> List[float]:
        return self.spans.setdefault(span, [0, 0.0, 0.0, 0.0])

    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts
        probe = hook.probe
        structural = hook.span in STRUCTURAL
        if hook.span == DELIVER:
            records = {
                kind: self._record(span) for kind, span in _DELIVER_SPANS.items()
            }
            other = self._record(_DELIVER_OTHER)

            def pick(args: tuple) -> List[float]:
                return records.get(args[3].kind.name, other)
        else:
            fixed = self._record(hook.span)

            def pick(args: tuple) -> List[float]:
                return fixed

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = pick(args)
            frame = [0.0, structural]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - started
                stack.pop()
                rec[_CALLS] += 1
                rec[_BUSY] += took
                rec[_CHILD] += frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += took
                    if parent[1]:
                        rec[_TOP] += took
                else:
                    rec[_TOP] += took
            if probe is not None:
                probe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        """Swap in the wrappers. Call once the workload's entry module is
        imported: a ``from x import f`` that runs later would bind the
        original ``f`` past its wrapper."""
        for hook in HOOKS:
            module_name, _, path = hook.target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            wrapped = self._wrap(hook, original)
            if parents:
                self._swap(owner, attr, wrapped, original)
                continue
            # A module-level function: swap every ``repro`` binding of it.
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith("repro"):
                    continue
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, bound_name, wrapped, original)

    def _swap(self, owner: Any, attr: str, wrapped: Any, original: Any) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------
    def get(self, span: str, field: int) -> float:
        rec = self.spans.get(span)
        return float(rec[field]) if rec is not None else 0.0

    def self_s(self, span: str) -> float:
        return self.get(span, _BUSY) - self.get(span, _CHILD)


def installed_wrappers() -> List[str]:
    """Hook targets currently replaced by a wrapper (empty when clean)."""
    found = []
    for hook in HOOKS:
        module_name, _, path = hook.target.partition(":")
        owner: Any = sys.modules.get(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if hasattr(owner, "__wrapped__"):
            found.append(hook.target)
    return found


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _span_metrics(span: str, *fields: str) -> List[Tuple[str, str, str]]:
    units = {"calls": "count", "busy_s": "s", "self_s": "s"}
    return [(f"{span}.{f}", units[f], "lower") for f in fields]


#: Every per-layer metric: (name, unit, better). ``BENCHMARK.json`` lists
#: exactly these; a layer a workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [
        ("simkit.engine.events", "count", "lower"),
        ("simkit.engine.dispatch_self_s", "s", "lower"),
        *_span_metrics("simkit.engine.schedule", "calls", "busy_s"),
        ("overlay.soa_network.build_self_s", "s", "lower"),
        *_span_metrics("overlay.soa_network.wave", "calls", "busy_s", "self_s"),
        ("overlay.soa_network.wave.deliveries_mean", "count", "higher"),
        *_span_metrics("overlay.soa_network.issue", "calls", "busy_s"),
        *_span_metrics("overlay.soa_network.attack_batch", "calls", "busy_s"),
        *_span_metrics("overlay.soa_network.minute_roll", "calls", "busy_s", "self_s"),
        *_span_metrics("overlay.soa_network.conclude", "calls", "busy_s"),
        ("overlay.soa_network.dup_drop_ratio", "ratio", "lower"),
        ("overlay.soa_network.capacity_drop_ratio", "ratio", "lower"),
        ("simkit.soa.int64map.insert.calls", "count", "lower"),
        ("simkit.soa.int64map.insert.keys", "count", "lower"),
        ("simkit.soa.int64map.insert.busy_s", "s", "lower"),
        ("simkit.soa.int64map.insert.fresh_ratio", "ratio", "higher"),
        *_span_metrics("simkit.soa.int64map.lookup", "calls", "busy_s"),
        *_span_metrics("simkit.soa.int64map.rotate", "busy_s"),
        *_span_metrics("simkit.soa.token_bucket.grant", "calls", "busy_s"),
        ("simkit.soa.token_bucket.grant.granted_ratio", "ratio", "higher"),
        *_span_metrics("overlay.topology.generate", "busy_s"),
        *_span_metrics("fluid.flows.build_edge_arrays", "calls", "busy_s"),
        *_span_metrics("overlay.content.catalog", "busy_s"),
        *_span_metrics("core.police.deploy", "busy_s"),
        *_span_metrics("metrics.accounting", "calls", "busy_s"),
        *_span_metrics("core.indicators", "calls", "busy_s"),
        *_span_metrics("evidence.record_window", "calls", "busy_s"),
        *_span_metrics("evidence.suspicious", "calls", "busy_s"),
        ("evidence.bytes", "B", "lower"),
        *_span_metrics(f"{DELIVER}.query", "calls", "busy_s"),
        *_span_metrics(f"{DELIVER}.hit", "calls", "busy_s"),
        *_span_metrics("overlay.network.transmit", "calls", "busy_s"),
        *_span_metrics("overlay.network.minute_roll", "calls", "busy_s"),
        *_span_metrics("core.police.deliver.neighbor_list", "calls", "busy_s"),
        *_span_metrics("core.police.deliver.ping_pong", "calls", "busy_s"),
        *_span_metrics("core.police.deliver.neighbor_traffic", "calls", "busy_s"),
        *_span_metrics("core.police.timer.ping_directory", "calls", "busy_s"),
        *_span_metrics("core.police.timer.broadcast_list", "calls", "busy_s"),
        *_span_metrics("core.police.conclude", "calls", "busy_s"),
        ("core.police.control_share", "ratio", "lower"),
        *_span_metrics("attack.agent.batch", "calls", "busy_s"),
        *_span_metrics("workload.issue", "calls", "busy_s"),
        *_span_metrics("fluid.model.init", "busy_s"),
        *_span_metrics("fluid.model.step", "calls", "busy_s", "self_s"),
        *_span_metrics("fluid.flows.propagate", "calls", "busy_s"),
        *_span_metrics("fluid.police.step", "calls", "busy_s"),
        *_span_metrics("fluid.graphstate.edge_arrays", "calls"),
        ("fluid.graphstate.edge_arrays.build_ratio", "ratio", "lower"),
        ("exec.pmap.calls", "count", "lower"),
        ("exec.pmap.tasks", "count", "lower"),
        ("exec.pmap.busy_s", "s", "lower"),
        ("exec.pmap.w2_speedup", "ratio", "higher"),
        ("exec.pmap.w2_identical", "ratio", "higher"),
        *_span_metrics("experiments.run_spec", "busy_s", "self_s"),
        *_span_metrics("experiments.reporting.render", "busy_s"),
        *_span_metrics("obs.manifest", "busy_s"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.hooks_missing", "count", "lower"),
    ]
)

#: Filled in by the parent from several units, not by one traced child.
CROSS_UNIT = ("trace.overhead_share", "exec.pmap.w2_speedup", "exec.pmap.w2_identical")

_POLICE_CONTROL = (
    "core.police.deliver.neighbor_list",
    "core.police.deliver.ping_pong",
    "core.police.deliver.neighbor_traffic",
    "core.police.timer.ping_directory",
    "core.police.timer.broadcast_list",
    "core.police.conclude",
)
_FIELDS = {"calls": _CALLS, "busy_s": _BUSY}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """Reduce one traced unit to every per-layer metric it can fill."""
    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in _FIELDS:
            out[name] = tracer.get(span, _FIELDS[field])
        elif field == "self_s":
            out[name] = tracer.self_s(span)
    facts, counts = outcome.facts, tracer.counts
    run_s = outcome.run_s
    # Host time under no named span: inside a fired event, or inside the
    # soa run root but outside the event loop (its start-up scheduling).
    unattributed = tracer.self_s(FIRE) + tracer.self_s(SOA_RUN)
    if not tracer.get(RUN, _CALLS):
        # No event loop at all (the fluid CLI): whatever the named spans
        # directly under the entry point do not cover.
        unattributed = run_s - sum(rec[_TOP] for rec in tracer.spans.values())
    out.update(
        {
            "simkit.engine.events": tracer.get(FIRE, _CALLS),
            "simkit.engine.dispatch_self_s": tracer.self_s(RUN),
            "overlay.soa_network.build_self_s": tracer.self_s("overlay.soa_network.build"),
            "overlay.soa_network.wave.deliveries_mean": _ratio(
                facts.get("deliveries", 0.0), facts.get("waves", 0.0)
            ),
            "overlay.soa_network.dup_drop_ratio": facts.get("dup_drop_ratio", 0.0),
            "overlay.soa_network.capacity_drop_ratio": facts.get("capacity_drop_ratio", 0.0),
            "simkit.soa.int64map.insert.keys": counts["int64map.keys"],
            "simkit.soa.int64map.insert.fresh_ratio": _ratio(
                counts["int64map.fresh"], counts["int64map.keys"]
            ),
            "simkit.soa.token_bucket.grant.granted_ratio": _ratio(
                counts["bucket.granted"], counts["bucket.asked"]
            ),
            "evidence.bytes": facts.get("evidence_bytes", 0.0),
            "core.police.control_share": _ratio(
                sum(tracer.get(span, _TOP) for span in _POLICE_CONTROL), run_s
            ),
            "fluid.graphstate.edge_arrays.build_ratio": _ratio(
                tracer.get("fluid.flows.build_edge_arrays", _CALLS),
                tracer.get("fluid.graphstate.edge_arrays", _CALLS),
            ),
            "exec.pmap.tasks": counts["pmap.tasks"],
            "cli.import_s": facts.get("cli.import_s", 0.0),
            "trace.unattributed_share": _ratio(unattributed, run_s),
            "trace.hooks_missing": float(len(tracer.missing)),
        }
    )
    return out
