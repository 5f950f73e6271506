"""The four named workloads.

Each workload turns a seed into an input, hands it to one public entry
point of the program (``run_soa_experiment``, ``run_des_experiment`` or
``repro.cli.main``) and reduces what comes back to an event count, a
digest of every simulated statistic, and the simulated-outcome metrics.
The program only ever sees the generated config or argv.

Sizes are the largest that let one run of the benchmark measure several
fresh-process units inside ``run_seconds`` (see README.md, "Sizes"); the
names are the ledger's identity and do not change when sizes do.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

#: Every DES workload floods with TTL 3 (not the protocol's 7): the two
#: committed soa tables disagree exactly because one pinned this and the
#: other did not, so the benchmark states it.
TTL = 3
QUERIES_PER_MINUTE = 0.3
ATTACK_RATE_QPM = 2_000.0
#: Agents flood from t=0 so the first minute roll (t=60 s) already sees a
#: full attacked window; DD-POLICE concludes by t=65 s.
ATTACK_START_S = 0.0
#: The overlay graph, and on attacked workloads where the agents sit in
#: it, belong to the workload like its size does. Measured over ten
#: graphs, the work of one attacked unit varies threefold (a flooder two
#: hops from a hub against one in a leaf chain), which would bury any
#: regression; so ``--seed`` varies the traffic and the content placement
#: and never the graph or the agents' positions.
SCENARIO_SEED = 29


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what this workload stresses and what it bypasses.
    why: str
    #: "soa" | "des" | "fluid" -- which entry point runs it.
    engine: str
    #: What one "event" of ``events_per_s`` is on this workload.
    events_unit: str
    #: Input size at benchmark scale, and at the self-test's --tiny scale.
    bench: Mapping[str, Any]
    tiny: Mapping[str, Any]

    def params(self, tiny: bool) -> Mapping[str, Any]:
        return self.tiny if tiny else self.bench


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="soa_flood_20k",
            why="des-soa, 20,000 peers, BA m=3, TTL 3, no agents, no defense: "
            "large waves, so per-element kernel cost in simkit.soa and "
            "overlay.soa_network dominates; police and control plane idle",
            engine="soa",
            events_unit="deliveries+heap_events",
            bench={"n": 20_000, "duration_s": 10.0},
            tiny={"n": 300, "duration_s": 20.0},
        ),
        Workload(
            name="soa_attack_police_20k",
            why="des-soa, 20,000 peers, BA m=1, TTL 3, 10 agents x 2,000 qpm, "
            "DD-POLICE exact evidence: small waves, so per-wave fixed cost, heap "
            "dispatch, minute roll and police round are all on the path",
            engine="soa",
            events_unit="deliveries+heap_events",
            # Half the background rate of the other workloads: 13,500 waves
            # instead of 27,000, so a run holds six units, not three.
            bench={"n": 20_000, "duration_s": 66.0, "ba_m": 1, "agents": 10, "qpm": 0.15},
            tiny={"n": 300, "duration_s": 66.0, "ba_m": 1, "agents": 3},
        ),
        Workload(
            name="des_attack_police_500",
            why="message DES, BA m=1, TTL 3, 3 agents x 2,000 qpm, per-peer "
            "core.police engines with real control-plane messages, one heap event "
            "per delivery; bypasses simkit.soa, so a soa-only gain must not move it",
            engine="des",
            events_unit="heap_events",
            bench={"n": 200, "duration_s": 66.0, "ba_m": 1, "agents": 3},
            tiny={"n": 100, "duration_s": 66.0, "ba_m": 1, "agents": 2},
        ),
        Workload(
            name="fluid_cli_fig9_fig12",
            why="repro.cli.main run fig12 fig9: CLI entry, run_spec, exec.pmap, "
            "fluid.model, fluid.police, reporting, written tables and manifests; "
            "uses no simkit, so it is the control for every DES-side change",
            engine="fluid",
            events_unit="case-minutes",
            bench={"scale": "smoke", "set": ("scale.n_peers=600",)},
            tiny={"scale": "smoke", "set": ()},
        ),
    )
}


@dataclass
class Outcome:
    """What one executed unit reports back to the child driver."""

    #: ``perf_counter()`` at which the simulation proper started.
    entered_at: float
    #: Host seconds the entry point itself reports (or took, for the CLI).
    run_s: float
    events: int
    #: SHA-256 over every simulated statistic of the run.
    digest: str
    #: Simulated-outcome metrics (exact; simulated time, not host time).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Counts read off the public result, for per-layer ratios.
    facts: Dict[str, float] = field(default_factory=dict)


def _digest(doc: Any) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the two message-level engines
# ---------------------------------------------------------------------------

def des_config(params: Mapping[str, Any], seed: int):
    """The ``DESConfig`` a message-level workload hands to its engine."""
    from repro.experiments.runner import DESConfig
    from repro.overlay.content import ContentConfig
    from repro.overlay.network import NetworkConfig
    from repro.overlay.topology import TopologyConfig
    from repro.workload.generator import WorkloadConfig

    n = params["n"]
    topology = (
        TopologyConfig(n=n, seed=SCENARIO_SEED, ba_m=params["ba_m"])
        if "ba_m" in params
        else TopologyConfig(n=n, seed=SCENARIO_SEED)
    )
    agents = params.get("agents", 0)
    return DESConfig(
        n=n,
        duration_s=params["duration_s"],
        # DESConfig.seed draws the arrival times and origins, and also
        # which peers are agents -- so an attacked workload pins it.
        seed=SCENARIO_SEED if agents else seed,
        topology=topology,
        network=NetworkConfig(default_ttl=TTL, hop_latency_jitter_s=0.0),
        content=ContentConfig(num_objects=100, seed=seed),
        workload=WorkloadConfig(
            queries_per_minute=params.get("qpm", QUERIES_PER_MINUTE), seed=seed
        ),
        num_agents=agents,
        attack_start_s=ATTACK_START_S,
        attack_rate_qpm=ATTACK_RATE_QPM,
        defense="ddpolice" if agents else "none",
    )


def _attack_outcome(run, config) -> Dict[str, float]:
    """Paper Section 3.7 outcomes, with the paper's swapped names undone."""
    errors = run.error_counts()
    latencies = []
    for agent in run.bad_peers:
        cut_at = run.judgments.first_disconnect_time(agent)
        if cut_at is None:
            cut_at = config.duration_s  # censored: never cut inside the run
        latencies.append(cut_at - config.attack_start_s)
    return {
        # the paper's "false positive" is a bad peer that was never cut
        "attackers_cut_share": 1.0 - errors.false_positive / len(run.bad_peers),
        # the paper's "false negative" is a good peer wrongly cut
        "good_cut_count": float(errors.false_negative),
        "detect_latency_sim_s": sum(latencies) / len(latencies),
    }


def _run_message_level(workload: Workload, params: Mapping[str, Any], seed: int) -> Outcome:
    config = des_config(params, seed)
    if workload.engine == "soa":
        from repro.overlay.soa_network import run_soa_experiment

        run = run_soa_experiment(config)
        returned = time.perf_counter()
        events = run.stats.messages_delivered + run.heap_events
        stats, accounting = run.stats, run.accounting
        queries = max(1, stats.query_messages)
        facts = {
            "waves": float(run.waves_processed),
            "deliveries": float(run.deliveries),
            "dup_drop_ratio": stats.queries_dropped_duplicate / queries,
            "capacity_drop_ratio": stats.queries_dropped_capacity / queries,
            "evidence_bytes": float(run.evidence_bytes),
        }
    else:
        from repro.experiments.runner import run_des_experiment

        run = run_des_experiment(config)
        returned = time.perf_counter()
        events = run.sim.events_fired
        stats, accounting = run.network.stats, run.network.accounting
        facts = {"evidence_bytes": float(run.evidence_bytes)}

    doc: Dict[str, Any] = {
        "events": events,
        "stats": asdict(stats),
        "totals": {
            cls: asdict(accounting.totals(cls)) for cls in ("good", "attack")
        },
        "rows": [asdict(row) for row in accounting.rows],
    }
    sim = {"good_success_rate": accounting.success_rate("good")}
    if run.judgments is not None:
        doc["judgments"] = [
            [
                repr(j.time),
                int(j.observer),
                int(j.suspect),
                repr(j.g_value),
                repr(j.s_value),
                j.disconnected,
                j.reason,
            ]
            for j in run.judgments.judgments
        ]
        doc["cut"] = sorted(int(s) for s in run.judgments.disconnected_suspects())
        sim.update(_attack_outcome(run, config))
    return Outcome(
        entered_at=returned - run.wall_s,
        run_s=run.wall_s,
        events=events,
        digest=_digest(doc),
        sim=sim,
        facts=facts,
    )


# ---------------------------------------------------------------------------
# the fluid CLI workload
# ---------------------------------------------------------------------------

FLUID_SPECS = ("fig12", "fig9")
FLUID_TABLES = ("fig09_traffic", "fig12_damage")


def fluid_argv(
    params: Mapping[str, Any], seed: Optional[int], workers: int, out_dir: Path
) -> List[str]:
    """The argv handed to ``repro.cli.main``; ``seed=None`` keeps each
    spec's registered seed (the committed ``results/`` tables)."""
    argv = ["run", *FLUID_SPECS, "--scale", params["scale"]]
    for assignment in params["set"]:
        argv += ["--set", assignment]
    if seed is not None:
        argv += ["--set", f"seed={seed}"]
    return argv + ["--workers", str(workers), "--out", str(out_dir)]


def _run_fluid_cli(
    params: Mapping[str, Any], seed: int, workers: int, out_dir: Path, import_s: float
) -> Outcome:
    from repro.cli import main

    argv = fluid_argv(params, seed, workers, out_dir)
    # The CLI prints every table; swallowing it here is the consumer.
    with contextlib.redirect_stdout(io.StringIO()):
        entered_at = time.perf_counter()
        status = main(argv)
        run_s = time.perf_counter() - entered_at
    if status != 0:
        raise RuntimeError(f"repro.cli.main({argv}) exited {status}")
    tables = {}
    case_minutes = 0
    for table in FLUID_TABLES:
        tables[table] = hashlib.sha256(
            (out_dir / f"{table}.txt").read_bytes()
        ).hexdigest()
        manifest = json.loads(
            (out_dir / f"{table}.manifest.json").read_text(encoding="utf-8")
        )
        case_minutes += manifest["tasks"] * manifest["config"]["scale"]["sim_minutes"]
    return Outcome(
        entered_at=entered_at,
        run_s=run_s,
        events=case_minutes,
        digest=_digest(tables),
        facts={"cli.import_s": import_s},
    )


#: The module each engine's public entry point lives in.
ENTRY_MODULE = {
    "soa": "repro.overlay.soa_network",
    "des": "repro.experiments.runner",
    "fluid": "repro.cli",
}


def execute(
    workload: Workload,
    seed: int,
    *,
    tiny: bool,
    workers: int,
    out_dir: Path,
    once_imported: Optional[Callable[[], None]] = None,
) -> Outcome:
    """Run one unit of ``workload`` in this process.

    ``once_imported`` runs between importing the entry point and calling
    it: the traced child installs its hooks there, so the import is timed
    the same way traced or not.
    """
    started = time.perf_counter()
    importlib.import_module(ENTRY_MODULE[workload.engine])
    import_s = time.perf_counter() - started
    if once_imported is not None:
        once_imported()
    params = workload.params(tiny)
    if workload.engine == "fluid":
        return _run_fluid_cli(params, seed, workers, out_dir, import_s)
    return _run_message_level(workload, params, seed)
