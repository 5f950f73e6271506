"""Spawn and babysit a localhost swarm of live overlay nodes.

The supervisor is the testbed's control plane:

* generates the overlay topology with the same
  :func:`repro.overlay.topology.generate_topology` the DES backends use,
  picks the attack-agent subset deterministically from the seed, and
  allocates one UDP port per node (:mod:`repro.live.ports`);
* writes one JSON :class:`~repro.live.node.NodeConfig` per node and
  spawns ``python -m repro.live.node`` processes with a staggered start
  and a shared protocol-t=0 instant, so every node's minute windows
  align;
* babysits the swarm: crash detection while the scenario runs, then a
  graceful SIGTERM drain with a bounded timeout and a SIGKILL backstop.
  Reaping runs in a ``finally`` block, so a KeyboardInterrupt or any
  collection error still leaves zero orphaned processes and no bound
  sockets behind;
* collects the per-node JSONL stats (``live.minute`` records plus the
  engine's ``police.*`` events), schema-validates every record, and
  renders the swarm's aggregate into the repo's minute-table format
  with a verified manifest sidecar.

The supervisor is deliberately synchronous -- plain ``subprocess`` +
polling. The nodes are the asyncio programs; the babysitter must stay
simple enough to be obviously correct about process cleanup.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.config import DDPoliceConfig
from repro.errors import ConfigError
from repro.live.ports import allocate_udp_ports
from repro.live.node import NodeConfig
from repro.obs.manifest import (
    atomic_write_text,
    build_manifest,
    jsonable_config,
    write_manifest,
)
from repro.obs.trace import iter_records, validate_record
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.rng import derive_seed


@dataclass(frozen=True)
class SwarmConfig:
    """One swarm run: scenario shape + testbed pacing."""

    n_nodes: int
    minutes: int
    seed: int = 0
    minute_s: float = 1.0
    host: str = "127.0.0.1"
    port_base: Optional[int] = None
    #: Attack role.
    num_agents: int = 0
    attack_start_min: int = 0
    attack_rate_qpm: float = 0.0
    cheat_strategy: str = "honest"
    #: Workload + capacity (protocol rates, as in the DES).
    queries_per_minute: float = 0.3
    capacity_qpm: float = 10_000.0
    #: Defense layer.
    defense: str = "none"
    police: DDPoliceConfig = DDPoliceConfig()
    #: Topology (the DES agent-sweep default is the ba_m=1 tree).
    topology_model: str = "ba"
    ba_m: int = 1
    ttl: int = 7
    seen_cache: int = 50_000
    #: Liveness timing (protocol seconds).
    ping_period_s: float = 60.0
    ping_timeout_s: float = 15.0
    ping_retries: int = 3
    #: Babysitting (wall seconds).
    spawn_stagger_s: float = 0.01
    drain_timeout_s: float = 10.0
    run_id: str = "live"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.minutes < 1:
            raise ConfigError(f"minutes must be >= 1, got {self.minutes}")
        if not (0 <= self.num_agents < self.n_nodes):
            raise ConfigError(
                f"num_agents: cannot compromise {self.num_agents} of "
                f"{self.n_nodes} nodes"
            )
        if self.minute_s <= 0:
            raise ConfigError(f"minute_s must be positive, got {self.minute_s}")
        if self.drain_timeout_s <= 0:
            raise ConfigError("drain_timeout_s must be positive")
        if self.defense not in ("none", "ddpolice"):
            raise ConfigError(f"unknown defense: {self.defense!r}")


@dataclass
class SwarmResult:
    """Validated per-node stats plus babysitting facts."""

    config: SwarmConfig
    #: All schema-valid ``live.minute`` records across nodes.
    minute_records: List[Dict[str, Any]]
    #: All ``police.*`` records (suspect/report/cut) across nodes.
    police_records: List[Dict[str, Any]]
    agent_ids: Set[int]
    #: Nodes that died before the scenario ended (nonzero exit / signal).
    crashed: List[int]
    #: Nodes whose final record confirms a clean drain.
    clean_exits: int
    duration_s: float

    def cut_events(self) -> List[Dict[str, Any]]:
        return [r for r in self.police_records if r.get("kind") == "police.cut"]

    def minute_table(self) -> Tuple[List[str], List[List[Any]]]:
        """Swarm-aggregate per-minute table (the repo's minute format).

        Good-workload issue/success columns reclassify attack agents the
        way the DES origin-aware metrics do: an agent's queries count as
        good workload before the attack minute and are excluded from it
        onward (the flooder also keeps its normal workload running).
        """
        per_minute: Dict[int, Dict[str, float]] = {}
        attack_from = self.config.attack_start_min
        for rec in self.minute_records:
            minute = int(rec["minute"])
            agg = per_minute.setdefault(
                minute,
                {"issued": 0, "succeeded": 0, "response_sum_s": 0.0,
                 "messages": 0, "attack_sent": 0, "nodes": 0},
            )
            agg["nodes"] += 1
            agg["messages"] += rec["sent"]
            agg["attack_sent"] += rec["attack_sent"]
            excluded = (
                self.config.num_agents > 0
                and rec.get("agent")
                and minute > attack_from
            )
            if not excluded:
                agg["issued"] += rec["issued"]
                agg["succeeded"] += rec["succeeded"]
                agg["response_sum_s"] += rec["response_sum_s"]
        header = [
            "minute", "nodes", "issued", "succeeded", "success_rate",
            "response_s", "messages", "attack_sent",
        ]
        rows: List[List[Any]] = []
        for minute in sorted(per_minute):
            agg = per_minute[minute]
            issued = int(agg["issued"])
            succeeded = int(agg["succeeded"])
            rows.append([
                minute,
                int(agg["nodes"]),
                issued,
                succeeded,
                round(succeeded / issued, 3) if issued else 0.0,
                round(agg["response_sum_s"] / succeeded, 4) if succeeded else 0.0,
                int(agg["messages"]),
                int(agg["attack_sent"]),
            ])
        return header, rows


class Supervisor:
    """Spawns, watches, drains, and reaps one node swarm.

    Split into :meth:`start` / :meth:`wait` / :meth:`shutdown` so tests
    can interfere mid-run (kill a node, interrupt the wait) and still
    observe the cleanup contract; :meth:`run` is the one-call wrapper
    with the ``finally``-guaranteed reap.
    """

    def __init__(self, config: SwarmConfig, out_dir: Path) -> None:
        self.config = config
        self.out_dir = Path(out_dir)
        self.processes: Dict[int, subprocess.Popen] = {}
        self.ports: List[int] = []
        self.agent_ids: Set[int] = set()
        self.crashed: List[int] = []
        self._started_at = 0.0
        self._deadline = 0.0

    # ------------------------------------------------------------------
    def node_config(self, node_id: int) -> Path:
        return self.out_dir / f"node-{node_id:04d}.json"

    def node_stats(self, node_id: int) -> Path:
        return self.out_dir / f"node-{node_id:04d}.jsonl"

    def node_ready(self, node_id: int) -> Path:
        return self.out_dir / f"node-{node_id:04d}.ready"

    @property
    def start_file(self) -> Path:
        return self.out_dir / "start_at.json"

    def start(self) -> None:
        """Plan the swarm and spawn every node process, staggered."""
        if self.processes:
            raise ConfigError("swarm already started")
        cfg = self.config
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # Scrub artifacts from any previous swarm in this directory:
        # JSONL sinks append, so stale per-node stats would silently
        # merge two runs' records at collect() time.
        for stale in self.out_dir.glob("node-*.json*"):
            stale.unlink()
        for stale in self.out_dir.glob("node-*.ready"):
            stale.unlink()
        self.start_file.unlink(missing_ok=True)

        topology = generate_topology(
            TopologyConfig(
                n=cfg.n_nodes, model=cfg.topology_model, ba_m=cfg.ba_m, seed=cfg.seed
            )
        )
        self.agent_ids = set(
            random.Random(derive_seed(cfg.seed, "agents")).sample(
                range(cfg.n_nodes), cfg.num_agents
            )
        )
        self.ports = allocate_udp_ports(
            cfg.n_nodes, host=cfg.host, base=cfg.port_base
        )
        addresses = {
            i: (cfg.host, self.ports[i]) for i in range(cfg.n_nodes)
        }
        police = {
            k: (v.value if hasattr(v, "value") else v)
            for k, v in jsonable_config(cfg.police).items()
        }

        for i in range(cfg.n_nodes):
            node = NodeConfig(
                node_id=i,
                host=cfg.host,
                port=self.ports[i],
                addresses=addresses,
                neighbors=tuple(sorted(topology.neighbors(i))),
                n_peers=cfg.n_nodes,
                minutes=cfg.minutes,
                minute_s=cfg.minute_s,
                seed=cfg.seed,
                ttl=cfg.ttl,
                seen_cache_limit=cfg.seen_cache,
                capacity_qpm=cfg.capacity_qpm,
                queries_per_minute=cfg.queries_per_minute,
                agent=i in self.agent_ids,
                attack_start_min=cfg.attack_start_min,
                attack_rate_qpm=cfg.attack_rate_qpm if i in self.agent_ids else 0.0,
                cheat_strategy=cfg.cheat_strategy if i in self.agent_ids else "honest",
                defense=cfg.defense,
                police=police,
                ping_period_s=cfg.ping_period_s,
                ping_timeout_s=cfg.ping_timeout_s,
                ping_retries=cfg.ping_retries,
                stats_path=str(self.node_stats(i)),
                run_id=cfg.run_id,
                ready_file=str(self.node_ready(i)),
                start_file=str(self.start_file),
            )
            atomic_write_text(
                self.node_config(i), json.dumps(node.to_dict(), sort_keys=True)
            )

        env = dict(os.environ)
        pkg_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root if not existing else f"{pkg_root}{os.pathsep}{existing}"
        )
        self._started_at = time.time()
        for i in range(cfg.n_nodes):
            self.processes[i] = subprocess.Popen(
                [sys.executable, "-m", "repro.live.node",
                 "--config", str(self.node_config(i))],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if cfg.spawn_stagger_s > 0:
                time.sleep(cfg.spawn_stagger_s)

        # Startup barrier: wait for every node's ready marker (bound
        # socket, imports done), then publish the shared protocol t=0.
        # Guessing interpreter start-up time does not survive contact
        # with a loaded machine; the barrier makes minute windows align
        # regardless of how slowly a few hundred interpreters come up.
        ready_deadline = time.time() + 60.0 + 0.2 * cfg.n_nodes
        while time.time() < ready_deadline:
            waiting = [
                i for i in range(cfg.n_nodes)
                if not self.node_ready(i).exists()
                and self.processes[i].poll() is None
            ]
            if not waiting:
                break
            time.sleep(0.02)
        start_at = time.time() + max(0.5, 0.002 * cfg.n_nodes)
        atomic_write_text(self.start_file, json.dumps({"start_at": start_at}))
        self._deadline = (
            start_at + cfg.minutes * cfg.minute_s + cfg.drain_timeout_s + 30.0
        )

    def wait(self, poll_s: float = 0.1) -> None:
        """Watch the swarm until every node exited or the deadline passed.

        A node exiting nonzero (or on a signal) before the scenario end
        is recorded in ``crashed`` -- the swarm keeps running; a live
        overlay must survive individual node deaths.
        """
        while time.time() < self._deadline:
            running = 0
            for node_id, proc in self.processes.items():
                code = proc.poll()
                if code is None:
                    running += 1
                elif code != 0 and node_id not in self.crashed:
                    self.crashed.append(node_id)
            if running == 0:
                return
            time.sleep(poll_s)

    def shutdown(self) -> None:
        """SIGTERM every survivor, drain, SIGKILL stragglers, reap all."""
        survivors = [p for p in self.processes.values() if p.poll() is None]
        for proc in survivors:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:  # pragma: no cover - exited in between
                pass
        deadline = time.time() + self.config.drain_timeout_s
        for proc in survivors:
            remaining = deadline - time.time()
            try:
                proc.wait(timeout=max(0.05, remaining))
            except subprocess.TimeoutExpired:
                proc.kill()
        for proc in self.processes.values():
            if proc.poll() is None:  # pragma: no cover - kill() race
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass

    def collect(self) -> SwarmResult:
        """Schema-validate and aggregate every node's JSONL stats."""
        minute_records: List[Dict[str, Any]] = []
        police_records: List[Dict[str, Any]] = []
        clean = 0
        for i in range(self.config.n_nodes):
            path = self.node_stats(i)
            if not path.exists():
                continue
            for record in iter_records(path):
                validate_record(record)
                kind = record.get("kind", "")
                if kind == "live.minute":
                    minute_records.append(record)
                elif kind == "live.final":
                    clean += int(bool(record.get("clean")))
                elif kind.startswith("police."):
                    police_records.append(record)
        return SwarmResult(
            config=self.config,
            minute_records=minute_records,
            police_records=police_records,
            agent_ids=set(self.agent_ids),
            crashed=list(self.crashed),
            clean_exits=clean,
            duration_s=time.time() - self._started_at,
        )

    def run(self) -> SwarmResult:
        """Start, babysit, drain, reap, collect -- the one-call flow.

        The reap runs in ``finally``: KeyboardInterrupt, a crash in the
        watcher, or a collection error all still tear the swarm down.
        """
        try:
            self.start()
            self.wait()
        finally:
            self.shutdown()
        return self.collect()


def run_swarm(config: SwarmConfig, out_dir: Path) -> SwarmResult:
    """Run one swarm and write its minute table + manifest into ``out_dir``.

    The table lands at ``<out_dir>/swarm_minutes.txt`` with a
    ``.manifest.json`` sidecar that embeds the swarm config
    (:func:`repro.obs.manifest.verify_manifest`-clean).
    """
    from repro.experiments.reporting import render_table

    supervisor = Supervisor(config, out_dir)
    result = supervisor.run()
    header, rows = result.minute_table()
    table = render_table(
        header,
        rows,
        title=(
            f"live swarm: {config.n_nodes} nodes, {config.minutes} protocol "
            f"minutes at {config.minute_s:g}s/minute"
        ),
    )
    artifact = Path(out_dir) / "swarm_minutes.txt"
    atomic_write_text(artifact, table + "\n")
    manifest = build_manifest(
        kind="live-swarm",
        config=config,
        seed=config.seed,
        tasks=config.n_nodes,
        duration_s=result.duration_s,
        counters={
            "minute_records": len(result.minute_records),
            "police_records": len(result.police_records),
            "crashed": len(result.crashed),
            "clean_exits": result.clean_exits,
        },
    )
    write_manifest(artifact, manifest)
    return result
