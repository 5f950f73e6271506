"""Spawn and babysit a localhost swarm of live overlay nodes.

The supervisor is the testbed's control plane:

* sizes the swarm from the :class:`~repro.experiments.spec.Case` it
  runs (:func:`swarm_size`), builds the case's overlay with the
  :func:`~repro.experiments.spec.topology_config` the DES backends use,
  picks the attack-agent subset deterministically from the seed, and
  allocates one UDP port per node (:mod:`repro.live.ports`);
* writes one JSON :class:`~repro.live.node.NodeConfig` per node (the
  case plus that node's address book, neighbors and role) and spawns
  ``python -m repro.live.node`` processes with a staggered start and a
  shared protocol-t=0 instant, so every node's minute windows align;
* babysits the swarm: crash detection while the scenario runs, then a
  graceful SIGTERM drain with a bounded timeout and a SIGKILL backstop.
  Reaping runs in a ``finally`` block, so a KeyboardInterrupt or any
  collection error still leaves zero orphaned processes and no bound
  sockets behind;
* collects the per-node JSONL stats (``live.minute`` records plus the
  engine's ``police.*`` events) and schema-validates every record;
  :mod:`repro.live.runner` reduces them to the case's result.

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
from typing import Any, Dict, List, Set, Tuple

from repro.errors import ConfigError
from repro.experiments.spec import Case, topology_config
from repro.live.ports import allocate_udp_ports
from repro.live.node import NodeConfig
from repro.obs.manifest import atomic_write_text
from repro.obs.trace import iter_records, validate_record
from repro.overlay.topology import generate_topology
from repro.simkit.rng import derive_seed


def swarm_size(case: Case) -> Tuple[int, int]:
    """(nodes, agents) of the swarm one case runs on.

    A live node is an OS process, so the case's ``n`` is capped at
    ``case.live.n_nodes`` and a capped swarm scales the agent count to
    keep the attack *density*, which is what the Fig-9/10/11 curves are
    about. A case with agents keeps at least one, and at least one node
    stays good.
    """
    n_nodes = min(case.n, case.live.n_nodes)
    if case.num_agents == 0:
        return n_nodes, 0
    agents = case.num_agents
    if n_nodes < case.n:
        agents = max(1, round(agents * n_nodes / case.n))
    return n_nodes, min(agents, n_nodes - 1)


@dataclass
class SwarmResult:
    """Validated per-node stats plus babysitting facts."""

    #: All schema-valid ``live.minute`` records across nodes.
    minute_records: List[Dict[str, Any]]
    #: All ``police.*`` records (suspect/report/cut) across nodes.
    police_records: List[Dict[str, Any]]
    agent_ids: Set[int]
    #: Nodes that died before the scenario ended (nonzero exit / signal).
    crashed: List[int]
    #: Nodes whose final record confirms a clean drain.
    clean_exits: int

    def cut_events(self) -> List[Dict[str, Any]]:
        return [r for r in self.police_records if r.get("kind") == "police.cut"]


class Supervisor:
    """Spawns, watches, drains, and reaps one node swarm.

    Split into :meth:`start` / :meth:`wait` / :meth:`shutdown` so tests
    can interfere mid-run (kill a node, interrupt the wait) and still
    observe the cleanup contract; :meth:`run` is the one-call wrapper
    with the ``finally``-guaranteed reap.
    """

    def __init__(self, case: Case, out_dir: Path) -> None:
        self.case = case
        self.n_nodes, self.num_agents = swarm_size(case)
        self.out_dir = Path(out_dir)
        self.processes: Dict[int, subprocess.Popen] = {}
        self.ports: List[int] = []
        self.agent_ids: Set[int] = set()
        self.crashed: List[int] = []
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

    def node_configs(self) -> List[NodeConfig]:
        """Plan the swarm: agents, ports, and one config per node.

        Builds the case's overlay, picks the agents deterministically from
        the seed and allocates the ports; spawns nothing.
        """
        case, live, n = self.case, self.case.live, self.n_nodes
        topology = generate_topology(topology_config(case, n))
        self.agent_ids = set(
            random.Random(derive_seed(case.seed, "agents")).sample(
                range(n), self.num_agents
            )
        )
        self.ports = allocate_udp_ports(n, host=live.host, base=live.port_base)
        addresses = {i: (live.host, self.ports[i]) for i in range(n)}
        return [
            NodeConfig(
                node_id=i,
                addresses=addresses,
                neighbors=tuple(sorted(topology.neighbors(i))),
                case=case,
                agent=i in self.agent_ids,
                stats_path=str(self.node_stats(i)),
                ready_file=str(self.node_ready(i)),
                start_file=str(self.start_file),
            )
            for i in range(n)
        ]

    def start(self) -> None:
        """Plan the swarm and spawn every node process, staggered."""
        if self.processes:
            raise ConfigError("swarm already started")
        case, live, n = self.case, self.case.live, self.n_nodes
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # Scrub artifacts from any previous swarm in this directory:
        # JSONL sinks append, so stale per-node stats would silently
        # merge two runs' records at collect() time.
        for stale in self.out_dir.glob("node-*.json*"):
            stale.unlink()
        for stale in self.out_dir.glob("node-*.ready"):
            stale.unlink()
        self.start_file.unlink(missing_ok=True)
        for node in self.node_configs():
            atomic_write_text(
                self.node_config(node.node_id),
                json.dumps(node.to_dict(), sort_keys=True),
            )

        env = dict(os.environ)
        pkg_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root if not existing else f"{pkg_root}{os.pathsep}{existing}"
        )
        for i in range(n):
            self.processes[i] = subprocess.Popen(
                [sys.executable, "-m", "repro.live.node",
                 "--config", str(self.node_config(i))],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if live.spawn_stagger_s > 0:
                time.sleep(live.spawn_stagger_s)

        # Startup barrier: wait for every node's ready marker (bound
        # socket, imports done), then publish the shared protocol t=0.
        # Guessing interpreter start-up time does not survive contact
        # with a loaded machine; the barrier makes minute windows align
        # regardless of how slowly a few hundred interpreters come up.
        ready_deadline = time.time() + 60.0 + 0.2 * n
        while time.time() < ready_deadline:
            waiting = [
                i for i in range(n)
                if not self.node_ready(i).exists()
                and self.processes[i].poll() is None
            ]
            if not waiting:
                break
            time.sleep(0.02)
        start_at = time.time() + max(0.5, 0.002 * n)
        atomic_write_text(self.start_file, json.dumps({"start_at": start_at}))
        self._deadline = (
            start_at + case.minutes * live.minute_s + live.drain_timeout_s + 30.0
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
        deadline = time.time() + self.case.live.drain_timeout_s
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
        for i in range(self.n_nodes):
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
            minute_records=minute_records,
            police_records=police_records,
            agent_ids=set(self.agent_ids),
            crashed=list(self.crashed),
            clean_exits=clean,
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

