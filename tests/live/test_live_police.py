"""Wall-clock DD-POLICE drive: a flooder is warned, convicted, and cut.

Runs real :class:`repro.live.node.LiveNode` instances -- the unmodified
:class:`repro.core.police.DDPoliceEngine` on top of the LiveClock
adapter -- inside one asyncio loop over real loopback UDP sockets, with
heavily compressed minutes (0.5 s). One leaf of a BA tree floods its
neighborhood; the evidence arc must appear in the traces: a
``police.suspect`` warning, a ``police.decision``, and a ``police.cut``
of the flooder.

All nodes share one protocol t=0 (via :meth:`LiveNode.rebase`, exactly
like the supervised startup barrier): DD-POLICE evidence compares
*same-minute* counters across peers, so skewed minute windows would let
a member testify with stale pre-attack numbers.
"""

import asyncio
import random
import time

from repro.core.config import DDPoliceConfig
from repro.experiments.spec import Case, WorkloadSpec, topology_config
from repro.live.node import LiveNode, NodeConfig
from repro.live.ports import bind_udp_socket
from repro.live.spec import LiveSpec
from repro.obs.trace import JsonlSink, Tracer, iter_records, validate_record
from repro.overlay.topology import generate_topology
from repro.simkit.rng import derive_seed

N = 10
SEED = 7
MINUTE_S = 0.5
MINUTES = 8
ATTACK_START_MIN = 1


def flooder_id():
    return random.Random(derive_seed(SEED, "agents")).sample(range(N), 1)[0]


async def run_nodes_in_process(tmp_path, *, defense):
    case = Case(
        n=N,
        minutes=MINUTES,
        seed=SEED,
        num_agents=1,
        attack_start_min=ATTACK_START_MIN,
        defense=defense,
        police=DDPoliceConfig(exchange_period_s=30.0, q_threshold_qpm=10.0),
        workload=WorkloadSpec(
            queries_per_minute=6.0,
            attack_rate_qpm=2000.0,
            capacity_qpm=400.0,
            cheat_strategy="honest",
        ),
        ba_m=1,
        live=LiveSpec(n_nodes=N, minute_s=MINUTE_S),
    )
    topology = generate_topology(topology_config(case, N))
    agent = flooder_id()
    socks = [bind_udp_socket("127.0.0.1", 0) for _ in range(N)]
    for sock in socks:
        sock.setblocking(False)
    addresses = {i: ("127.0.0.1", socks[i].getsockname()[1]) for i in range(N)}

    loop = asyncio.get_running_loop()
    nodes = []
    for i in range(N):
        config = NodeConfig(
            node_id=i,
            addresses=addresses,
            neighbors=tuple(sorted(topology.neighbors(i))),
            case=case,
            agent=(i == agent),
            stats_path=str(tmp_path / f"node-{i}.jsonl"),
        )
        tracer = Tracer(sinks=[JsonlSink(config.stats_path)], run="police-live")
        node = LiveNode(config, loop, tracer=tracer)
        await loop.create_datagram_endpoint(lambda n=node: n, sock=socks[i])
        nodes.append(node)
    start_at = time.time() + 0.1
    for node in nodes:
        node.rebase(start_at)
    for node in nodes:
        node.start()
    await asyncio.wait_for(
        asyncio.gather(*(n.done.wait() for n in nodes)),
        timeout=60.0,
    )
    return agent


def collect_events(tmp_path, n=N):
    events = []
    for i in range(n):
        for record in iter_records(tmp_path / f"node-{i}.jsonl"):
            validate_record(record)
            events.append(record)
    return events


def test_flooder_is_warned_convicted_and_cut(tmp_path):
    flooder = asyncio.run(run_nodes_in_process(tmp_path, defense="ddpolice"))
    events = collect_events(tmp_path)
    kinds = {e["kind"] for e in events}

    suspects = [e for e in events if e["kind"] == "police.suspect"]
    assert suspects, f"no warning was ever raised (kinds seen: {sorted(kinds)})"
    assert any(e["suspect"] == flooder for e in suspects)

    assert any(e["kind"] == "police.decision" for e in events), (
        "the flooder was suspected but never judged"
    )

    cuts = [e for e in events if e["kind"] == "police.cut"]
    assert any(e["suspect"] == flooder for e in cuts), (
        f"the flooder ({flooder}) was never cut; cuts: "
        f"{[(e['observer'], e['suspect']) for e in cuts]}"
    )

    first_cut = min(e["t"] for e in cuts if e["suspect"] == flooder)
    assert first_cut >= ATTACK_START_MIN * 60.0, "cut before the attack started"
    assert first_cut < MINUTES * 60.0

    # Every node drained cleanly at the end of the scenario.
    finals = [e for e in events if e["kind"] == "live.final"]
    assert len(finals) == N
    assert all(e["clean"] == 1 for e in finals)


def test_no_defense_means_no_police_events(tmp_path):
    asyncio.run(run_nodes_in_process(tmp_path, defense="none"))
    events = collect_events(tmp_path)
    assert events
    assert not any(e["kind"].startswith("police.") for e in events)
    finals = [e for e in events if e["kind"] == "live.final"]
    assert len(finals) == N
    assert all(e["clean"] == 1 for e in finals)
