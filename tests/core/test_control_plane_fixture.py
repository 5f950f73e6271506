"""The message DES control plane against its frozen trajectory.

``fixtures/control_plane.json`` holds, for each case below, the event
count, every ``NetworkStats`` counter, each engine's control-plane
counters with its directory owners and held strikes, and the full
judgment log with ``repr`` floats. The perfbench seed-29 digest covers
none of the per-engine state, no event-driven run and no run in which a
strike is ever held; this file does. It was written by running this file
as a script on the commit *before* the control plane's per-message cost
was cut (canonical ``PeerId`` objects, copy-free list exchange, the
``observe_consistent`` / unchanged-list / single-claimer short-cuts), so
equality here is bit-identity with that implementation.

Regenerate only for an intended change of simulated behaviour::

    PYTHONPATH=src python tests/core/test_control_plane_fixture.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.core.police import deploy_ddpolice
from repro.faults.injector import FaultInjector
from repro.experiments.runner import DESConfig, _plant_agents
from repro.faults.plan import DuplicateRule, FaultPlan
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import PeerId
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator
from repro.simkit.rng import RngRegistry
from repro.workload.generator import QueryWorkload, WorkloadConfig

FIXTURE = Path(__file__).parent / "fixtures" / "control_plane.json"

N = 60
SEED = 11
DURATION_S = 130.0

#: name -> overrides of the default run (2 SILENT agents x 2,000 qpm from
#: t=0, BA m=1, TTL 3, jitter 0, default DDPoliceConfig). ``script`` is a
#: list of ``(time_s, "connect" | "disconnect" | "reconnect", u, v)``
#: membership changes applied between ``sim.run`` legs; ``"edge"`` picks
#: ``u``'s lowest-numbered neighbor at that moment, ``reconnect`` restores
#: the edge ``u`` lost last.
CASES = {
    "default": {},
    "event_driven": {
        "police": DDPoliceConfig(exchange_policy=ExchangePolicy.EVENT_DRIVEN),
        "script": [(20.0, "connect", 7, 41), (45.0, "disconnect", 7, 41)],
    },
    # Fabricated claims, two cut edges and one re-created: lists disagree
    # (strikes are held, some to the end, some past the tolerance), then
    # agree again (forgiven).
    "collude_relink": {
        "police": DDPoliceConfig(exchange_period_s=20.0, inconsistency_tolerance=2),
        "cheat": CheatStrategy.COLLUDE,
        "script": [
            (30.0, "disconnect", 3, "edge"),
            (50.0, "disconnect", 9, "edge"),
            (75.0, "reconnect", 3, "edge"),
        ],
    },
    # Jittered latency + lossy, duplicating control plane: reordered
    # lists (stale rejections), missed pongs (directory evictions).
    "jitter_loss": {
        "police": DDPoliceConfig(
            exchange_period_s=20.0, liveness_ping_period_s=20.0
        ),
        "jitter": 0.02,
        "faults": FaultPlan.control_loss(0.25).merged(
            FaultPlan(duplicate=(DuplicateRule(0.2, max_extra_delay_s=30.0),))
        ),
    },
}


def run_case(
    *,
    police=DDPoliceConfig(),
    cheat=CheatStrategy.SILENT,
    jitter=0.0,
    faults=None,
    script=(),
):
    rngs = RngRegistry(SEED)
    sim = Simulator()
    topo = generate_topology(TopologyConfig(n=N, ba_m=1, seed=SEED))
    net = OverlayNetwork(
        sim,
        topo,
        config=NetworkConfig(default_ttl=3, hop_latency_jitter_s=jitter, seed=SEED),
        content=ContentCatalog(ContentConfig(num_objects=100, seed=SEED), N),
        rng_registry=rngs,
    )
    agents = _plant_agents(
        sim,
        net,
        DESConfig(n=N, num_agents=2, attack_rate_qpm=2000.0, cheat_strategy=cheat),
        rngs.stream("attack"),
        None,
    )
    bad = set(agents)
    if faults is not None:
        FaultInjector(faults, rngs).attach(net, protected=tuple(sorted(bad)))
    engines = deploy_ddpolice(
        net, police, bad_peers=bad, bad_strategy=cheat, rng=rngs.stream("police")
    )
    QueryWorkload(
        sim, net, WorkloadConfig(queries_per_minute=2.0, seed=SEED),
        rng=rngs.stream("workload"),
    ).start()
    for agent in agents.values():
        agent.start()

    cut = {}
    for at_s, op, u, v in script:
        sim.run(until=at_s)
        a = PeerId(u)
        if op == "reconnect":
            net.connect(a, cut[u])
            continue
        b = min(net.peers[a].neighbors) if v == "edge" else PeerId(v)
        cut[u] = b
        (net.connect if op == "connect" else net.disconnect)(a, b)
    sim.run(until=DURATION_S)
    return sim, net, engines


def dump(**overrides) -> dict:
    sim, net, engines = run_case(**overrides)
    log = next(iter(engines.values())).judgments
    return {
        "events_fired": sim.events_fired,
        "stats": asdict(net.stats),
        "engines": [
            [
                e.lists_sent, e.pings_sent, e.pongs_received, e.reports_sent,
                e.stale_lists_rejected, e.disconnects_issued,
                sorted(o.value for o in e.directory.owners()),
                sorted(
                    [sorted(p.value for p in pair), strikes]
                    for pair, strikes in e.consistency._strikes.items()
                ),
            ]
            for e in engines.values()
        ],
        "judgments": [
            [repr(j.time), j.observer.value, j.suspect.value, repr(j.g_value),
             repr(j.s_value), j.disconnected, j.reason]
            for j in log.judgments
        ],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_control_plane_matches_frozen_trajectory(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = dump(**CASES[name])
    for key in ("events_fired", "stats", "judgments"):
        assert got[key] == expected[key], key
    for pid, (got_e, expected_e) in enumerate(zip(got["engines"], expected["engines"])):
        assert got_e == expected_e, f"engine of peer {pid}"
    assert len(got["engines"]) == len(expected["engines"]) == N


def test_fixture_exercises_the_short_cut_paths():
    """A fixture whose runs never hold a strike, never reject a list and
    never cut a peer would freeze nothing of the paths it guards."""
    frozen = json.loads(FIXTURE.read_text())
    assert set(frozen) == set(CASES)

    def column(name, i):
        return [e[i] for e in frozen[name]["engines"]]

    for name, case in frozen.items():
        assert sum(column(name, 0)) > N, name  # lists_sent
        assert any(j[5] for j in case["judgments"]), name  # somebody was cut
    assert any(column("collude_relink", 7))  # strikes held at the end
    assert any(j[6] == "inconsistent_list" for j in frozen["collude_relink"]["judgments"])
    assert sum(column("jitter_loss", 4)) > 0  # stale lists rejected
    assert frozen["jitter_loss"]["stats"]["messages_dropped_fault"] > 0
    assert min(len(owners) for owners in column("jitter_loss", 6)) < N - 1  # evictions


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {name: dump(**case) for name, case in CASES.items()},
            indent=0, separators=(",", ":"),
        ).replace(",\n", ",").replace("[\n", "[").replace("\n]", "]")
        + "\n"
    )
