#!/usr/bin/env python3
"""Section 3.4's cheating analysis, executed.

A compromised peer whose forwarders come under suspicion can answer the
buddy group's Neighbor_Traffic requests four ways: honestly, inflating,
deflating, or staying silent. The paper argues none of them helps it;
this example runs all four on the message-level overlay and prints what
happens to the attacker and to its innocent forwarders.

Run:  python examples/cheating_strategies.py
"""

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.core.police import deploy_ddpolice
from repro.experiments.reporting import render_table
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import PeerId
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.topology import Topology
from repro.simkit.engine import Simulator

# Attacker 0 with forwarders 1-3, each serving a small leaf subtree --
# a tree, so the attacker cannot hide behind query echoes.
ADJACENCY = {0: {1, 2, 3}, 1: {4, 5}, 2: {6, 7}, 3: {8, 9}}


def build_network(seed: int):
    n = 10
    adj = [set() for _ in range(n)]
    for u, vs in ADJACENCY.items():
        for v in vs:
            adj[u].add(v)
            adj[v].add(u)
    sim = Simulator()
    net = OverlayNetwork(
        sim,
        Topology(n=n, adjacency=adj, kind="tree"),
        config=NetworkConfig(hop_latency_jitter_s=0.0, seed=seed),
        content=ContentCatalog(ContentConfig(num_objects=20, seed=seed), n),
    )
    return sim, net


def run_strategy(strategy: CheatStrategy):
    sim, net = build_network(seed=1)
    attacker = PeerId(0)
    engines = deploy_ddpolice(
        net,
        DDPoliceConfig(exchange_period_s=30.0),
        bad_peers={attacker},
        bad_strategy=strategy,
    )
    agent = DDoSAgent(
        sim, net, attacker, AgentConfig(nominal_rate_qpm=3000.0)
    )
    agent.start()
    sim.run(until=240.0)
    log = engines[PeerId(1)].judgments
    cut = log.disconnected_suspects()
    first = log.first_disconnect_time(attacker)
    forwarders_cut = sorted(p.value for p in cut if p != attacker)
    return {
        "attacker cut": "yes" if attacker in cut else "no",
        "detected at (s)": f"{first:.0f}" if first is not None else "-",
        "forwarders wrongly cut": ",".join(map(str, forwarders_cut)) or "-",
        "attacker neighbors left": len(net.neighbors_of(attacker)),
    }


def main() -> None:
    rows = []
    for strategy in (
        CheatStrategy.HONEST,
        CheatStrategy.INFLATE,
        CheatStrategy.DEFLATE,
        CheatStrategy.SILENT,
    ):
        result = run_strategy(strategy)
        rows.append([strategy.value] + list(result.values()))
    print(render_table(
        ["strategy", "attacker cut", "detected at (s)",
         "forwarders wrongly cut", "attacker neighbors left"],
        rows,
        title="Section 3.4: cheating buys the attacker nothing",
    ))
    print(
        "\nNote the deflate/silent rows: lying gets the *forwarders* cut too,"
        "\nwhich isolates the attack -- 'not what peer j wants to achieve'."
    )


if __name__ == "__main__":
    main()
