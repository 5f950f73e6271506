#!/usr/bin/env python3
"""Quickstart: detect and expel an overlay DDoS agent with DD-POLICE.

Builds a small Gnutella-style overlay at the message level, lets a
compromised peer flood distinct bogus queries (the Figure 1 pattern),
and watches every neighbor convict it via buddy-group evidence.

Run:  python examples/quickstart.py
"""

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.core.police import deploy_ddpolice
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import PeerId
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator
from repro.workload.generator import QueryWorkload, WorkloadConfig


def main() -> None:
    # --- substrate: a 30-peer unstructured overlay ---------------------
    # ba_m=1 gives a tree: at this toy scale, cycles let the attacker's
    # distinct per-neighbor queries echo back into it and mask the
    # indicators (run `repro run ablation-echo` for the full story; at
    # the paper's scale congestion attenuates the echoes).
    sim = Simulator()
    topology = generate_topology(TopologyConfig(n=30, ba_m=1, seed=42))
    network = OverlayNetwork(
        sim,
        topology,
        config=NetworkConfig(seed=42),
        content=ContentCatalog(
            # densely replicated demo catalog so searches usually succeed
            ContentConfig(num_objects=50, replication_ratio=0.2,
                          replicas_max_fraction=0.3, seed=42),
            30,
        ),
    )

    # --- defense: DD-POLICE on every peer ------------------------------
    attacker = PeerId(0)
    engines = deploy_ddpolice(
        network,
        DDPoliceConfig(exchange_period_s=30.0),  # faster exchange for the demo
        bad_peers={attacker},
        bad_strategy=CheatStrategy.SILENT,
    )
    log = engines[PeerId(1)].judgments  # shared across all engines

    # --- workload: normal peers search at a human rate ------------------
    workload = QueryWorkload(
        sim, network, WorkloadConfig(queries_per_minute=2.0, seed=42)
    )
    workload.start()

    # --- attack: one compromised peer floods at max rate ---------------
    agent = DDoSAgent(
        sim,
        network,
        attacker,
        AgentConfig(nominal_rate_qpm=6000.0, per_neighbor=True),
    )
    agent.start()
    print(f"attacker {attacker.ipv4} starts flooding "
          f"{agent.config.effective_rate_qpm:.0f} bogus queries/min ...")

    sim.run(until=240.0)

    # --- outcome ---------------------------------------------------------
    detections = [
        j for j in log.disconnect_events() if j.suspect == attacker
    ]
    print(f"\nsimulated {sim.now:.0f}s, {network.stats.messages_delivered:,} "
          f"messages delivered")
    print(f"attack queries sent: {agent.queries_sent:,}")
    print(f"query success rate:  {100 * network.success_rate():.1f}%")
    if detections:
        first = min(detections, key=lambda j: j.time)
        print("\nDD-POLICE verdicts against the attacker:")
        for j in sorted(detections, key=lambda j: j.time):
            print(f"  t={j.time:6.1f}s  observer {j.observer.ipv4} "
                  f"g={j.g_value:7.1f} s={j.s_value:7.1f} -> disconnected")
        print(f"\nfirst detection {first.time:.1f}s after launch; "
              f"attacker now has {len(network.neighbors_of(attacker))} neighbors")
    else:
        print("attacker was not detected (try a longer run)")


if __name__ == "__main__":
    main()
