"""Tests for the DD-POLICE-r (r > 1) extension.

Section 3.5 motivates generalizing buddy groups beyond direct neighbors.
The concrete failure of r = 1 is *collusion*: a compromised buddy can
inflate its "queries sent to the suspect" report so the suspect's flood
looks like forwarding. With r = 2 the group cross-validates members
against their own buddy groups and discards reports from members that
are themselves under suspicion.
"""

import random

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.fluid.graphstate import FluidChurnConfig, GraphState
from repro.fluid.police import FluidPolice
from tests.fluid.conftest import police_step


def collusion_state():
    """Attacker 0 shielded by accomplice 1; honest observers 2, 3;
    peer 4 observes the accomplice's own flooding."""
    adj = {0: {1, 2, 3}, 1: {0, 4}, 2: {0}, 3: {0}, 4: {1}}
    return GraphState(5, adj, churn=FluidChurnConfig(enabled=False),
                      rng=random.Random(1))


def collusion_flows():
    return {
        # attacker 0 floods its neighbors
        (0, 1): 2000.0, (0, 2): 2000.0, (0, 3): 2000.0,
        # honest trickle into the attacker
        (2, 0): 10.0, (3, 0): 10.0,
        # accomplice really sends 300/min into 0 (will inflate x10)
        (1, 0): 300.0,
        # the accomplice is itself flooding peer 4 -> it is a suspect too
        (1, 4): 600.0, (4, 1): 5.0,
    }


def make_police(radius):
    cfg = DDPoliceConfig(radius=radius)
    return FluidPolice(
        cfg,
        {0, 1},
        cheat_strategy=CheatStrategy.INFLATE,
    )


def test_r1_collusion_shields_the_attacker():
    state = collusion_state()
    police = make_police(radius=1)
    police_step(police, state, collusion_flows())
    # the inflated report explains the flood away: 0 keeps all edges
    assert 0 not in police.judgments.disconnected_suspects()


def test_r2_cross_validation_defeats_collusion():
    state = collusion_state()
    police = make_police(radius=2)
    police_step(police, state, collusion_flows())
    assert 0 in police.judgments.disconnected_suspects()


def test_r2_does_not_break_honest_detection():
    """With honest reporters, r = 2 must still convict a plain attacker."""
    adj = {0: {1, 2, 3}}
    for i in (1, 2, 3):
        adj[i] = {0}
    state = GraphState(4, adj, churn=FluidChurnConfig(enabled=False),
                       rng=random.Random(3))
    police = FluidPolice(
        DDPoliceConfig(radius=2), {0},
        cheat_strategy=CheatStrategy.HONEST,
    )
    flows = {}
    for nb in (1, 2, 3):
        flows[(0, nb)] = 2000.0
        flows[(nb, 0)] = 10.0
    police_step(police, state, flows)
    assert 0 in police.judgments.disconnected_suspects()
