"""Unit tests for fluid-mode DD-POLICE detection."""

import random

import numpy as np
import pytest

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.errors import ConfigError
from repro.fluid.graphstate import FluidChurnConfig, GraphState
from repro.fluid.police import FluidNaiveCutoff, FluidPolice
from tests.fluid.conftest import edge_rates, police_step


def star_state(k=4):
    """Suspect 0 with k fresh neighbors; snapshots accurate."""
    adj = {0: set(range(1, k + 1))}
    for i in range(1, k + 1):
        adj[i] = {0}
    return GraphState(
        k + 1, adj, churn=FluidChurnConfig(enabled=False), rng=random.Random(1)
    )


def attack_flows(state, rate_per_edge):
    """Suspect 0 floods each neighbor; neighbors send a trickle back."""
    flows = {}
    for nb in state.adjacency[0]:
        flows[(0, nb)] = rate_per_edge
        flows[(nb, 0)] = 10.0
    return flows


def make_police(ct=5.0, bad=frozenset({0}), strategy=CheatStrategy.SILENT):
    return FluidPolice(
        DDPoliceConfig().with_cut_threshold(ct),
        set(bad),
        cheat_strategy=strategy,
    )


def test_flooding_suspect_convicted_and_expelled():
    state = star_state()
    police = make_police()
    cut = police_step(police, state, attack_flows(state, 2000.0))
    assert cut == 4  # every neighbor cut its edge
    assert state.adjacency[0] == set()
    assert not state.online[0]  # fully isolated -> expelled
    assert police.stats.peers_expelled == 1
    assert 0 in police.judgments.disconnected_suspects()


def test_below_warning_not_investigated():
    state = star_state()
    police = make_police()
    cut = police_step(police, state, attack_flows(state, 400.0))
    assert cut == 0
    assert police.stats.investigations == 0


def test_good_forwarder_cleared_with_full_reports():
    """A hub forwarding one heavy stream is exonerated when the inflow is
    visible to the group (the Figure 1 '50 queries/min but good' point).

    Node 1 pushes 900/min into hub 0, which fans it out to 2, 3, 4. The
    hub's buddy group sees matching inflow and clears it. (Node 1 itself
    is a genuine issuer here and is legitimately convicted -- only the
    hub's verdict is under test.)
    """
    state = star_state(k=4)
    flows = {(1, 0): 900.0, (0, 1): 5.0}
    for nb in (2, 3, 4):
        flows[(0, nb)] = 870.0  # forwarded with slight losses
        flows[(nb, 0)] = 5.0
    police = make_police(bad=frozenset())
    police_step(police, state, flows)
    assert 0 not in police.judgments.disconnected_suspects()


def test_stale_membership_inflates_indicator():
    """A heavy sender missing from the published list makes a good
    forwarder look like an issuer -- the Section 3.1 misjudgment."""
    state = star_state(k=4)
    # node 4 joined recently: remove it from 0's published snapshot
    state.snapshots[0] = frozenset({1, 2, 3})
    flows = {}
    for nb in (1, 2, 3):
        flows[(nb, 0)] = 100.0
        flows[(0, nb)] = 2000.0
    flows[(4, 0)] = 5800.0  # the invisible inflow
    flows[(0, 4)] = 300.0
    police = make_police(bad=frozenset())
    cut = police_step(police, state, flows)
    assert cut >= 1
    assert 0 in police.judgments.disconnected_suspects()


def test_cheat_deflate_can_shield_attacker():
    """Bad buddy deflating its outgoing count shifts blame: the group
    sees less inflow to the suspect (Section 3.4 case 2)."""
    state = star_state(k=3)
    # suspect 1 (good) forwards attacker 0's flood onward
    state.online[:] = True
    adj = {0: {1}, 1: {0, 2, 3}, 2: {1}, 3: {1}}
    state = GraphState(4, adj, churn=FluidChurnConfig(enabled=False),
                       rng=random.Random(3))
    flows = {
        (0, 1): 4000.0, (1, 0): 5.0,
        (1, 2): 2000.0, (2, 1): 5.0,
        (1, 3): 2000.0, (3, 1): 5.0,
    }
    honest = FluidPolice(DDPoliceConfig(), {0}, cheat_strategy=CheatStrategy.HONEST)
    police_step(honest, state, flows)
    assert 1 not in honest.judgments.disconnected_suspects()

    state2 = GraphState(4, adj, churn=FluidChurnConfig(enabled=False),
                        rng=random.Random(5))
    silent = FluidPolice(DDPoliceConfig(), {0}, cheat_strategy=CheatStrategy.SILENT)
    police_step(silent, state2, flows)
    # with the attacker silent, the good forwarder is wrongly cut
    assert 1 in silent.judgments.disconnected_suspects()


def test_offline_member_assumed_zero():
    state = star_state(k=4)
    state.online[4] = False
    state.disconnect_all(4)
    police = make_police(bad=frozenset())
    flows = {}
    for nb in (1, 2, 3):
        flows[(nb, 0)] = 10.0
        flows[(0, nb)] = 900.0
    cut = police_step(police, state, flows)
    # the group still judges with member 4 assumed (0,0)
    assert police.stats.investigations == 1
    assert cut >= 1  # outflow unexplained -> convicted


def test_bad_observers_do_not_police():
    state = star_state(k=2)
    police = FluidPolice(DDPoliceConfig(), {0, 1, 2})
    cut = police_step(police, state, attack_flows(state, 5000.0))
    assert cut == 0


def test_traffic_message_accounting():
    state = star_state(k=4)
    police = make_police(strategy=CheatStrategy.HONEST)
    police_step(police, state, attack_flows(state, 2000.0))
    assert police.stats.traffic_messages > 0


def test_naive_cutoff_cuts_any_heavy_edge():
    state = star_state(k=3)
    naive = FluidNaiveCutoff(500.0, {0})
    flows = attack_flows(state, 2000.0)
    cut = naive.step(1.0, state, edge_rates(state, flows))
    assert cut == 3
    assert not state.online[0]


def test_naive_cutoff_validation():
    with pytest.raises(Exception):
        FluidNaiveCutoff(0.0, set())


def test_misaligned_arrays_are_rejected():
    """The dict interface tolerated any key set; arrays must line up with
    ``state.edge_arrays()`` or the round refuses to run."""
    state = star_state()
    rates = edge_rates(state, attack_flows(state, 2000.0))
    police = make_police()
    with pytest.raises(ConfigError, match="does not match the 8 directed edges"):
        police.step(1.0, state, rates[:-1], rates[:-1])
    with pytest.raises(ConfigError, match="does not match"):
        police.step(1.0, state, rates, rates[:-1])
    with pytest.raises(ConfigError, match="does not match"):
        FluidNaiveCutoff(500.0, {0}).step(1.0, state, np.append(rates, 0.0))
    assert police.stats.investigations == 0 and state.degree(0) == 4


def test_stale_arrays_after_an_edge_mutation_are_rejected():
    state = star_state()
    rates = edge_rates(state, attack_flows(state, 2000.0))
    version = state.topology_version
    state.remove_edge(0, 4)
    assert state.topology_version > version
    with pytest.raises(ConfigError, match="does not match the 6 directed edges"):
        make_police().step(1.0, state, rates, rates)
    with pytest.raises(ConfigError, match="does not match the 6 directed edges"):
        FluidNaiveCutoff(500.0, {0}).step(1.0, state, rates)
