"""Shared fixtures for the test suite."""

from typing import Dict, Optional, Set

import pytest

from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.topology import Topology, topology_from_adjacency
from repro.simkit.engine import Simulator


def make_topology(adjacency: Dict[int, Set[int]], n: Optional[int] = None) -> Topology:
    """Build a Topology from a (possibly partial) adjacency mapping."""
    return topology_from_adjacency(adjacency, n=n)


def make_network(
    adjacency: Dict[int, Set[int]],
    *,
    n: Optional[int] = None,
    seed: int = 0,
    config: Optional[NetworkConfig] = None,
    num_objects: int = 20,
):
    """(Simulator, OverlayNetwork) over an explicit small topology.

    Latency jitter is disabled so message orderings are exactly
    predictable in unit tests.
    """
    sim = Simulator()
    topo = make_topology(adjacency, n=n)
    cfg = config or NetworkConfig(hop_latency_jitter_s=0.0, seed=seed)
    content = ContentCatalog(ContentConfig(num_objects=num_objects, seed=seed), topo.n)
    net = OverlayNetwork(sim, topo, config=cfg, content=content)
    return sim, net


@pytest.fixture
def line_network():
    """0 - 1 - 2 - 3 line topology."""
    return make_network({0: {1}, 1: {2}, 2: {3}})


@pytest.fixture
def star_network():
    """Star: center 0 with leaves 1..4."""
    return make_network({0: {1, 2, 3, 4}})
