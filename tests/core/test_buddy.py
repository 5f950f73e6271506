"""Unit tests for buddy groups (Section 3.1, Figure 7)."""

import pytest

from repro.core.buddy import buddy_group_of
from repro.errors import ConfigError


def neighbors_oracle(adjacency):
    return lambda p: adjacency.get(p, set())


def test_bg1_is_direct_neighbors():
    """Figure 7: BG1-j = {A, B, C, D}, the direct neighbors of j."""
    adjacency = {"j": {"A", "B", "C", "D"}}
    group = buddy_group_of("j", neighbors_oracle(adjacency))
    assert group == frozenset({"A", "B", "C", "D"})


def test_bg2_extends_one_more_hop():
    adjacency = {
        "j": {"A", "B"},
        "A": {"j", "x"},
        "B": {"j", "y"},
    }
    group = buddy_group_of("j", neighbors_oracle(adjacency), radius=2)
    assert group == frozenset({"A", "B", "x", "y"})


def test_bgr_never_contains_suspect():
    adjacency = {"j": {"A"}, "A": {"j"}}
    group = buddy_group_of("j", neighbors_oracle(adjacency), radius=3)
    assert "j" not in group


def test_radius_validation():
    with pytest.raises(ConfigError):
        buddy_group_of("j", lambda p: set(), radius=0)


def test_empty_oracle_gives_empty_group():
    group = buddy_group_of("j", lambda p: set())
    assert group == frozenset()
