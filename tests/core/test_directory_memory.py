"""What the neighbor-list directories cost on the fixture's 60-peer run.

Every observer ends up holding every peer's list (the §3.1–3.2
confirmation exchange), so the directories are n² entries. They must
share each published list object and cost bytes per (observer, owner)
pair, not one container object per pair.
"""

import tracemalloc
from collections import Counter

import pytest

from repro.overlay.peer import Peer
from tests.core.test_control_plane_fixture import N, run_case

#: Live bytes allocated under ``core/exchange.py`` and ``core/police.py``
#: (two-frame tracebacks, so the ``ListSnapshot`` tuples built through
#: the namedtuple constructor count too) per directory pair, at the end
#: of the default case: about 530 B on CPython 3.11. A frozenset per
#: message and a set per reverse-index entry cost about 1,000 B.
MAX_BYTES_PER_PAIR = 650


@pytest.fixture(scope="module")
def default_run():
    versions = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("add_neighbor", "remove_neighbor", "go_offline"):
            mutator = getattr(Peer, name)

            def counted(self, *args, _mutator=mutator, **kwargs):
                versions[self.id] += 1
                return _mutator(self, *args, **kwargs)

            mp.setattr(Peer, name, counted)
        tracemalloc.start(2)
        try:
            _sim, _net, engines = run_case()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    under = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/core/exchange.py", all_frames=True),
        tracemalloc.Filter(True, "*/core/police.py", all_frames=True),
    ])
    live_bytes = sum(stat.size for stat in under.statistics("filename"))
    return engines, versions, live_bytes


def test_directories_share_the_published_list_objects(default_run):
    engines, versions, _ = default_run
    stored = {
        id(e.directory.known_neighbors(owner))
        for e in engines.values()
        for owner in e.directory.owners()
    }
    pairs = sum(len(e.directory.owners()) for e in engines.values())
    # A peer publishes at most one list per neighbor-set version: its
    # first, plus one after each mutation.
    assert pairs > N * N // 2  # most lists are confirmed
    assert len(stored) <= N + sum(versions.values())


def test_directory_bytes_per_pair(default_run):
    engines, _, live_bytes = default_run
    pairs = sum(len(e.directory.owners()) for e in engines.values())
    assert live_bytes / pairs <= MAX_BYTES_PER_PAIR, live_bytes / pairs
