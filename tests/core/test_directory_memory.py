"""What the per-peer tables of the fixture's 60-peer ddpolice run cost.

Every observer ends up holding every peer's list (the §3.1–3.2
confirmation exchange), so the directories are n² entries. They must
share each published list object and cost bytes per (observer, owner)
pair, not one container object per pair. Every peer remembers every
query GUID it saw, with the neighbor it came from: one table entry per
GUID, not a seen cache plus a route table.
"""

import tracemalloc
from collections import Counter

import pytest

from repro.overlay.peer import Peer
from tests.core.test_control_plane_fixture import N, run_case

#: Live bytes allocated under ``core/exchange.py`` and ``core/police.py``
#: (two-frame tracebacks, so the ``ListSnapshot`` tuples built through
#: the namedtuple constructor count too) per directory pair, at the end
#: of the default case: 490 B on CPython 3.11. A frozenset per message
#: and a set per reverse-index entry cost about 1,000 B, and a separate
#: owner -> insertion-rank dict 524 B.
MAX_BYTES_PER_PAIR = 505

#: Live bytes allocated under ``overlay/peer.py`` and ``evidence/dedup.py``
#: per GUID held in a peer's table, at the end of the same run: 88 B on
#: CPython 3.11, where a seen cache plus a separate reverse-route table
#: cost 162 B.
MAX_BYTES_PER_GUID = 110


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
            _sim, net, engines = run_case()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

    def live_bytes(*files):
        under = snapshot.filter_traces(
            [tracemalloc.Filter(True, f"*/{name}", all_frames=True) for name in files]
        )
        return sum(stat.size for stat in under.statistics("filename"))

    pairs = sum(len(e.directory.owners()) for e in engines.values())
    guids = sum(len(peer._seen) for peer in net.peers.values())
    return engines, versions, {
        "per_pair": live_bytes("core/exchange.py", "core/police.py") / pairs,
        "per_guid": live_bytes("overlay/peer.py", "evidence/dedup.py") / guids,
    }


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
    _, _, live = default_run
    assert live["per_pair"] <= MAX_BYTES_PER_PAIR, live["per_pair"]


def test_guid_table_bytes_per_seen_guid(default_run):
    _, _, live = default_run
    assert live["per_guid"] <= MAX_BYTES_PER_GUID, live["per_guid"]
