"""Property-based tests for the evidence stores.

The three stores in :mod:`repro.evidence` are behavior-identical to the
pre-refactor inline implementations (frozen here as oracles), which is
what keeps every committed results table byte-identical.
"""

from collections import OrderedDict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evidence.dedup import ExactDedupWindow, ExactSeenCache
from repro.evidence.store import ExactTrafficStore

WINDOW_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # minute
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=800),
            max_size=4,
        ),
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=800),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=20,
)


class _OracleMonitor:
    """The pre-refactor TrafficMonitor internals, frozen verbatim."""

    def __init__(self, history_minutes=10):
        self.history_minutes = history_minutes
        self._hist = {}

    def record_window(self, minute, out_counts, in_counts):
        for key in set(out_counts) | set(in_counts):
            dq = self._hist.setdefault(key, deque(maxlen=self.history_minutes))
            dq.append((minute, out_counts.get(key, 0), in_counts.get(key, 0)))

    def latest(self, key):
        dq = self._hist.get(key)
        return dq[-1] if dq else None

    def suspicious(self, threshold):
        out = []
        for key, dq in self._hist.items():
            if dq and dq[-1][2] > threshold:
                out.append(key)
        return sorted(out, key=str)


@settings(max_examples=40, deadline=None)
@given(ops=WINDOW_OPS, threshold=st.integers(min_value=0, max_value=800))
def test_exact_store_matches_pre_refactor_monitor(ops, threshold):
    store = ExactTrafficStore(history_minutes=3)
    oracle = _OracleMonitor(history_minutes=3)
    for minute, out_counts, in_counts in ops:
        store.record_window(minute, out_counts, in_counts)
        oracle.record_window(minute, out_counts, in_counts)
    for key in ["a", "b", "c", "d", "ghost"]:
        got = store.latest(key)
        want = oracle.latest(key)
        if want is None:
            assert got is None
            assert store.report_pair(key) == (0, 0)
        else:
            assert (got.minute, got.out_queries, got.in_queries) == want
            assert store.report_pair(key) == (want[1], want[2])
        assert len(store.history(key)) <= 3
    assert sorted(store.suspicious_neighbors(float(threshold) or 0.5), key=str) == (
        oracle.suspicious(float(threshold) or 0.5)
    )


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=80),
    limit=st.integers(min_value=1, max_value=10),
)
def test_exact_seen_cache_matches_ordereddict_lru(keys, limit):
    cache = ExactSeenCache(limit=limit)
    oracle = OrderedDict()
    for key in keys:
        assert (key in cache) == (key in oracle)
        cache.add(key)
        oracle[key] = True
        while len(oracle) > limit:
            oracle.popitem(last=False)
        assert len(cache) == len(oracle)
        assert all(k in cache for k in oracle)


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["x", "y", "z"]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    window=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_exact_dedup_window_matches_timestamp_dict(events, window):
    dedup = ExactDedupWindow(window_s=window)
    oracle = {}
    for key, now in sorted(events, key=lambda e: e[1]):
        last = oracle.get(key)
        want = last is None or now - last >= window
        assert dedup.should_send(key, now) == want
        if want:
            dedup.record(key, now)
            oracle[key] = now
