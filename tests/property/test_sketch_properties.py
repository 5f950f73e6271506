"""Property-based tests for the sketch evidence primitives.

Three guarantees the pluggable evidence layer leans on:

* count-min never undercounts (a true attacker edge can never be
  hidden by switching the traffic store to a sketch), and conservative
  update keeps the overcount within the classic epsilon*N bound for a
  suitably sized width;
* the rotating Bloom filter never reports a false negative for any of
  the last ``capacity`` inserts (switching the dedup caches to Bloom
  can re-process an old query, never drop a fresh one);
* the exact strategies are behavior-identical to the pre-refactor
  inline implementations (frozen here as oracles), which is what keeps
  every committed results table byte-identical under the default
  ``evidence_backend="exact"``.
"""

import math
from collections import OrderedDict, deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evidence import (
    CountMinSketch,
    EvidenceConfig,
    ExactDedupWindow,
    ExactSeenCache,
    ExactTrafficStore,
    RotatingBloom,
    make_traffic_store,
)

# ---------------------------------------------------------------------------
# count-min
# ---------------------------------------------------------------------------

KEYS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=50)),
    min_size=1,
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(adds=KEYS, width=st.integers(min_value=1, max_value=64), depth=st.integers(min_value=1, max_value=4))
def test_count_min_never_undercounts(adds, width, depth):
    cm = CountMinSketch(width=width, depth=depth)
    true = {}
    for key, count in adds:
        cm.add(key, count)
        true[key] = true.get(key, 0) + count
    for key, expected in true.items():
        assert cm.estimate(key) >= expected
    # keys never added still estimate at most the total mass
    assert cm.estimate("never-added") <= cm.total


@settings(max_examples=25, deadline=None)
@given(adds=KEYS, seed=st.integers(min_value=0, max_value=100))
def test_count_min_epsilon_bound(adds, seed):
    """Conservative update stays within the epsilon*N overcount bound.

    With width w = ceil(e / eps) the classic analysis bounds the
    overcount of any key by eps * N (N = total mass) with probability
    1 - (1/e)^depth per key; conservative update only tightens it.
    Rather than assert a probabilistic bound exactly, size the sketch
    for eps = 0.25 with depth 4 and allow at most one of the (<= 41)
    tracked keys to exceed it -- a deterministic regression test at
    fixed structure, far below the tolerance a real violation of the
    bound would produce.
    """
    eps = 0.25
    cm = CountMinSketch(width=math.ceil(math.e / eps), depth=4, seed=seed)
    true = {}
    for key, count in adds:
        cm.add(key, count)
        true[key] = true.get(key, 0) + count
    allowed = eps * cm.total
    violations = sum(
        1 for key, expected in true.items() if cm.estimate(key) - expected > allowed
    )
    assert violations <= 1


def test_count_min_clear_resets():
    cm = CountMinSketch(width=8, depth=2)
    cm.add("a", 5)
    cm.clear()
    assert cm.estimate("a") == 0
    assert cm.total == 0


# ---------------------------------------------------------------------------
# rotating Bloom
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
    capacity=st.integers(min_value=1, max_value=64),
)
def test_rotating_bloom_no_false_negative_in_window(keys, capacity):
    bloom = RotatingBloom(bits=256, hashes=3, capacity=capacity)
    for i, key in enumerate(keys):
        bloom.add(key)
        # every one of the last `capacity` inserts must still be visible
        for recent in keys[max(0, i + 1 - capacity):i + 1]:
            assert recent in bloom
    bloom.clear()
    assert keys[0] not in bloom


def test_rotating_bloom_rotation_forgets_eventually():
    bloom = RotatingBloom(bits=1 << 14, hashes=4, capacity=4)
    bloom.add(b"old")
    # two full generations of later inserts push "old" out
    for i in range(8):
        bloom.add(i)
    assert b"old" not in bloom


# ---------------------------------------------------------------------------
# exact strategies == frozen pre-refactor oracles
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# sketch traffic store: no attacker hidden
# ---------------------------------------------------------------------------

#: A minute recorded, left, and revisited: the sketch store used to
#: append a second, empty frame for minute 0 and answer from it.
REVISITED_MINUTE = [(0, {}, {"a": 2}), (1, {}, {}), (0, {}, {})]


@settings(max_examples=30, deadline=None)
@given(ops=WINDOW_OPS, threshold=st.integers(min_value=1, max_value=800))
@example(ops=REVISITED_MINUTE, threshold=1)
def test_sketch_store_suspects_superset_of_exact(ops, threshold):
    """Count-min overestimates only: every exact suspect is a sketch
    suspect (narrow widths may add extras -- the documented tradeoff).

    History exceeds the op count so no frame ages out mid-sequence (the
    sketch ring drops idle neighbors earlier than the exact store --
    documented, and it only ever clears suspicion, but it would make
    this containment check vacuous).
    """
    exact = make_traffic_store(EvidenceConfig(backend="exact"), history_minutes=50)
    sketch = make_traffic_store(
        EvidenceConfig(backend="sketch", cm_width=16, cm_depth=2), history_minutes=50
    )
    for minute, out_counts, in_counts in ops:
        exact.record_window(minute, out_counts, in_counts)
        sketch.record_window(minute, out_counts, in_counts)
    exact_suspects = set(exact.suspicious_neighbors(float(threshold)))
    sketch_suspects = set(sketch.suspicious_neighbors(float(threshold)))
    assert exact_suspects <= sketch_suspects


def test_sketch_store_reuses_the_frame_of_a_revisited_minute():
    store = make_traffic_store(
        EvidenceConfig(backend="sketch", cm_width=16, cm_depth=2), history_minutes=50
    )
    for minute, out_counts, in_counts in REVISITED_MINUTE:
        store.record_window(minute, out_counts, in_counts)
    assert len(store._frames) == 2
    assert store.suspicious_neighbors(1.0) == ["a"]
