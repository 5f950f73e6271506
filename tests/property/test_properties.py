"""Property-based tests (hypothesis) on core invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indicators import (
    NeighborReport,
    general_indicator,
    indicators_from_reports,
    indicators_from_totals,
    single_indicator,
)
from repro.core.wire import (
    decode_neighbor_list,
    decode_neighbor_traffic,
    encode_neighbor_list,
    encode_neighbor_traffic,
)
from repro.fluid.coverage import expected_coverage, novelty_schedule
from repro.metrics.damage import damage_rate
from repro.overlay.capacity import TokenBucket
from repro.overlay.ids import Guid, PeerId
from repro.overlay.message import NeighborListMessage, NeighborTrafficMessage
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator

# ---------------------------------------------------------------------------
# Indicators
# ---------------------------------------------------------------------------

counts = st.integers(min_value=0, max_value=1_000_000)


@given(
    q0=counts,
    inflows=st.lists(counts, min_size=1, max_size=10),
    q=st.floats(min_value=0.5, max_value=1000),
)
def test_faithful_forwarder_indicator_equals_issue_rate(q0, inflows, q):
    """For a lossless forwarder the Figure 2 identity g = s = q0/q holds
    for any neighbor count and any traffic mix."""
    total = sum(inflows)
    sent = [q0 + (total - x) for x in inflows]
    g = general_indicator(sent, inflows, q)
    assert g == pytest.approx(q0 / q, rel=1e-9, abs=1e-9)
    s = single_indicator(sent[0], inflows[1:], q)
    assert s == pytest.approx(q0 / q, rel=1e-9, abs=1e-9)


@given(
    inflows=st.lists(counts, min_size=1, max_size=8),
    loss=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.5, max_value=1000),
)
def test_lossy_forwarder_never_positive(inflows, loss, q):
    """Dropping traffic can only lower the indicators -- a good peer that
    forwards less than it receives is never blamed."""
    total = sum(inflows)
    sent = [(total - x) * (1.0 - loss) for x in inflows]
    g = general_indicator(sent, inflows, q)
    assert g <= 1e-6


@given(
    reports=st.dictionaries(
        st.integers(min_value=2, max_value=20),
        st.tuples(counts, counts),
        min_size=1,
        max_size=8,
    ),
    own=st.tuples(counts, counts),
    q=st.floats(min_value=0.5, max_value=100),
)
def test_missing_reports_never_help_the_suspect(reports, own, q):
    """Replacing any report with silence (0,0) cannot decrease g:
    assume-zero is always adversarial to the suspect."""
    full = {
        m: NeighborReport(member=m, outgoing=o, incoming=i)
        for m, (o, i) in reports.items()
    }
    g_full, _ = indicators_from_reports(1, own[0], own[1], full, q)
    some_member = next(iter(full))
    partial = dict(full)
    partial[some_member] = None
    g_partial, _ = indicators_from_reports(1, own[0], own[1], partial, q)
    inc = full[some_member].incoming
    out = full[some_member].outgoing
    # g changes by (k-1)*out/qk - inc/qk; silence only helps j if the
    # member was mostly *sending into* j
    k = len(full) + 1
    expected_delta = ((k - 1) * out - inc) / (q * k)
    assert g_partial - g_full == pytest.approx(expected_delta, rel=1e-6, abs=1e-6)


@given(
    members=st.dictionaries(
        st.integers(min_value=1, max_value=12),
        st.none() | st.tuples(counts, counts),
        max_size=10,
    ),
    observer=st.integers(min_value=1, max_value=12),
    own=st.tuples(counts, counts),
    q=st.floats(min_value=0.5, max_value=1000),
)
def test_totals_form_equals_the_list_definitions(members, observer, own, q):
    """Reducing a buddy group to (k, sum out, sum in) once and correcting
    for the observer's own report gives *the same floats* as Definitions
    2.1/2.2 over the explicit per-member lists -- for silent members, an
    observer inside or outside the member set, and the k = 1 group."""
    own_out, own_in = own
    # One pass over every report, as a police round does per suspect ...
    k = len(members)
    total_out = sum(r[0] for r in members.values() if r is not None)
    total_in = sum(r[1] for r in members.values() if r is not None)
    # ... then O(1) per observer: its own true counts stand in for
    # whatever it reported (or join the group if it was not listed).
    reported = members.get(observer) or (0, 0)
    if observer not in members:
        k += 1
    g, s = indicators_from_totals(
        k,
        total_in - reported[1] + own_in,
        total_out - reported[0] + own_out,
        own_out,
        own_in,
        q,
    )
    others = [r or (0, 0) for m, r in sorted(members.items()) if m != observer]
    assert g == general_indicator(
        [own_in] + [r[1] for r in others], [own_out] + [r[0] for r in others], q
    )
    assert s == single_indicator(own_in, [r[0] for r in others], q)
    reports = {
        m: r and NeighborReport(member=m, outgoing=r[0], incoming=r[1])
        for m, r in members.items()
        if m != observer
    }
    assert (g, s) == indicators_from_reports(observer, own_out, own_in, reports, q)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

peer_ids = st.integers(min_value=0, max_value=2**24 - 1).map(PeerId)
guids = st.binary(min_size=16, max_size=16).map(Guid)


@given(
    guid=guids,
    source=peer_ids,
    suspect=peer_ids,
    ts=st.integers(min_value=0, max_value=2**32 - 1),
    out=st.integers(min_value=0, max_value=2**32 - 1),
    inc=st.integers(min_value=0, max_value=2**32 - 1),
    ttl=st.integers(min_value=0, max_value=255),
    hops=st.integers(min_value=0, max_value=255),
)
def test_neighbor_traffic_roundtrip_property(guid, source, suspect, ts, out, inc, ttl, hops):
    msg = NeighborTrafficMessage(
        guid=guid, ttl=ttl, hops=hops, source=source, suspect=suspect,
        timestamp=ts, outgoing_queries=out, incoming_queries=inc,
    )
    decoded = decode_neighbor_traffic(encode_neighbor_traffic(msg))
    assert (decoded.source, decoded.suspect) == (source, suspect)
    assert (decoded.timestamp, decoded.outgoing_queries, decoded.incoming_queries) == (ts, out, inc)
    assert (decoded.ttl, decoded.hops) == (ttl, hops)
    assert decoded.guid == guid


@given(
    guid=guids,
    sender=peer_ids,
    neighbors=st.frozensets(peer_ids, max_size=30),
)
def test_neighbor_list_roundtrip_property(guid, sender, neighbors):
    msg = NeighborListMessage(
        guid=guid, ttl=1, hops=0, sender=sender, neighbors=neighbors
    )
    decoded = decode_neighbor_list(encode_neighbor_list(msg))
    assert decoded.sender == sender
    assert decoded.neighbors == neighbors


_keyword = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


@given(
    guid=guids,
    keywords=st.lists(_keyword, max_size=6),
    min_speed=st.integers(min_value=0, max_value=0xFFFF),
    ttl=st.integers(min_value=0, max_value=255),
)
def test_query_wire_roundtrip_property(guid, keywords, min_speed, ttl):
    from repro.core.wire import decode_query, encode_query
    from repro.overlay.message import Query

    msg = Query(guid=guid, ttl=ttl, hops=0, keywords=tuple(keywords),
                min_speed=min_speed)
    decoded = decode_query(encode_query(msg))
    assert decoded.keywords == tuple(keywords)
    assert decoded.min_speed == min_speed
    assert decoded.guid == guid


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=300),
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_ba_topology_invariants(n, m, seed):
    if n <= m:
        return
    topo = generate_topology(TopologyConfig(n=n, ba_m=m, seed=seed))
    assert topo.check_symmetric()
    assert topo.is_connected()
    assert all(topo.degree(u) >= 1 for u in range(n))
    assert sum(topo.degrees()) == 2 * topo.edge_count()


# ---------------------------------------------------------------------------
# Coverage schedule
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    degrees=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=200),
    ttl=st.integers(min_value=1, max_value=10),
)
def test_coverage_invariants(degrees, ttl):
    sigma = novelty_schedule(degrees, ttl)
    assert all(0.0 <= s <= 1.0 for s in sigma)
    M = expected_coverage(degrees, ttl)
    assert M[0] == 1.0
    assert all(b >= a - 1e-9 for a, b in zip(M, M[1:]))
    assert M[-1] <= len(degrees) + 1e-9


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=1.0, max_value=100_000.0),
    gaps=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50),
)
def test_token_bucket_never_exceeds_rate_plus_burst(rate, gaps):
    tb = TokenBucket(rate_per_min=rate)
    t = 0.0
    consumed = 0
    for gap in gaps:
        t += gap
        while tb.try_consume(t):
            consumed += 1
    # total consumed <= burst + rate * elapsed
    assert consumed <= tb.burst + rate * (t / 60.0) + 1


# ---------------------------------------------------------------------------
# Damage metric
# ---------------------------------------------------------------------------

@given(
    base=st.floats(min_value=0.0, max_value=1.0),
    attacked=st.floats(min_value=0.0, max_value=1.0),
)
def test_damage_rate_bounds(base, attacked):
    d = damage_rate(base, attacked)
    assert 0.0 <= d <= 100.0
    if attacked >= base:
        assert d == 0.0


# ---------------------------------------------------------------------------
# DES engine ordering
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_engine_fires_in_sorted_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule_at(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)
