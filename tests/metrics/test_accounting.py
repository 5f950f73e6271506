"""Unit tests for the origin-aware incremental query accounting."""

import pytest

from repro.errors import ConfigError
from repro.metrics.accounting import ClassTotals, MinuteMetrics, QueryAccounting
from repro.overlay.network import NetworkConfig
from repro.workload.generator import QueryWorkload, WorkloadConfig
from tests.conftest import make_network


def roll(acc, now, messages=0, bytes_=0):
    return acc.on_minute_rolled(now, messages, bytes_)


def test_window_attribution_follows_roll_counter():
    acc = QueryAccounting(grace_minutes=1)
    assert acc.on_issued(b"a", False) == 0
    roll(acc, 60.0)
    assert acc.on_issued(b"b", False) == 1
    assert acc.on_issued(b"c", True) == 1
    roll(acc, 120.0)
    roll(acc, 180.0)
    assert [m.minute for m in acc.rows] == [1, 2]
    assert acc.rows[0].queries_issued == 1
    assert acc.rows[1].queries_issued == 1
    assert acc.rows[1].attack_queries_issued == 1


def test_rows_emitted_grace_minutes_after_window_close():
    acc = QueryAccounting(grace_minutes=2)
    acc.on_issued(b"a", False)
    roll(acc, 60.0)
    roll(acc, 120.0)
    assert acc.rows == []  # window 1 still within grace
    roll(acc, 180.0)
    assert [m.minute for m in acc.rows] == [1]
    assert acc.rows[0].time_s == 60.0


def test_response_within_grace_counts_in_row_and_totals():
    acc = QueryAccounting(grace_minutes=1)
    w = acc.on_issued(b"a", False)
    roll(acc, 60.0)
    # response arrives during the grace minute, before finalization
    acc.on_first_response(w, False, 1.5)
    roll(acc, 120.0)
    (row,) = acc.rows
    assert row.queries_succeeded == 1
    assert row.mean_response_time_s == 1.5
    assert acc.totals("good").succeeded == 1
    assert acc.late_responses == 0


def test_response_after_finalization_is_late_and_ignored():
    acc = QueryAccounting(grace_minutes=0, retire_records=False)
    w = acc.on_issued(b"a", False)
    roll(acc, 60.0)  # grace 0: window finalized immediately
    acc.on_first_response(w, False, 2.0)
    assert acc.late_responses == 1
    assert acc.rows[0].queries_succeeded == 0
    assert acc.totals("good").succeeded == 0


def test_retirement_returns_keys_of_finalized_window_only():
    acc = QueryAccounting(grace_minutes=1)
    acc.on_issued(b"a", False)
    acc.on_issued(b"b", True)
    assert roll(acc, 60.0) == ()
    acc.on_issued(b"c", False)
    assert list(roll(acc, 120.0)) == [b"a", b"b"]
    assert list(roll(acc, 180.0)) == [b"c"]


def test_no_keys_tracked_when_retirement_off():
    acc = QueryAccounting(grace_minutes=0, retire_records=False)
    acc.on_issued(b"a", False)
    assert roll(acc, 60.0) == ()


def test_live_window_count_is_bounded_by_grace_plus_one():
    acc = QueryAccounting(grace_minutes=1)
    for minute in range(50):
        acc.on_issued(f"q{minute}".encode(), minute % 3 == 0)
        roll(acc, 60.0 * (minute + 1))
        assert acc.live_window_count <= 2
    assert len(acc.rows) == 49


def test_empty_windows_emit_zero_rows():
    acc = QueryAccounting(grace_minutes=1)
    roll(acc, 60.0)
    roll(acc, 120.0)
    (row,) = acc.rows
    assert row.queries_issued == 0
    assert row.success_rate == 0.0
    assert row.mean_response_time_s is None


def test_message_and_byte_deltas_per_row():
    acc = QueryAccounting(grace_minutes=0)
    roll(acc, 60.0, messages=100, bytes_=1000)
    roll(acc, 120.0, messages=250, bytes_=2600)
    assert [m.messages for m in acc.rows] == [100, 150]
    assert [m.bytes_transferred for m in acc.rows] == [1000, 1600]


def test_per_class_totals_and_all_merge():
    acc = QueryAccounting(grace_minutes=1)
    w = acc.on_issued(b"g", False)
    acc.on_issued(b"x", True)
    acc.on_first_response(w, False, 0.5)
    assert acc.totals("good").issued == 1
    assert acc.totals("attack").issued == 1
    assert acc.totals("all").issued == 2
    assert acc.success_rate("good") == 1.0
    assert acc.success_rate("attack") == 0.0
    assert acc.success_rate("all") == 0.5
    assert acc.mean_response_time("good") == 0.5
    assert acc.mean_response_time("attack") is None
    with pytest.raises(ConfigError):
        acc.totals("bogus")


def test_negative_grace_rejected_at_construction():
    with pytest.raises(ConfigError):
        QueryAccounting(grace_minutes=-1)


def test_class_totals_merge_and_rates():
    a = ClassTotals(issued=4, succeeded=2, response_time_sum=3.0)
    b = ClassTotals(issued=6, succeeded=3, response_time_sum=2.0)
    m = a.merged_with(b)
    assert (m.issued, m.succeeded, m.response_time_sum) == (10, 5, 5.0)
    assert m.success_rate == 0.5
    assert m.mean_response_time == 1.0
    assert ClassTotals().success_rate == 0.0
    assert ClassTotals().mean_response_time is None


def test_minute_metrics_all_traffic_properties():
    row = MinuteMetrics(
        minute=1,
        time_s=60.0,
        messages=0,
        bytes_transferred=0,
        queries_issued=8,
        queries_succeeded=6,
        mean_response_time_s=0.4,
        attack_queries_issued=92,
        attack_queries_succeeded=0,
    )
    assert row.success_rate == 0.75
    assert row.all_queries_issued == 100
    assert row.all_queries_succeeded == 6
    assert row.all_success_rate == 0.06


# ---------------------------------------------------------------------------
# the rows of a live network (``net.accounting.rows`` is the read side)
# ---------------------------------------------------------------------------

def ring(n):
    return {i: {(i + 1) % n} for i in range(n)}


def _start_workload(sim, net, qpm, seed):
    QueryWorkload(sim, net, WorkloadConfig(queries_per_minute=qpm, seed=seed)).start()


def test_minutes_collected_with_grace():
    sim, net = make_network(ring(10), seed=1)
    _start_workload(sim, net, 6.0, 1)
    sim.run(until=310.0)
    # 5 minute rolls happened; with 1 minute grace, 4 windows evaluated
    assert [m.minute for m in net.accounting.rows] == [1, 2, 3, 4]


def test_success_rate_definition():
    sim, net = make_network(ring(6), seed=3)
    # make every query succeed: object 0 replicated everywhere
    for obj in range(len(net.content.replica_holders)):
        net.content.replica_holders[obj] = set(range(6))
    net.content.peer_objects = {
        p: set(range(len(net.content.replica_holders))) for p in range(6)
    }
    _start_workload(sim, net, 6.0, 3)
    sim.run(until=200.0)
    for m in net.accounting.rows:
        if m.queries_issued:
            assert m.success_rate == 1.0
            assert m.mean_response_time_s is not None


def test_traffic_series_deltas():
    sim, net = make_network(
        ring(10),
        seed=4,
        config=NetworkConfig(hop_latency_jitter_s=0.0, seed=4, metrics_grace_minutes=0),
    )
    _start_workload(sim, net, 6.0, 4)
    sim.run(until=190.0)
    # grace 0: every closed minute is a row, and the deltas never overcount
    assert [m.minute for m in net.accounting.rows] == [1, 2, 3]
    assert sum(m.messages for m in net.accounting.rows) <= net.stats.messages_delivered


def test_series_accessors():
    sim, net = make_network(ring(6), seed=5)
    _start_workload(sim, net, 10.0, 5)
    sim.run(until=250.0)
    rows = net.accounting.rows
    assert rows and all(0.0 <= m.success_rate <= 1.0 for m in rows)
    assert [m.time_s for m in rows] == [60.0 * m.minute for m in rows]
