"""Unit tests for the DES engine."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "b")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(3.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_same_time_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "late", priority=5)
    sim.schedule_at(1.0, fired.append, "early", priority=-5)
    sim.run()
    assert fired == ["early", "late"]


def test_schedule_in_is_relative():
    sim = Simulator()
    times = []
    sim.schedule_at(10.0, lambda: sim.schedule_in(5.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [15.0]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_scheduling_into_past_rejected():
    sim = Simulator()
    sim.schedule_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule_in(-1.0, lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(50.0, fired.append, 50)
    sim.run(until=10.0)
    assert fired == [1]
    assert sim.now == 10.0
    # remaining event still fires on the next run
    sim.run()
    assert fired == [1, 50]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule_in(1.0, chain, n + 1)

    sim.schedule_at(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule_at(1.0, reenter)
    sim.run()


def test_events_fired_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule_at(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 5


def test_schedule_bulk_matches_sequential_pop_order():
    mixed = [(5.0, "a"), (1.0, "b"), (5.0, "c"), (3.0, "d"), (1.0, "e")]
    seq_sim, bulk_sim = Simulator(), Simulator()
    seq_fired, bulk_fired = [], []
    for t, label in mixed:
        seq_sim.schedule_at(t, seq_fired.append, label)
    bulk_sim.schedule_bulk(bulk_fired.append, mixed)
    seq_sim.run()
    bulk_sim.run()
    # ties broken by sequence number = iteration order, same as one
    # schedule_at call per item
    assert bulk_fired == seq_fired == ["b", "e", "d", "a", "c"]


def test_schedule_bulk_interleaves_with_preexisting_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, "old")
    sim.schedule_bulk(fired.append, [(1.0, "new1"), (2.0, "new2")])
    sim.run()
    # the pre-existing event at t=2.0 has the smaller seq, so it wins its tie
    assert fired == ["new1", "old", "new2"]


def test_schedule_bulk_rejects_past_times():
    sim = Simulator()
    sim.schedule_at(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.schedule_bulk(print, [(6.0, "late"), (4.0, "past")])
    # a rejected batch queues nothing, so it cannot count as fired later
    assert (sim.pending_count, sim.events_fired) == (0, 1)


def test_schedule_bulk_is_one_heap_entry():
    sim = Simulator()
    fired = []
    sim.schedule_bulk(fired.append, [(3.0, "c"), (1.0, "a"), (2.0, "b")])
    assert (len(sim._heap), sim.pending_count, sim.events_fired) == (1, 3, 0)
    sim.run(until=1.5)
    assert fired == ["a"]
    assert (len(sim._heap), sim.pending_count, sim.events_fired) == (1, 2, 1)
    sim.run()
    assert fired == ["a", "b", "c"]
    assert (len(sim._heap), sim.pending_count, sim.events_fired) == (0, 0, 3)


def test_bulk_batch_holds_under_100_bytes_per_item():
    # One timer per peer at startup: what the batch keeps per item is a
    # float, a seq and the argument, not an Event and a heap entry.
    n = 50_000
    sim = Simulator()
    rng = random.Random(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.schedule_bulk(
            lambda pid: None, ((rng.expovariate(1 / 60), pid) for pid in range(n))
        )
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sim.pending_count == n
    assert held / n < 100, held / n


def test_events_define_no_ordering():
    sim = Simulator()
    ev_a = sim.schedule_at(1.0, lambda: None)
    ev_b = sim.schedule_at(2.0, lambda: None)
    # the heap orders (time, priority, seq, event) tuples; seq is unique,
    # so the event itself is never compared and needs no __lt__
    with pytest.raises(TypeError):
        ev_a < ev_b


# One scheduled callback: (time or delay, priority, follow-up delay or
# None). Small value sets force ties on time and on (time, priority).
_TICKS = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])
_PRIORITIES = st.sampled_from([-1, 0, 0, 1])
_ITEM = st.tuples(_TICKS, _PRIORITIES, st.none() | _TICKS)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _ITEM),
        st.tuples(st.just("in"), _ITEM),
        st.tuples(st.just("bulk"), st.lists(_ITEM, max_size=6)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_fire_order_is_sorted_time_priority_seq(ops):
    """Any mix of schedule_at/_in/_bulk, with follow-ups scheduled from
    inside the loop, fires in exactly ``(time, priority, seq)`` order --
    checked against a list + ``min`` oracle that shares no code with the
    heap."""
    sim = Simulator()
    fired = []
    scheduled = [0]  # events scheduled so far = the next seq
    model = {}  # seq of a pending event -> (time, priority, seq, follow-up delay)

    def on_fire(seq, priority, follow_up):
        fired.append(seq)
        if follow_up is not None:
            child = scheduled[0]
            scheduled[0] += 1
            sim.schedule_in(follow_up, on_fire, child, priority, None, priority=priority)

    def schedule(how, items, priority):
        first = scheduled[0]
        rows = [
            (time, on_fire, first + i, priority, follow_up)
            for i, (time, follow_up) in enumerate(items)
        ]
        scheduled[0] += len(rows)
        for time, _, seq, _, follow_up in rows:
            model[seq] = (time, priority, seq, follow_up)
        if how == "bulk":
            sim.schedule_bulk(
                lambda row: on_fire(*row),
                [(time, tuple(rest)) for time, _, *rest in rows],
                priority=priority,
            )
        else:  # now == 0 until run(), so a delay is also a time
            at_or_in = sim.schedule_at if how == "at" else sim.schedule_in
            for time, *rest in rows:
                at_or_in(time, *rest, priority=priority)

    for op, arg in ops:
        if op == "bulk":
            # one priority per schedule_bulk call
            priority = arg[0][1] if arg else 0
            schedule(op, [(time, follow_up) for time, _, follow_up in arg], priority)
        else:
            time, priority, follow_up = arg
            schedule(op, [(time, follow_up)], priority)
    assert sim.pending_count == len(model)

    expected = []
    next_seq = scheduled[0]
    while model:
        time, priority, seq, follow_up = min(model.values())
        del model[seq]
        expected.append(seq)
        if follow_up is not None:
            model[next_seq] = (time + follow_up, priority, next_seq, None)
            next_seq += 1

    sim.run()
    assert fired == expected
    assert sim.events_fired == len(expected)
    assert sim.pending_count == 0


_STOPS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 6.0]), max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    first=st.lists(_TICKS, max_size=8),
    second=st.lists(_TICKS, max_size=8),
    second_priority=st.sampled_from([-1, 0, 1]),
    singles=st.lists(_TICKS, max_size=4),
    nested=st.lists(_TICKS, max_size=6),
    stops=_STOPS,
)
def test_bulk_batches_match_a_per_item_twin_at_every_stop(
    first, second, second_priority, singles, nested, stops
):
    """Two interleaved batches, single events between them and a batch
    scheduled from inside a callback, beside a twin that schedules each
    item with its own ``schedule_at``: at every ``run(until=)`` stop the
    fire order and both counters agree."""

    def build(bulk):
        sim = Simulator()
        fired = []

        def schedule(label, times, priority=0):
            items = [(sim.now + t, (label, i)) for i, t in enumerate(times)]
            if bulk:
                sim.schedule_bulk(on_fire, items, priority=priority)
            else:
                for time, arg in items:
                    sim.schedule_at(time, on_fire, arg, priority=priority)

        def on_fire(arg):
            fired.append(arg)
            if arg == ("first", 0):
                schedule("nested", nested)

        schedule("first", first)
        for i, t in enumerate(singles):
            sim.schedule_at(t, fired.append, ("single", i))
        schedule("second", second, second_priority)
        return sim, fired

    (lazy, lazy_fired), (twin, twin_fired) = build(True), build(False)
    assert (lazy.events_fired, lazy.pending_count) == (0, twin.pending_count)
    for stop in sorted(stops) + [None]:
        lazy.run(until=stop)
        twin.run(until=stop)
        assert lazy_fired == twin_fired
        assert lazy.now == twin.now
        assert (lazy.events_fired, lazy.pending_count) == (
            twin.events_fired,
            twin.pending_count,
        )
    assert lazy.pending_count == 0
