"""Unit tests for the event queue."""

import random

import pytest

from repro.core.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import Event, EventQueue


def test_push_pop_orders_by_time():
    queue = EventQueue()
    order = []
    queue.push(3.0, order.append, ("c",))
    queue.push(1.0, order.append, ("a",))
    queue.push(2.0, order.append, ("b",))
    while queue:
        queue.pop().fire()
    assert order == ["a", "b", "c"]


def test_ties_break_in_scheduling_order():
    queue = EventQueue()
    order = []
    for label in "abcde":
        queue.push(5.0, order.append, (label,))
    while queue:
        queue.pop().fire()
    assert order == list("abcde")


def test_len_counts_live_events():
    queue = EventQueue()
    e1 = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(e1)
    assert len(queue) == 1


def test_cancelled_event_does_not_fire():
    queue = EventQueue()
    fired = []
    event = queue.push(1.0, fired.append, (1,))
    queue.cancel(event)
    queue.push(2.0, fired.append, (2,))
    while queue:
        queue.pop().fire()
    assert fired == [2]


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_popped_handle_is_inert():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is first
    queue.cancel(first)
    queue.cancel(first)
    assert not first.cancelled and "fired" in repr(first)
    assert len(queue) == 1 and queue.tombstones == 0


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.pop()


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    queue = EventQueue()
    assert queue.peek_time() is None


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda: None)
    assert queue
    queue.cancel(event)
    assert not queue


def test_cancel_storm_compacts_tombstones():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(1000)]
    for event in events[:900]:
        queue.cancel(event)
    # Lazy deletion alone would leave 900 dead entries buried in the
    # heap; compaction keeps tombstones bounded by the live population.
    assert len(queue) == 100
    assert queue.tombstones <= max(EventQueue.COMPACT_FLOOR, len(queue))
    # The storm must actually have triggered the compactor, and the
    # telemetry counters must account for the reaped tombstones.
    assert queue.compactions >= 1
    assert queue.tombstones_reaped > 0
    assert queue.tombstones_reaped >= 900 - queue.tombstones


def test_compaction_preserves_pop_order():
    queue = EventQueue()
    events = [queue.push(float(i % 7), lambda: None) for i in range(300)]
    expected = sorted(
        ((e.time, e.seq) for i, e in enumerate(events) if i % 3 != 0)
    )
    for index, event in enumerate(events):
        if index % 3 == 0:
            queue.cancel(event)
    popped = []
    while queue:
        event = queue.pop()
        popped.append((event.time, event.seq))
    assert popped == expected


def test_compact_below_floor_is_harmless():
    queue = EventQueue()
    keep = queue.push(1.0, lambda: None)
    dead = queue.push(2.0, lambda: None)
    queue.cancel(dead)
    queue.compact()
    assert len(queue) == 1 and queue.tombstones == 0
    assert queue.pop() is keep


def test_daemon_events_do_not_count_as_pending():
    queue = EventQueue()
    daemon = queue.push(1.0, lambda: None, daemon=True)
    assert len(queue) == 0 and not queue
    assert queue.daemons == 1
    live = queue.push(2.0, lambda: None)
    assert len(queue) == 1 and bool(queue)
    # Daemons still fire in time order like any other event.
    assert queue.pop() is daemon
    assert queue.daemons == 0
    assert queue.pop() is live


def test_cancel_daemon_keeps_tombstone_accounting():
    queue = EventQueue()
    daemon = queue.push(1.0, lambda: None, daemon=True)
    queue.push(2.0, lambda: None)
    queue.cancel(daemon)
    # The cancelled daemon is a tombstone, not a live or daemon entry.
    assert queue.daemons == 0
    assert len(queue) == 1
    assert queue.tombstones == 1


def test_queue_reads_posts_beside_handles():
    """``Simulator.post`` leaves 4-tuple entries in the queue's heap;
    ``peek_time``/``pop``/``compact``/``tombstones`` read both shapes."""
    sim = Simulator()
    queue = sim._queue
    fired = []
    first = sim.schedule(1.0, fired.append, "h0")
    sim.post(1.0, fired.append, "p1")
    sim.post(0.5, fired.append, "p2")
    dead = sim.schedule(0.25, fired.append, "h3")
    queue.cancel(dead)
    assert len(queue) == 3 and queue.tombstones == 1
    assert queue.peek_time() == 0.5 and queue.tombstones == 0
    post = queue.pop()
    assert (post.time, post.seq) == (0.5, 2) and "fired" in repr(post)
    post.fire()
    queue.cancel(post)          # a popped post is as inert as a handle
    assert len(queue) == 2
    queue.compact()
    assert queue.pop() is first
    queue.pop().fire()
    assert fired == ["p2", "p1"] and not queue
    with pytest.raises(SimulationError):
        queue.pop()


def test_compaction_keeps_posts():
    sim = Simulator()
    queue = sim._queue
    handles = [sim.schedule(float(i % 5), lambda: None) for i in range(200)]
    for i in range(50):
        sim.post(float(i % 5), lambda: None)
    for handle in handles:
        queue.cancel(handle)
    assert queue.compactions >= 1 and len(queue) == 50
    queue.compact()
    assert queue.tombstones == 0 and len(queue._heap) == 50
    assert sim.run() == 50


def test_ordering_never_reenters_python(monkeypatch):
    """Heap entries compare as ``(time, seq, ...)`` tuples in C; a
    comparison that reached the ``Event`` would be a Python call per
    sift step (the cost PR 14 removed) — here it raises instead."""
    comparisons = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__")
    assert not set(comparisons) & set(vars(Event))

    def compared(self, other):
        raise AssertionError("the heap compared two Event objects")

    for name in comparisons[:4]:
        monkeypatch.setattr(Event, name, compared, raising=False)
    sim = Simulator()
    rng = random.Random(14)
    fired = []
    handles = [sim.schedule(rng.randrange(40) * 0.25, fired.append, index)
               for index in range(10_000)]
    dead = set(rng.sample(range(len(handles)), 6_000))
    for index in sorted(dead):
        sim.cancel(handles[index])
    assert sim._queue.compactions >= 1
    sim.run()
    alive = [(handle.time, handle.seq, index)
             for index, handle in enumerate(handles) if index not in dead]
    assert fired == [index for _time, _seq, index in sorted(alive)]
