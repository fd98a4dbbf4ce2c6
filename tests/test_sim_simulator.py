"""Unit tests for the discrete-event simulator."""

import pytest

from repro.core.errors import SimulationError
from repro.obs.profile import EventProfile
from repro.sim import Simulator


def test_schedule_relative_delay(sim):
    log = []
    sim.schedule(1.5, lambda: log.append(sim.now))
    sim.run()
    assert log == [1.5]


def test_schedule_at_absolute(sim):
    log = []
    sim.schedule_at(4.0, lambda: log.append(sim.now))
    sim.run()
    assert log == [4.0]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_advances_clock_exactly(sim):
    sim.schedule(10.0, lambda: None)
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.pending == 1


def test_run_until_executes_due_events_only(sim):
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(5.0, lambda: log.append(5))
    sim.run(until=2.0)
    assert log == [1]
    sim.run()
    assert log == [1, 5]


def test_events_can_schedule_events(sim):
    log = []

    def first():
        log.append("first")
        sim.schedule(1.0, lambda: log.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert log == ["first", "second"]
    assert sim.now == 2.0


def test_zero_delay_event_fires_after_current(sim):
    log = []

    def outer():
        sim.schedule(0.0, lambda: log.append("inner"))
        log.append("outer")

    sim.schedule(1.0, outer)
    sim.run()
    assert log == ["outer", "inner"]


def test_cancel_scheduled_event(sim):
    log = []
    event = sim.schedule(1.0, lambda: log.append("x"))
    sim.cancel(event)
    sim.run()
    assert log == []


def test_cancel_after_fire_is_inert(sim):
    log = []
    fired = sim.schedule(1.0, log.append, "a")
    sim.schedule(5.0, log.append, "b")
    sim.run(until=2.0)
    sim.cancel(fired)           # the handle's event is long gone
    assert not fired.cancelled and "fired" in repr(fired)
    assert sim.pending == 1 and sim._queue.tombstones == 0
    sim.run()
    assert log == ["a", "b"]


@pytest.mark.parametrize("drain", ["run", "profiled", "step"])
def test_event_cancelling_itself_changes_no_count(sim, drain):
    log = []
    holder = {}
    holder["self"] = sim.schedule(1.0, lambda: sim.cancel(holder["self"]))
    sim.schedule(2.0, log.append, "later")
    if drain == "step":
        assert sim.step() and sim.pending == 1
        assert sim.step() and not sim.step()
    else:
        sim.run(profile=EventProfile() if drain == "profiled" else None)
    assert log == ["later"] and sim.events_processed == 2
    assert sim.pending == 0 and sim._queue.tombstones == 0


@pytest.mark.parametrize("verb", ["schedule", "schedule_at", "schedule_daemon",
                                  "post"])
def test_nan_time_rejected(sim, verb):
    with pytest.raises(SimulationError):
        getattr(sim, verb)(float("nan"), lambda: None)
    assert sim.pending == 0 and sim._queue.daemons == 0


def test_post_rejects_negative_delay(sim):
    with pytest.raises(SimulationError):
        sim.post(-0.1, lambda: None)
    assert sim.pending == 0


def test_post_shares_the_order_and_counts_of_schedule(sim):
    log = []
    assert sim.post(1.0, log.append, "p0") is None      # no handle
    handle = sim.schedule(1.0, log.append, "s1")
    sim.post(0.5, log.append, "p2")
    sim.schedule_daemon(1.0, log.append, "d3")
    sim.post(1.0, log.append, "p4")
    assert sim.pending == 4 and sim._queue.tombstones == 0
    assert sim._queue.daemons == 1
    assert sim.step() and log == ["p2"] and sim.now == 0.5
    sim.cancel(handle)
    assert sim.pending == 2 and sim._queue.tombstones == 1
    profile = EventProfile()
    assert sim.run(profile=profile) == 3 and profile.events == 3
    assert log == ["p2", "p0", "d3", "p4"]
    assert sim.events_processed == 4 and sim.pending == 0


def test_post_from_a_firing_callback_runs_after_it(sim):
    log = []

    def outer():
        sim.post(0.0, log.append, "inner")
        log.append("outer")

    sim.post(1.0, outer)
    sim.schedule(1.0, log.append, "peer")
    sim.run(until=1.0)
    assert log == ["outer", "peer", "inner"] and sim.now == 1.0


def test_capped_run_until_never_passes_pending_work(sim):
    """``run(until=, max_events=)`` stopped by the cap leaves the clock at
    the last event fired: advancing to ``until`` would strand b in the
    past and make the clock go backwards when it fires."""
    log = []
    sim.schedule(1.0, lambda: log.append(("a", sim.now)))
    sim.schedule(2.0, lambda: log.append(("b", sim.now)))
    assert sim.run(until=5.0, max_events=1) == 1
    assert sim.now == 1.0 and sim.pending == 1
    sim.schedule(0.5, lambda: log.append(("c", sim.now)))
    sim.run()
    assert log == [("a", 1.0), ("c", 1.5), ("b", 2.0)]


def test_capped_run_until_advances_once_nothing_is_due(sim):
    sim.schedule(1.0, lambda: None)
    sim.post(9.0, lambda: None)
    assert sim.run(until=5.0, max_events=1) == 1
    assert sim.now == 5.0       # the cap was not what stopped the run
    assert sim.run(until=6.0, max_events=0) == 0 and sim.now == 6.0


def test_max_events_cap(sim):
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    processed = sim.run(max_events=4)
    assert processed == 4
    assert sim.pending == 6


def test_step_processes_one(sim):
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(2.0, lambda: log.append(2))
    assert sim.step()
    assert log == [1]
    assert sim.step()
    assert not sim.step()


def test_step_reports_done_when_only_daemons_remain(sim):
    log = []
    sim.schedule_daemon(1.0, log.append, "daemon")
    sim.schedule(2.0, log.append, "work")
    assert sim.step() and sim.step()    # daemons fire in time order
    assert log == ["daemon", "work"]
    sim.schedule_daemon(1.0, log.append, "idle")
    assert not sim.step()
    assert sim.events_processed == 2


def test_events_processed_counter(sim):
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_trace_hook_receives_logs():
    records = []
    sim = Simulator(trace=lambda t, cat, msg: records.append((t, cat, msg)))
    sim.schedule(2.0, lambda: sim.log("test", "hello"))
    sim.run()
    assert records == [(2.0, "test", "hello")]


def test_trace_disabled_by_default(sim):
    sim.log("anything", "ignored")   # must not raise


def test_deterministic_ordering_same_time(sim):
    log = []
    for index in range(20):
        sim.schedule(1.0, log.append, index)
    sim.run()
    assert log == list(range(20))
