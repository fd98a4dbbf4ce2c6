"""Unit tests for periodic processes and delayed calls."""

import pytest

from repro.sim import PeriodicProcess, SeededRng, delayed_call


def test_periodic_fires_every_period(sim):
    log = []
    PeriodicProcess(sim, 1.0, lambda: log.append(sim.now))
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]


def test_start_delay_overrides_first_interval(sim):
    log = []
    PeriodicProcess(sim, 2.0, lambda: log.append(sim.now), start_delay=0.5)
    sim.run(until=5.0)
    assert log == [0.5, 2.5, 4.5]


def test_stop_halts_cycle(sim):
    log = []
    process = PeriodicProcess(sim, 1.0, lambda: log.append(sim.now))
    sim.run(until=2.5)
    process.stop()
    sim.run(until=10.0)
    assert log == [1.0, 2.0]
    assert process.stopped


def test_callback_can_stop_itself(sim):
    log = []
    holder = {}

    def tick():
        log.append(sim.now)
        if len(log) == 3:
            holder["p"].stop()

    holder["p"] = PeriodicProcess(sim, 1.0, tick)
    sim.run(until=100.0)
    assert log == [1.0, 2.0, 3.0]


def test_stopping_from_within_keeps_other_work_pending(sim):
    # stop() cancels the tick that is firing; that must not eat the
    # live count of an unrelated event still queued behind it.
    late = []
    holder = {}

    def tick():
        if sim.now >= 2.0:
            holder["p"].stop()

    holder["p"] = PeriodicProcess(sim, 1.0, tick)
    sim.schedule(5.0, late.append, "late")
    sim.run()
    assert late == ["late"]
    assert sim.now == 5.0 and sim.pending == 0


def test_invalid_period_rejected(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 0.0, lambda: None)


def test_jitter_requires_rng(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 1.0, lambda: None, jitter=0.1)


def test_jitter_perturbs_intervals(sim):
    log = []
    PeriodicProcess(sim, 1.0, lambda: log.append(sim.now),
                    jitter=0.2, rng=SeededRng(3))
    sim.run(until=10.0)
    gaps = [b - a for a, b in zip(log, log[1:])]
    assert all(0.8 <= g <= 1.2 for g in gaps)
    assert len(set(round(g, 9) for g in gaps)) > 1   # actually jittered


def test_delayed_call(sim):
    log = []
    delayed_call(sim, 2.0, log.append, "x")
    sim.run()
    assert log == ["x"]
