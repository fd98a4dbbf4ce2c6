"""Deterministic discrete-event simulation kernel.

Every experiment in this repository runs on top of this kernel: a priority
queue of timestamped events, a simulated clock, and seeded random
streams.  Determinism matters — the paper's results are statistical
(CDFs, boxplots, weekly time series) and we want bit-identical reruns for a
given seed.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()
    log = []
    sim.post(1.0, lambda: log.append(sim.now))
    timer = sim.schedule(2.5, lambda: log.append(sim.now))
    sim.post(3.0, lambda: log.append(sim.now))
    sim.cancel(timer)
    sim.run()
    assert log == [1.0, 3.0]

``post`` is for events nobody cancels; ``schedule`` returns the
:class:`Event` handle ``cancel`` needs.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.rng import SeededRng

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SeededRng",
]
