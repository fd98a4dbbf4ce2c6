"""Event-loop profiling: per-event-type counts, sim-cost, wall-clock.

``Simulator.run(profile=EventProfile())`` swaps the hot loop for a
timed variant that clocks every callback and records how far it moved
the simulated clock.  The breakdown answers the question benches keep
re-deriving by hand: *which* event type is the run spending its wall
time in — WLC CPU completions, routing-server dequeues, packet
deliveries — and what each costs in simulated seconds.

Keyed by callback ``__qualname__`` so bound methods of different
instances aggregate into one row (``FabricWlc._process_association``),
which is the granularity a bench breakdown wants.
"""

from __future__ import annotations

import time


class EventProfile:
    """Accumulator handed to :meth:`Simulator.run`.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.perf_counter`).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.by_type = {}     # qualname -> [count, wall_s, sim_advance_s]
        self.events = 0
        self.wall_s = 0.0
        self.sim_advance_s = 0.0

    @staticmethod
    def _key(callback):
        key = getattr(callback, "__qualname__", None)
        if key is None:
            key = type(callback).__name__
        return key

    def record(self, callback, wall_s, advance_s):
        key = self._key(callback)
        row = self.by_type.get(key)
        if row is None:
            row = self.by_type[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += wall_s
        row[2] += advance_s
        self.events += 1
        self.wall_s += wall_s
        self.sim_advance_s += advance_s

    # ------------------------------------------------------------------ reporting
    def summary(self, top=None):
        """Rows sorted by wall-clock cost, heaviest first."""
        rows = [
            {
                "event": key,
                "count": count,
                "wall_s": wall,
                "sim_advance_s": advance,
                "wall_share": (wall / self.wall_s) if self.wall_s else 0.0,
            }
            for key, (count, wall, advance) in self.by_type.items()
        ]
        rows.sort(key=lambda row: (-row["wall_s"], row["event"]))
        if top is not None:
            rows = rows[:top]
        return rows

    def as_dict(self, top=None):
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "sim_advance_s": self.sim_advance_s,
            "by_type": self.summary(top=top),
        }

    def __repr__(self):
        return "EventProfile(events=%d, types=%d, wall=%.3fs)" % (
            self.events, len(self.by_type), self.wall_s
        )
