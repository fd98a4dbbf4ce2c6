"""Per-device metric registry: counters, gauges, histograms, timeseries.

Every device already keeps a :class:`repro.core.Counters` block, but
each one is an island — a workload that wants "all the numbers" has to
know every device class and every attribute name.  The registry turns
them into one enumerable namespace:

* **counters** — enrolled ``Counters`` instances, exported under their
  normalized metric names (``Counters.metric_dict``), so
  ``wireless_in`` and ``transit_in`` both surface as ``*_packets_in``
  without touching the legacy attribute names the ledger digests read.
* **gauges** — zero-argument callables sampled at snapshot time, for
  state no counter tracks: event-queue depth and tombstone ratio,
  map-cache occupancy, megaflow entries, WLC batch backlog, and the
  overload surface (queue pressure, sheds, backpressure, breaker,
  stale serves).
* **histograms** — bounded-bucket distributions recorded on the hot(ish)
  path by hooks that default to ``None`` (``SerialQueue.wait_hist``,
  ``Batcher.flush_hist``), so the off path stays a single ``is None``
  test.

Snapshots are stamped with sim-time and appended to an in-memory
timeseries (:attr:`MetricRegistry.samples`); :meth:`export_jsonl`
writes the append-only file the CI report lane diffs across hash
seeds.  Periodic sampling rides a *daemon* event
(:meth:`Simulator.schedule_daemon`) so an armed sampler never keeps
``settle()`` loops alive.
"""

from __future__ import annotations

import json

from repro.obs.trace import jsonable

#: Default histogram bounds: latency-shaped, 1 µs .. 1 s (overflow above).
LATENCY_BOUNDS_S = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

#: Count-shaped bounds for batch/flush sizes.
COUNT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128)


class Histogram:
    """Fixed-bucket histogram with an overflow bucket and running stats."""

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name, bounds=LATENCY_BOUNDS_S):
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = None
        self.max_value = None

    def record(self, value):
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def snapshot(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
        }

    def __repr__(self):
        return "Histogram(%s, n=%d, mean=%g)" % (
            self.name, self.count, self.mean
        )


class MetricRegistry:
    """One namespace over every enrolled counter block, gauge, histogram."""

    def __init__(self, sim=None):
        self.sim = sim
        self._counters = {}       # name -> Counters instance
        self._gauges = {}         # name -> zero-arg callable
        self._histograms = {}     # name -> Histogram
        self.samples = []         # appended by sample()
        self.sample_interval_s = None
        self._tick_event = None   # the pending sampler tick, if armed

    # ------------------------------------------------------------------ enrollment
    def enroll(self, name, counters):
        """Register a ``Counters`` block under a device-scoped name.

        Re-enrolling the *same object* under the same name is a no-op
        (instrumentation may be wired more than once); a different
        object under an existing name is a bug worth surfacing.
        """
        existing = self._counters.get(name)
        if existing is not None:
            if existing is counters:
                return counters
            raise ValueError("metric name already enrolled: %r" % name)
        self._counters[name] = counters
        return counters

    def gauge(self, name, fn):
        """Register a zero-argument callable read at snapshot time."""
        self._gauges[name] = fn
        return fn

    def histogram(self, name, bounds=LATENCY_BOUNDS_S):
        """Create (or fetch) a named histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def enroll_sim(self, sim):
        """Wire the simulator kernel's blind spots as gauges."""
        queue = sim._queue
        self.gauge("sim.queue_depth", lambda: len(queue))
        self.gauge("sim.queue_tombstones", lambda: queue.tombstones)
        self.gauge("sim.queue_compactions", lambda: queue.compactions)
        self.gauge("sim.queue_tombstones_reaped",
                   lambda: queue.tombstones_reaped)
        self.gauge("sim.events_processed", lambda: sim.events_processed)

    # ------------------------------------------------------------------ snapshots
    def snapshot(self):
        """One sim-time-stamped reading of everything registered."""
        now = self.sim.now if self.sim is not None else 0.0
        return {
            "t": now,
            "counters": {
                name: counters.metric_dict()
                for name, counters in sorted(self._counters.items())
            },
            "gauges": {
                name: jsonable(fn())
                for name, fn in sorted(self._gauges.items())
            },
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self._histograms.items())
            },
        }

    def sample(self):
        """Append a snapshot to the in-memory timeseries."""
        row = self.snapshot()
        self.samples.append(row)
        return row

    def start(self, interval_s):
        """Begin periodic sampling on a daemon event.

        Daemon events do not count as pending work, so an armed sampler
        never wedges ``settle()``-style drain loops or open-ended
        ``run()`` calls.
        """
        if self.sim is None:
            raise ValueError("cannot sample without a simulator")
        if interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.sample_interval_s = interval_s
        if self._tick_event is None:
            self._tick_event = self.sim.schedule_daemon(interval_s, self._tick)

    def stop(self):
        """Cancel the pending tick, so a later start() runs one chain."""
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None

    def _tick(self):
        self.sample()
        self._tick_event = self.sim.schedule_daemon(
            self.sample_interval_s, self._tick)

    # ------------------------------------------------------------------ export
    def export_jsonl(self, path):
        """Write the timeseries append-only, one snapshot per line."""
        with open(path, "w") as handle:
            for row in self.samples:
                handle.write(json.dumps(row, sort_keys=True))
                handle.write("\n")
        return len(self.samples)

    def __repr__(self):
        return "MetricRegistry(counters=%d, gauges=%d, hists=%d, samples=%d)" % (
            len(self._counters), len(self._gauges), len(self._histograms),
            len(self.samples),
        )
