"""The discrete-event simulator: clock + event loop + tracing.

Design notes
------------
* Time is a float in **seconds** of simulated time.  All latencies in the
  fabric (link delay, server processing time, ...) are expressed in the
  same unit.
* ``schedule(delay, fn, *args)`` is relative; ``schedule_at`` is absolute.
  Both return the :class:`~repro.sim.events.Event` handle a caller needs
  to cancel.  ``post(delay, fn, *args)`` and ``post_at(time, fn, *args)``
  are the two for the caller that keeps no handle — a packet delivery, a
  one-shot timer, a queued job — and allocate none: the heap entry
  carries the callback itself.
* The simulator never advances past events: ``run(until=t)`` executes every
  event with time <= t and leaves ``now`` at t, so periodic samplers can be
  interleaved with ``run`` windows.  A run stopped by ``max_events`` with
  work still due by ``t`` leaves ``now`` at the last event it fired.
* A trace hook receives ``(time, category, message)`` tuples; experiments
  use it to capture protocol-level happenings without coupling modules to
  any logging backend.
* Observability handles live on the simulator: ``sim.tracer`` is the
  span factory every instrumented device reads (the shared disabled
  :data:`repro.obs.trace.NULL_TRACER` by default, so the off path costs
  one attribute read), and ``sim.metrics`` is the optional
  :class:`repro.obs.metrics.MetricRegistry` (``None`` by default).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.errors import SimulationError
from repro.obs.trace import NULL_TRACER
from repro.sim.events import FIRED, Event, EventQueue


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    trace:
        Optional callable ``(time, category, message) -> None`` invoked for
        every :meth:`log` call.  ``None`` disables tracing (the default).
    """

    def __init__(self, trace=None):
        self._queue = EventQueue()
        #: current simulated time in seconds; only :meth:`run` writes it
        self.now = 0.0
        self._running = False
        self._trace = trace
        self.events_processed = 0
        #: span factory read by instrumented devices; swapped in by
        #: :class:`repro.obs.Observability`, disabled singleton otherwise
        self.tracer = NULL_TRACER
        #: optional MetricRegistry (None unless observability is on)
        self.metrics = None

    @property
    def pending(self):
        """Number of live (non-cancelled, non-daemon) events still queued."""
        return len(self._queue)

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        ``delay`` must be >= 0; zero-delay events fire after the current
        event completes, in FIFO order among same-time events.
        """
        if not delay >= 0:      # a NaN delay fails this too
            raise SimulationError("cannot schedule in the past (delay=%r)" % delay)
        # EventQueue.push, inlined: every flow generator and periodic
        # tick pays this verb, and the extra frame measured 1.6% of
        # wired_steady when packets paid it too.
        queue = self._queue
        time = self.now + delay
        seq = next(queue._counter)
        event = Event(time, seq, callback, args)
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def post(self, delay, callback, *args):
        """Schedule ``callback(*args)`` after ``delay`` seconds, no handle.

        The same clock, the same ``(time, seq)`` order and the same
        ``pending`` count as :meth:`schedule`, but the heap entry is the
        4-tuple ``(time, seq, callback, args)`` and no :class:`Event` is
        built: a post cannot be cancelled and is never a daemon.  Every
        call site that would discard ``schedule``'s return value posts.
        """
        if not delay >= 0:      # a NaN delay fails this too
            raise SimulationError("cannot schedule in the past (delay=%r)" % delay)
        queue = self._queue
        time = self.now + delay
        heappush(queue._heap, (time, next(queue._counter), callback, args))
        queue._live += 1

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise SimulationError(
                "cannot schedule at %r, now is %r" % (time, self.now)
            )
        return self._queue.push(time, callback, args)

    def post_at(self, time, callback, *args):
        """:meth:`post` at absolute simulated ``time``: no handle, no
        :class:`Event`, the same ``(time, seq)`` order as
        :meth:`schedule_at`."""
        if not time >= self.now:
            raise SimulationError(
                "cannot schedule at %r, now is %r" % (time, self.now)
            )
        queue = self._queue
        heappush(queue._heap, (time, next(queue._counter), callback, args))
        queue._live += 1

    def schedule_daemon(self, delay, callback, *args):
        """Schedule a background event that does not count as pending work.

        Daemon events (the observability sampler, periodic watchdogs)
        fire in time order like any other, but ``pending`` ignores them
        and ``run()``/``settle()``-style drain loops stop as soon as
        only daemons remain — a self-rescheduling sampler can therefore
        never wedge the simulation open.
        """
        if not delay >= 0:
            raise SimulationError("cannot schedule in the past (delay=%r)" % delay)
        return self._queue.push(self.now + delay, callback, args, daemon=True)

    def cancel(self, event):
        """Cancel a scheduled event (safe to call twice, or after it fired)."""
        self._queue.cancel(event)

    def run(self, until=None, max_events=None, profile=None):
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly later than this
            time, and advance the clock to exactly ``until``.  ``None``
            runs until no non-daemon work remains.
        max_events:
            Safety valve: stop after this many events (``None`` = no cap).
            A run the cap stops while events due by ``until`` remain
            leaves the clock at the last event fired, never past one.
        profile:
            Optional :class:`repro.obs.profile.EventProfile`; when given,
            every callback is timed and the per-event-type breakdown
            accumulates into it (two clock reads per event — keep off
            for benches unless the breakdown is the point).

        Returns the number of events processed during this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        processed = 0
        # The loop runs once per simulated event — by far the hottest
        # code in any packet-heavy run — so it works on the queue's heap
        # directly: one peek serves both the stop check and the pop (no
        # peek_time/pop double walk), tombstones are skipped inline, and
        # attribute lookups are hoisted out of the loop.  A 4-tuple entry
        # is a post (live, never a daemon, never a tombstone); a 3-tuple
        # carries its Event.
        queue = self._queue
        heap = queue._heap
        clock = profile.clock if profile is not None else None
        capped = False
        try:
            while heap:
                entry = heap[0]
                if len(entry) == 4:
                    time, _, callback, args = entry
                    event = None
                else:
                    time, _, event = entry
                    if event.state:
                        heappop(heap)
                        continue
                    callback = event.callback
                    args = event.args
                if until is not None:
                    if time > until:
                        break
                elif queue._live == 0:
                    break     # only daemons remain: the run is done
                if max_events is not None and processed >= max_events:
                    capped = True     # live work due by ``until`` remains
                    break
                heappop(heap)
                if event is None:
                    queue._live -= 1
                else:
                    if event.daemon:
                        queue._daemons -= 1
                    else:
                        queue._live -= 1
                    event.state = FIRED     # the handle is inert from here on
                if clock is None:
                    self.now = time
                    callback(*args)
                else:
                    advance = time - self.now
                    self.now = time
                    started = clock()
                    callback(*args)
                    profile.record(callback, clock() - started, advance)
                processed += 1
            if until is not None and not capped and self.now < until:
                self.now = until
        finally:
            self._running = False
        self.events_processed += processed
        return processed

    def step(self):
        """Process exactly one event; return False if the queue was empty.

        "Empty" means no non-daemon work: a queue holding only daemon
        events (e.g. an armed metrics sampler) reports done.
        """
        return self.run(max_events=1) == 1

    def log(self, category, message):
        """Emit a trace record if tracing is enabled."""
        if self._trace is not None:
            self._trace(self.now, category, message)
