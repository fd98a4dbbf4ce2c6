"""Event and event-queue primitives for the simulation kernel.

The queue is a binary heap ordered by ``(time, sequence)``.  The sequence
number breaks ties deterministically: two events scheduled for the same
instant fire in scheduling order, which keeps simulations reproducible
regardless of heap internals.

Entry layout
------------
A heap entry has one of two shapes:

* ``(time, seq, event)`` — a handle entry, pushed by :meth:`EventQueue.push`
  (``Simulator.schedule``/``schedule_at``/``schedule_daemon``); the caller
  keeps the :class:`Event` to cancel it.
* ``(time, seq, callback, args)`` — a post, pushed by ``Simulator.post``
  for a caller that keeps no handle.  No :class:`Event` exists, so a post
  is never cancelled (never a tombstone) and never a daemon.

``heapq`` compares entries as tuples, in C: the float, then — on a tie —
the int.  ``seq`` comes from the one counter both shapes share and is
unique, so a comparison never reaches the third element, the two shapes
interleave in one total order, and :class:`Event` needs, and defines, no
ordering of its own.  Whoever pops an entry (``EventQueue.pop``,
``Simulator.run``) tells the shapes apart by length.

Handle life-cycle
-----------------
The :class:`Event` returned by a push is the caller's handle; its
``state`` only ever moves forward::

    PENDING --pop--> FIRED          PENDING --cancel--> CANCELLED

A cancelled event stays in the heap as a tombstone until it is popped
and skipped, or reaped by a compaction.  A fired event has left the
heap, so its handle is inert: cancelling it — a periodic callback
stopping itself from within its own tick, say — changes no state and
no count.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.errors import SimulationError


#: Event.state; PENDING is the falsy one, so "is this heap entry a
#: tombstone" is a bare truth test in the event loop
PENDING, CANCELLED, FIRED = 0, 1, 2


def _is_tombstone(entry):
    """A cancelled handle entry; a post (4-tuple) never is one."""
    return len(entry) == 3 and entry[2].state == CANCELLED


class Event:
    """A scheduled callback.

    Events are created through :meth:`EventQueue.push` (or the higher level
    :meth:`repro.sim.Simulator.schedule`) rather than directly.  An event can
    be cancelled, which marks it dead in place; the queue skips dead events
    on pop (lazy deletion, the standard heapq idiom).

    A *daemon* event (``daemon=True``) fires normally but does not count
    as pending work: ``len(queue)`` and drain loops ignore it, so
    periodic background tasks — the observability sampler, watchdogs —
    never keep a "run until idle" simulation alive.
    """

    __slots__ = ("time", "seq", "callback", "args", "state", "daemon")

    def __init__(self, time, seq, callback, args, daemon=False):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.state = PENDING
        self.daemon = daemon

    @property
    def cancelled(self):
        """True once cancelled while pending; a fired event never is."""
        return self.state == CANCELLED

    def cancel(self):
        """Mark a pending event so it will be skipped when its time comes."""
        if self.state == PENDING:
            self.state = CANCELLED

    def fire(self):
        """Invoke the callback (no-op if cancelled)."""
        if self.state != CANCELLED:
            self.callback(*self.args)

    def __repr__(self):
        state = ("pending", "cancelled", "fired")[self.state]
        if self.daemon:
            state += ", daemon"
        return "Event(t=%r, seq=%d, %s)" % (self.time, self.seq, state)


class EventQueue:
    """A deterministic min-heap of handle and post entries (see above).

    Cancelled events are removed lazily on pop, but the queue does not
    let tombstones accumulate: when dead entries outnumber live ones
    (past a small floor), the heap is compacted in one linear pass.
    Long-running workloads that cancel at scale — every stopped flow
    generator, every superseded timer — would otherwise keep pushing
    dead weight through every sift.

    ``compactions`` / ``tombstones_reaped`` count how often that pass
    ran and how many dead entries it removed over the queue's lifetime.
    """

    #: below this many tombstones, compaction costs more than it saves
    COMPACT_FLOOR = 64

    __slots__ = ("_heap", "_counter", "_live", "_daemons",
                 "compactions", "tombstones_reaped")

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._live = 0
        self._daemons = 0
        self.compactions = 0
        self.tombstones_reaped = 0

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def push(self, time, callback, args=(), daemon=False):
        """Schedule ``callback(*args)`` at simulated ``time``.

        Returns the :class:`Event` so the caller may cancel it later.
        Daemon events fire like any other but are excluded from
        ``len()`` / truthiness, so they never hold a drain loop open.
        """
        seq = next(self._counter)
        event = Event(time, seq, callback, args, daemon)
        heapq.heappush(self._heap, (time, seq, event))
        if daemon:
            self._daemons += 1
        else:
            self._live += 1
        return event

    def pop(self):
        """Remove and return the earliest live event.

        A post comes back as a fresh, already fired :class:`Event`
        (``fire()`` still runs it).  Raises :class:`SimulationError`
        when the queue is empty.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            if len(entry) == 4:
                time, seq, callback, args = entry
                event = Event(time, seq, callback, args)
                event.state = FIRED
                self._live -= 1
                return event
            event = entry[2]
            if event.state:
                continue
            event.state = FIRED
            if event.daemon:
                self._daemons -= 1
            else:
                self._live -= 1
            return event
        raise SimulationError("pop from empty event queue")

    def cancel(self, event):
        """Cancel a pending event (no-op once cancelled or fired)."""
        if event.state == PENDING:
            event.state = CANCELLED
            if event.daemon:
                self._daemons -= 1
            else:
                self._live -= 1
            dead = len(self._heap) - self._live - self._daemons
            if dead > self.COMPACT_FLOOR and dead > self._live:
                self.compact()

    def compact(self):
        """Rebuild the heap without tombstones (stable: order unchanged).

        Heapify over ``(time, seq)``-ordered entries reproduces exactly
        the pop order lazy deletion would have produced — sequence
        numbers are unique, so the ordering is total.  The list is
        rebuilt in place: a running event loop keeps its reference.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not _is_tombstone(entry)]
        heapq.heapify(heap)
        reaped = before - len(heap)
        if reaped:
            self.compactions += 1
            self.tombstones_reaped += reaped

    @property
    def tombstones(self):
        """Dead entries currently buried in the heap (introspection)."""
        return len(self._heap) - self._live - self._daemons

    @property
    def daemons(self):
        """Live daemon events queued (excluded from ``len()``)."""
        return self._daemons

    def peek_time(self):
        """Return the time of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and _is_tombstone(heap[0]):
            heapq.heappop(heap)
        return heap[0][0] if heap else None
