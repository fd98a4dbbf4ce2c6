"""Single-server FIFO work queues (the busy-until model).

Several devices in the reproduction serialize work through one control
CPU — the centralized WLAN controller (data *and* handover processing),
the fabric WLC (association processing only), the map server's control
plane — and the whole point of comparing them is the backlog that queue
builds.  This module is the single copy of that model: work submitted
while the server is busy starts when the previous item finishes, and the
worst queueing delay observed is tracked for the experiments.

Unbounded by default — the seed behaviour, which is what the paper's
fig. 7c saturation curves show: offered load beyond capacity builds an
ever-growing backlog.  The overload-armor knobs (``max_depth`` /
``max_backlog_s``) turn the queue into a *bounded* one: work past
capacity is shed (tail drop) with per-class accounting, and
:meth:`admit` layers priority-aware admission control on top so bulk
work (periodic refreshes) sheds first while critical work (resolutions,
roam registrations) is still served.  The admission thresholds are
monotone in priority, which makes priority inversion structurally
impossible: any pressure that sheds a critical item has already shed
every bulk item.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError

#: Admission priority classes (lower value = more critical).
PRIO_CRITICAL = 0
PRIO_NORMAL = 1
PRIO_BULK = 2

#: Fraction of capacity (pressure) below which each class is admitted.
#: Monotone by construction — see the module docstring.
ADMIT_FRACTIONS = {
    PRIO_CRITICAL: 1.0,
    PRIO_NORMAL: 0.9,
    PRIO_BULK: 0.5,
}


class SerialQueue:
    """One server, FIFO order, deterministic busy-until bookkeeping.

    ``reset()`` models a crash wiping the in-flight work: completions
    already scheduled against the old epoch become no-ops (optionally
    reported through the ``on_stale`` hook) instead of firing into the
    restarted server.
    """

    def __init__(self, sim, max_depth=None, max_backlog_s=None):
        if max_depth is not None and max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1 when set")
        if max_backlog_s is not None and max_backlog_s <= 0.0:
            raise ConfigurationError("max_backlog_s must be > 0 when set")
        self.sim = sim
        self._busy_until = 0.0
        self.max_delay_s = 0.0
        self.submitted = 0
        #: observability hook: a Histogram recording per-item queue wait;
        #: None (the default) keeps the off path to a single test
        self.wait_hist = None
        self.max_depth = max_depth
        self.max_backlog_s = max_backlog_s
        #: items queued or in service right now
        self.depth = 0
        self.max_depth_seen = 0
        self.shed_total = 0
        self.shed_by_class = {
            PRIO_CRITICAL: 0, PRIO_NORMAL: 0, PRIO_BULK: 0,
        }
        #: optional list capturing ``(now, priority, admitted, pressure)``
        #: per admission decision — the priority-inversion property test
        #: reads it; None (the default) is free
        self.admission_log = None
        #: optional ``fn(work_fn, args)`` hook invoked when a completion
        #: scheduled before a ``reset()`` fires against the new epoch
        self.on_stale = None
        self._epoch = 0

    @property
    def bounded(self):
        return self.max_depth is not None or self.max_backlog_s is not None

    @property
    def pressure(self):
        """Utilisation of the tightest configured bound, 0.0 if none.

        1.0 means at capacity; admission thresholds are fractions of
        this scale.
        """
        pressure = 0.0
        if self.max_depth is not None:
            pressure = self.depth / self.max_depth
        if self.max_backlog_s is not None:
            pressure = max(pressure, self.backlog_s / self.max_backlog_s)
        return pressure

    def admit(self, priority=PRIO_NORMAL):
        """Admission check with shed accounting; True means go submit.

        Unbounded queues admit everything.  Bounded queues admit a
        class only while pressure is below its ``ADMIT_FRACTIONS``
        threshold, so bulk work sheds first as pressure builds.
        """
        pressure = self.pressure
        admitted = (not self.bounded) or pressure < ADMIT_FRACTIONS[priority]
        if self.admission_log is not None:
            self.admission_log.append(
                (self.sim.now, priority, admitted, pressure))
        if not admitted:
            self.shed_total += 1
            self.shed_by_class[priority] += 1
        return admitted

    def try_submit(self, service_s, fn, *args, priority=PRIO_NORMAL):
        """Admission-checked submit; ``True``, or ``None`` when shed."""
        if not self.admit(priority):
            return None
        self.submit(service_s, fn, *args)
        return True

    def submit(self, service_s, fn, *args):
        """Queue ``fn(*args)`` behind current work for ``service_s``.

        Unchecked: the caller has already passed admission (or the
        queue is unbounded).  The work is posted, not scheduled: nothing
        cancels it, and :meth:`reset` discards it by epoch instead.
        """
        now = self.sim.now
        start = max(now, self._busy_until)
        self._busy_until = start + service_s
        self.max_delay_s = max(self.max_delay_s, start - now)
        self.submitted += 1
        self.depth += 1
        if self.depth > self.max_depth_seen:
            self.max_depth_seen = self.depth
        if self.wait_hist is not None:
            self.wait_hist.record(start - now)
        self.sim.post(self._busy_until - now, self._run, self._epoch, fn, args)

    def _run(self, epoch, fn, args):
        if epoch != self._epoch:
            # Scheduled before a reset (crash): the work is gone.
            if self.on_stale is not None:
                self.on_stale(fn, args)
            return
        self.depth -= 1
        fn(*args)

    def reset(self):
        """Crash semantics: drop queued work, free the server."""
        self._epoch += 1
        self._busy_until = 0.0
        self.depth = 0

    @property
    def backlog_s(self):
        """Work currently queued ahead of a new arrival, in seconds."""
        return max(0.0, self._busy_until - self.sim.now)
