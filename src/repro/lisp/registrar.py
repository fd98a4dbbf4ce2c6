"""The pacing half of a registration client, shared by edge and WLC.

Both registrars (:class:`repro.fabric.edge.EdgeRouter` for wired
endpoints, :class:`repro.wireless.wlc.FabricWlc` for stations) send
Map-Registers the same way: per-server flush-window batches, a window
that widens while the server signals overload, and a per-server circuit
breaker in front of the resend path.  :class:`RegisterPacer` is the
single copy of that, and it reads its knobs from the fabric's config, so
a knob set once on :class:`repro.fabric.FabricConfig` reaches every
registrar.  The pending-ack tables stay with the devices: the edge
tracks a message nonce, the WLC pins ``(vn, eid)`` to a nonce with
completion semantics, and sharing those would make this class branch on
its caller.
"""

from __future__ import annotations

from functools import partial

from repro.core.batching import Batcher
from repro.core.breaker import CircuitBreaker


class RegisterPacer:
    """Batch windows, AIMD backpressure and breakers of one registrar.

    ``flush(server_rloc, records)`` is the device's callback that turns a
    flushed batch into a Map-Register; ``rng`` is the device's seeded RNG
    (breaker cool-down jitter draws from it).
    """

    #: ceiling of the backpressure factor
    MAX_FACTOR = 8.0

    def __init__(self, sim, config, rng, flush):
        self.sim = sim
        self.flush_s = config.register_flush_s
        self.backpressure = config.backpressure
        self.breaker_policy = config.breaker
        self.retry = config.register_retry
        self._rng = rng
        self._flush = flush
        #: multiplier on the batch window (and the edge's refresh period)
        self.factor = 1.0
        self.overload_acks = 0
        #: resends held back because a breaker was open
        self.deferrals = 0
        self.batchers = {}    # server rloc -> Batcher of EidRecord
        self.breakers = {}    # server rloc -> CircuitBreaker
        self._flush_hist = None

    def batcher(self, server_rloc):
        """The open-batch coalescer for one server (created on first use)."""
        batcher = self.batchers.get(server_rloc)
        if batcher is None:
            batcher = self.batchers[server_rloc] = Batcher(
                self.sim, partial(self._flush, server_rloc),
                window_s=self.flush_s * self.factor)
            batcher.flush_hist = self._flush_hist
        return batcher

    def observe_flushes(self, hist):
        """Record every batch's size into ``hist`` (observability hook)."""
        self._flush_hist = hist
        for batcher in self.batchers.values():
            batcher.flush_hist = hist

    def _breaker(self, server_rloc):
        breaker = self.breakers.get(server_rloc)
        if breaker is None:
            breaker = self.breakers[server_rloc] = CircuitBreaker(
                self.sim, self.breaker_policy, rng=self._rng)
        return breaker

    def on_ack(self, server_rloc, overloaded):
        """A registration was acked: the server answers, maybe under load."""
        if self.breaker_policy is not None:
            self._breaker(server_rloc).record_success()
        if self.backpressure:
            self._note_backpressure(overloaded)

    def _note_backpressure(self, overloaded):
        """Adapt signaling cadence to the server's in-band overload bit.

        Multiplicative increase on an overloaded ack, halving decay on a
        clean one (AIMD-flavoured, bounded by ``MAX_FACTOR``).  The
        factor widens the batch flush windows immediately and stretches
        the edge's refresh period at its next rearm.
        """
        factor = self.factor
        if overloaded:
            self.overload_acks += 1
            factor = min(self.MAX_FACTOR, factor * 2.0)
        else:
            factor = max(1.0, factor * 0.5)
        if factor != self.factor:
            self.factor = factor
            for batcher in self.batchers.values():
                batcher.window_s = self.flush_s * factor

    def deferred(self, server_rloc, retry, *args):
        """An ack timed out: may the resend go out now?

        True means no: the breaker is open, so the registration is held
        instead of feeding a retry storm and ``retry(*args)`` is called
        again when the breaker half-opens.  The caller must not burn a
        retry attempt on a deferral.
        """
        if self.breaker_policy is None:
            return False
        breaker = self._breaker(server_rloc)
        breaker.record_failure()
        if breaker.allow():
            return False
        self.deferrals += 1
        self.sim.post(max(breaker.remaining_s, self.retry.base_s),
                      retry, *args)
        return True

    def reset(self):
        """The device rebooted: open batches, breakers and factor are gone."""
        self.breakers = {}
        self.factor = 1.0
        for batcher in self.batchers.values():
            batcher.discard()
            batcher.window_s = self.flush_s

    @property
    def breaker_opens(self):
        return sum(breaker.opens for breaker in self.breakers.values())

    @property
    def backlog(self):
        """Records waiting in open batches."""
        return sum(batcher.pending for batcher in self.batchers.values())
