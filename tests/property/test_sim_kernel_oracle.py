"""Model-based test: the simulation kernel against a sort on ``(time, seq)``.

A hypothesis state machine drives one ``Simulator`` — ``schedule`` /
``schedule_at`` / ``schedule_daemon`` on a coarse time grid (so equal
timestamps are the norm), cancels of pending, fired and already
cancelled handles (from outside and from inside a firing callback,
including a callback cancelling its own handle), cancel storms that
trip the automatic compaction, forced ``compact()``, and every way of
advancing: ``run(until=)``, ``run(max_events=)``, ``run()``, each with
and without ``profile=``, and ``step()``.

The reference keeps a plain list and picks ``min`` by ``(time, seq)``;
after every step the fire order, ``now``, ``pending``, ``daemons``,
``tombstones`` and each handle's ``cancelled`` must agree.  Pop order
feeds every determinism digest in the repository, so this is the test
that lets the heap's entry layout change.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.obs.profile import EventProfile
from repro.sim import Simulator
from repro.sim.events import EventQueue

PENDING, CANCELLED, FIRED = "pending", "cancelled", "fired"

#: half-second grid: collisions, zero delays and a few distinct instants
grid = st.sampled_from([0.0, 0.0, 0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
#: what a callback does besides logging itself: nothing, schedule a
#: child ``delay`` later, or cancel handle ``index % len(handles)``
actions = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), grid),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
)
profiled = st.booleans()


class _Ref:
    """The reference's view of one scheduled event."""

    def __init__(self, time, seq, daemon, action):
        self.time = time
        self.seq = seq
        self.daemon = daemon
        self.action = action
        self.state = PENDING


class KernelOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.handles = []       # index -> Event, in scheduling order
        self.fired = []         # indices, in the order the kernel fired them
        self.refs = []          # index -> _Ref, same indexing as handles
        self.queued = []        # refs the kernel's heap still holds
        self.model_fired = []
        self.model_now = 0.0

    # -- the kernel side -------------------------------------------------------
    def _callback(self, index, action):
        def fire():
            self.fired.append(index)
            if action is None:
                return
            kind, value = action
            if kind == "spawn":
                self._schedule_real("schedule", value, None)
            else:
                self.sim.cancel(self.handles[value % len(self.handles)])
        return fire

    def _schedule_real(self, verb, when, action):
        callback = self._callback(len(self.handles), action)
        self.handles.append(getattr(self.sim, verb)(when, callback))

    # -- the reference ---------------------------------------------------------
    def _schedule_model(self, time, daemon, action):
        ref = _Ref(time, len(self.refs), daemon, action)
        self.refs.append(ref)
        self.queued.append(ref)

    def _count(self, state, daemon=None):
        return sum(1 for ref in self.queued if ref.state == state
                   and (daemon is None or ref.daemon == daemon))

    def _cancel_model(self, ref):
        if ref.state != PENDING:
            return      # fired or already cancelled: the handle is inert
        ref.state = CANCELLED
        dead = self._count(CANCELLED)
        if dead > EventQueue.COMPACT_FLOOR and dead > self._count(PENDING, False):
            self._compact_model()

    def _compact_model(self):
        self.queued = [ref for ref in self.queued if ref.state == PENDING]

    def _run_model(self, until=None, max_events=None):
        processed = 0
        while self.queued:
            ref = min(self.queued, key=lambda r: (r.time, r.seq))
            if ref.state == CANCELLED:
                self.queued.remove(ref)     # a tombstone reaching the top
                continue
            if until is not None:
                if ref.time > until:
                    break
            elif not self._count(PENDING, False):
                break
            if max_events is not None and processed >= max_events:
                break
            self.queued.remove(ref)
            ref.state = FIRED
            self.model_now = ref.time
            self.model_fired.append(ref.seq)
            if ref.action is not None:
                kind, value = ref.action
                if kind == "spawn":
                    self._schedule_model(self.model_now + value, False, None)
                else:
                    self._cancel_model(self.refs[value % len(self.refs)])
            processed += 1
        if until is not None and self.model_now < until:
            self.model_now = until
        return processed

    # -- rules -----------------------------------------------------------------
    @rule(delay=grid, action=actions)
    def schedule(self, delay, action):
        self._schedule_real("schedule", delay, action)
        self._schedule_model(self.model_now + delay, False, action)

    @rule(offset=grid, action=actions)
    def schedule_at(self, offset, action):
        self._schedule_real("schedule_at", self.sim.now + offset, action)
        self._schedule_model(self.model_now + offset, False, action)

    @rule(delay=grid, action=actions)
    def schedule_daemon(self, delay, action):
        self._schedule_real("schedule_daemon", delay, action)
        self._schedule_model(self.model_now + delay, True, action)

    @rule(index=st.integers(0, 10_000))
    def cancel(self, index):
        if self.handles:
            index %= len(self.handles)
            self.sim.cancel(self.handles[index])
            self._cancel_model(self.refs[index])

    @rule(delays=st.lists(grid, min_size=EventQueue.COMPACT_FLOOR + 2,
                          max_size=EventQueue.COMPACT_FLOOR + 20),
          keep=st.integers(0, 5))
    def cancel_storm(self, delays, keep):
        first = len(self.handles)
        for delay in delays:
            self.schedule(delay, None)
        for index in range(first + keep, len(self.handles)):
            self.cancel(index)

    @rule()
    def compact(self):
        self.sim._queue.compact()
        self._compact_model()

    def _run_both(self, with_profile, **limits):
        profile = EventProfile() if with_profile else None
        processed = self.sim.run(profile=profile, **limits)
        assert processed == self._run_model(**limits)
        if with_profile:
            assert profile.events == processed

    @rule(offset=grid, with_profile=profiled)
    def run_until(self, offset, with_profile):
        self._run_both(with_profile, until=self.sim.now + offset)

    @rule(count=st.integers(0, 6), with_profile=profiled)
    def run_max_events(self, count, with_profile):
        self._run_both(with_profile, max_events=count)

    @rule(offset=grid, count=st.integers(0, 6), with_profile=profiled)
    def run_until_capped(self, offset, count, with_profile):
        self._run_both(with_profile, until=self.sim.now + offset,
                       max_events=count)

    @rule(with_profile=profiled)
    def run_to_idle(self, with_profile):
        self._run_both(with_profile)

    @rule()
    def step(self):
        assert self.sim.step() == (self._run_model(max_events=1) == 1)

    # -- what must agree after every step ----------------------------------------
    @invariant()
    def same_fire_order_and_clock(self):
        assert self.fired == self.model_fired
        assert self.sim.now == self.model_now
        assert self.sim.events_processed == len(self.model_fired)

    @invariant()
    def same_counts(self):
        queue = self.sim._queue
        assert self.sim.pending == len(queue) == self._count(PENDING, False)
        assert bool(queue) == (self._count(PENDING, False) > 0)
        assert queue.daemons == self._count(PENDING, True)
        assert queue.tombstones == self._count(CANCELLED)

    @invariant()
    def same_handle_states(self):
        for handle, ref in zip(self.handles, self.refs):
            assert handle.cancelled == (ref.state == CANCELLED)
            assert (handle.time, handle.seq) == (ref.time, ref.seq)
            assert handle.daemon == ref.daemon


TestKernelOracle = KernelOracle.TestCase
TestKernelOracle.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
