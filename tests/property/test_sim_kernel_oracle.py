"""Model-based test: the simulation kernel against a sort on ``(time, seq)``.

A hypothesis state machine drives one ``Simulator`` — ``schedule`` /
``schedule_at`` / ``schedule_daemon`` / ``post`` on a coarse time grid
(so equal timestamps are the norm), posts and schedules from inside a
firing callback, cancels of pending, fired and already cancelled
handles (from outside and from inside a firing callback, including a
callback cancelling its own handle; a post has no handle, so no cancel
is ever aimed at one), cancel storms that trip the automatic
compaction, forced ``compact()``, ``EventQueue.peek_time()``/``pop()``
over the mixed heap, and every way of advancing: ``run(until=)``,
``run(max_events=)``, both at once, ``run()``, each with and without
``profile=``, and ``step()``.

The reference keeps a plain list and picks ``min`` by ``(time, seq)``,
numbering handle events and posts from one counter; after every step
the fire order, ``now``, ``pending`` (posts included), ``daemons``,
``tombstones`` (never a post) and each handle's ``cancelled`` must
agree, the clock must never go backwards, and it must never stand past
an event still queued.  Pop order feeds every determinism digest in the
repository, so this is the test that lets the heap's entry layout
change.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.obs.profile import EventProfile
from repro.sim import Simulator
from repro.sim.events import FIRED as EVENT_FIRED
from repro.sim.events import EventQueue

PENDING, CANCELLED, FIRED = "pending", "cancelled", "fired"

#: half-second grid: collisions, zero delays and a few distinct instants
grid = st.sampled_from([0.0, 0.0, 0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
#: what a callback does besides logging itself: nothing, schedule or
#: post a child ``delay`` later, or cancel handle ``index % len(handles)``
actions = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), grid),
    st.tuples(st.just("spawn_post"), grid),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
)
profiled = st.booleans()


class _Ref:
    """The reference's view of one scheduled event."""

    def __init__(self, time, seq, daemon, action, post):
        self.time = time
        self.seq = seq
        self.daemon = daemon
        self.action = action
        self.post = post
        self.state = PENDING


def _pick(indices, value):
    """The cancel target both sides derive from the same draw."""
    return indices[value % len(indices)] if indices else None


class KernelOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.handles = []       # index -> Event, or None for a post
        self.fired = []         # indices, in the order the kernel fired them
        self.refs = []          # index -> _Ref, same indexing as handles
        self.queued = []        # refs the kernel's heap still holds
        self.model_fired = []
        self.model_now = 0.0
        self.model_processed = 0    # fired by run()/step(), not by pop()
        self.last_now = 0.0

    # -- the kernel side -------------------------------------------------------
    def _callback(self, index, action):
        def fire():
            self.fired.append(index)
            if action is None:
                return
            kind, value = action
            if kind == "spawn":
                self._schedule_real("schedule", value, None)
            elif kind == "spawn_post":
                self._schedule_real("post", value, None)
            else:
                target = _pick([i for i, h in enumerate(self.handles)
                                if h is not None], value)
                if target is not None:
                    self.sim.cancel(self.handles[target])
        return fire

    def _schedule_real(self, verb, when, action):
        callback = self._callback(len(self.handles), action)
        self.handles.append(getattr(self.sim, verb)(when, callback))

    # -- the reference ---------------------------------------------------------
    def _schedule_model(self, time, daemon, action, post=False):
        ref = _Ref(time, len(self.refs), daemon, action, post)
        self.refs.append(ref)
        self.queued.append(ref)

    def _count(self, state, daemon=None):
        return sum(1 for ref in self.queued if ref.state == state
                   and (daemon is None or ref.daemon == daemon))

    def _cancel_model(self, ref):
        assert not ref.post, "a post has no handle to cancel"
        if ref.state != PENDING:
            return      # fired or already cancelled: the handle is inert
        ref.state = CANCELLED
        dead = self._count(CANCELLED)
        if dead > EventQueue.COMPACT_FLOOR and dead > self._count(PENDING, False):
            self._compact_model()

    def _compact_model(self):
        self.queued = [ref for ref in self.queued if ref.state == PENDING]

    def _earliest_live(self):
        """Drop tombstones off the top; the earliest pending ref or None."""
        while self.queued:
            ref = min(self.queued, key=lambda r: (r.time, r.seq))
            if ref.state != CANCELLED:
                return ref
            self.queued.remove(ref)
        return None

    def _fire_model(self, ref):
        self.queued.remove(ref)
        ref.state = FIRED
        self.model_fired.append(ref.seq)
        if ref.action is not None:
            kind, value = ref.action
            if kind == "spawn":
                self._schedule_model(self.model_now + value, False, None)
            elif kind == "spawn_post":
                self._schedule_model(self.model_now + value, False, None,
                                     post=True)
            else:
                target = _pick([r.seq for r in self.refs if not r.post],
                               value)
                if target is not None:
                    self._cancel_model(self.refs[target])

    def _run_model(self, until=None, max_events=None):
        """The documented contract: fire in ``(time, seq)`` order, and
        advance to ``until`` only when nothing due by then is left."""
        processed = 0
        capped = False
        while True:
            ref = self._earliest_live()
            if ref is None:
                break
            if until is not None:
                if ref.time > until:
                    break
            elif not self._count(PENDING, False):
                break
            if max_events is not None and processed >= max_events:
                capped = True
                break
            self.model_now = ref.time
            self._fire_model(ref)
            processed += 1
        if until is not None and not capped and self.model_now < until:
            self.model_now = until
        self.model_processed += processed
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

    @rule(delay=grid, action=actions)
    def post(self, delay, action):
        self._schedule_real("post", delay, action)
        self._schedule_model(self.model_now + delay, False, action, post=True)

    @rule(index=st.integers(0, 10_000))
    def cancel(self, index):
        target = _pick([i for i, h in enumerate(self.handles)
                        if h is not None], index)
        if target is not None:
            self.sim.cancel(self.handles[target])
            self._cancel_model(self.refs[target])

    @rule(delays=st.lists(grid, min_size=EventQueue.COMPACT_FLOOR + 2,
                          max_size=EventQueue.COMPACT_FLOOR + 20),
          keep=st.integers(0, 5), posts=st.integers(0, 8))
    def cancel_storm(self, delays, keep, posts):
        first = len(self.handles)
        for delay in delays:
            self.schedule(delay, None)
        for delay in delays[:posts]:
            self.post(delay, None)      # live entries a storm cannot reach
        for index in range(first + keep, first + len(delays)):
            self.sim.cancel(self.handles[index])
            self._cancel_model(self.refs[index])

    @rule()
    def compact(self):
        self.sim._queue.compact()
        self._compact_model()

    @rule()
    def pop_from_queue(self):
        """``EventQueue.peek_time``/``pop`` straight off the mixed heap.

        The clock stays put, as it does for any queue-level pop.
        """
        queue = self.sim._queue
        ref = self._earliest_live()
        assert queue.peek_time() == (None if ref is None else ref.time)
        if ref is None:
            return
        event = queue.pop()
        assert (event.time, event.seq) == (ref.time, ref.seq)
        assert event.state == EVENT_FIRED and event.daemon == ref.daemon
        if not ref.post:
            assert event is self.handles[ref.seq]
        event.fire()
        self._fire_model(ref)

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
        assert self.sim.events_processed == self.model_processed

    @invariant()
    def clock_is_monotone_and_never_past_work(self):
        assert self.sim.now >= self.last_now
        self.last_now = self.sim.now
        for entry in self.sim._queue._heap:
            if len(entry) == 4 or not entry[2].cancelled:
                assert self.sim.now <= entry[0]
        for ref in self.queued:
            if ref.state == PENDING:
                assert self.model_now <= ref.time

    @invariant()
    def same_counts(self):
        queue = self.sim._queue
        assert self.sim.pending == len(queue) == self._count(PENDING, False)
        assert bool(queue) == (self._count(PENDING, False) > 0)
        assert queue.daemons == self._count(PENDING, True)
        assert queue.tombstones == self._count(CANCELLED)
        assert sum(1 for entry in queue._heap if len(entry) == 4) == sum(
            1 for ref in self.queued if ref.post)

    @invariant()
    def same_handle_states(self):
        for handle, ref in zip(self.handles, self.refs):
            if handle is None:
                assert ref.post
                continue
            assert handle.cancelled == (ref.state == CANCELLED)
            assert (handle.time, handle.seq) == (ref.time, ref.seq)
            assert handle.daemon == ref.daemon


TestKernelOracle = KernelOracle.TestCase
TestKernelOracle.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
