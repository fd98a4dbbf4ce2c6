"""Shadow-stack tracer: per-layer self time from outside ``src/``.

The traced run wraps the entry points of every layer (``layers.py``) in
class-level timing shims.  Shims sit on the *class* because several hot
classes (``MapCache``, ``PatriciaTrie``, ``MegaflowCache``, ``Batcher``)
use ``__slots__`` and cannot be patched per instance; they must
therefore be installed before a workload builds its objects, so that
bound methods handed out as callbacks already point at the shim.

Every shim pushes a frame on one shadow stack.  When it pops, its
inclusive time is added to its parent's child time, so

    self = inclusive - time covered by child spans

and the self times of a call tree sum to the root's inclusive time by
construction — the books close without a fudge term.  Simulator event
callbacks are the roots of the tree: ``Simulator.run`` is shimmed to
pass a :class:`RootProfile` through its ``profile=`` hook, which opens a
frame per event, so ``sim.kernel`` self time is exactly run wall minus
the callbacks' wall.

Spans (name, start, end, parent, root id) are kept in memory for the
first ``FULL_ROOTS`` roots and one root in ``SAMPLE_EVERY`` after that,
and written out by the caller once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time

from repro.obs.profile import EventProfile
from repro.sim.simulator import Simulator

FULL_ROOTS = 2000
SAMPLE_EVERY = 256

#: component of an event callback (or any time) no shim owns
UNATTRIBUTED = "unattributed"
KERNEL = "sim.kernel"

# frame layout: [component, child_s, span_id]
_COMP, _CHILD, _SPAN = 0, 1, 2


class Tracer:
    """Aggregates and sampled spans of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[UNATTRIBUTED, 0.0, -1]]
        self._installed = []      # (holder, name, original) for removal
        self.profile = RootProfile(self)
        #: component -> [self_s, calls]; calls = entries from another component
        self.agg = {}
        #: tap name -> recorded values
        self.taps = {}
        self.spans = []
        self.reset()

    def reset(self):
        """Forget everything measured so far (set-up is not reported).

        Cleared in place: the shims hold references to these containers.
        """
        self.agg.clear()
        self.taps.clear()
        self.spans.clear()
        self.roots = 0
        self.recording = True
        self._next_span = 0

    # ------------------------------------------------------------------ frames
    def push(self, comp):
        """Open a frame; returns it (pair with :meth:`pop`)."""
        span = -1
        if self.recording:
            span = self._next_span
            self._next_span += 1
        frame = [comp, 0.0, span]
        self.stack.append(frame)
        return frame

    def pop(self, frame, start, end, comp=None, count_call=True):
        """Close ``frame``: bill self time, credit the parent's child time."""
        stack = self.stack
        if stack.pop() is not frame:
            self._unwind(frame)
        parent = stack[-1]
        inclusive = end - start
        parent[_CHILD] += inclusive
        if comp is None:
            comp = frame[_COMP]
        cell = self.agg.get(comp)
        if cell is None:
            cell = self.agg[comp] = [0.0, 0]
        cell[0] += inclusive - frame[_CHILD]
        if count_call and parent[_COMP] != comp and parent[_COMP] is not None:
            cell[1] += 1
        if frame[_SPAN] >= 0:
            self.spans.append((comp, start, end, parent[_SPAN],
                               self.roots, frame[_SPAN]))

    def _unwind(self, frame):
        """An exception skipped the close of frames above ``frame``."""
        stack = self.stack
        while frame in stack:
            stack.pop()

    def begin_root(self):
        """A new root (simulator event or top-level block) starts."""
        self.roots += 1
        self.recording = (self.roots <= FULL_ROOTS
                          or self.roots % SAMPLE_EVERY == 0)

    def span(self, comp):
        """Context manager timing a block as one span of ``comp``."""
        return _Span(self, comp)

    # ------------------------------------------------------------------ shims
    def wrap(self, function, comp, by_type=None, tap=None):
        """Return ``function`` wrapped in a timing shim for ``comp``.

        ``by_type`` maps ``type(self)`` to another component (methods
        inherited by a class of another layer); ``tap(tracer, args)``
        runs before the call to record a value at the boundary.
        """
        tracer = self
        stack = self.stack
        clock = self.clock
        agg = self.agg
        spans = self.spans

        @functools.wraps(function)
        def shim(*args, **kwargs):
            owner = comp
            if by_type is not None:
                owner = by_type.get(type(args[0]), comp)
            if tap is not None:
                tap(tracer, args)
            parent = stack[-1]
            if parent[0] == owner:
                # Already inside this component: a helper calling a
                # helper is one span, not two (same self time, and most
                # of the shim cost saved).
                return function(*args, **kwargs)
            # push()/pop() inlined: this runs millions of times per rep
            span = -1
            if tracer.recording:
                span = tracer._next_span
                tracer._next_span = span + 1
            frame = [owner, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                if stack.pop() is not frame:
                    tracer._unwind(frame)
                    parent = stack[-1]
                inclusive = end - start
                parent[1] += inclusive
                cell = agg.get(owner)
                if cell is None:
                    cell = agg[owner] = [0.0, 0]
                cell[0] += inclusive - frame[1]
                if parent[0] is not None:
                    cell[1] += 1
                if span >= 0:
                    spans.append((owner, start, end, parent[2],
                                  tracer.roots, span))

        return shim

    def install(self, entries):
        """Install shims for resolved layer entries (``layers.resolve``)."""
        for entry in entries:
            shim = self.wrap(entry["function"], entry["component"],
                             by_type=entry.get("by_type"), tap=entry.get("tap"))
            for holder, name in entry["holders"]:
                self._patch(holder, name, shim)
        self._patch(Simulator, "run", self._kernel_run(Simulator.__dict__["run"]))

    def _patch(self, holder, name, value):
        self._installed.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    def _kernel_run(self, original):
        """``Simulator.run`` becomes the ``sim.kernel`` span and always
        runs the profiled loop, which opens one root frame per event."""
        tracer = self

        @functools.wraps(original)
        def run(sim, until=None, max_events=None, profile=None):
            if profile is None:
                profile = tracer.profile
            frame = tracer.push(KERNEL)
            start = tracer.clock()
            try:
                return original(sim, until=until, max_events=max_events,
                                profile=profile)
            finally:
                tracer.profile.abandon()
                tracer.pop(frame, start, tracer.clock())

        return run

    def remove(self):
        """Put every patched attribute back exactly as it was."""
        while self._installed:
            holder, name, original = self._installed.pop()
            setattr(holder, name, original)

    # ------------------------------------------------------------------ results
    def self_seconds(self):
        return {comp: cell[0] for comp, cell in self.agg.items()}

    def calls(self):
        return {comp: cell[1] for comp, cell in self.agg.items()}

    def span_records(self):
        for comp, start, end, parent, root, span in self.spans:
            yield {"name": comp, "start": start, "end": end,
                   "parent": parent, "root": root, "span": span}


class _Span:
    __slots__ = ("tracer", "comp", "frame", "start")

    def __init__(self, tracer, comp):
        self.tracer = tracer
        self.comp = comp

    def __enter__(self):
        tracer = self.tracer
        if len(tracer.stack) == 1:
            tracer.begin_root()
        self.frame = tracer.push(self.comp)
        self.start = tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer.pop(self.frame, self.start, self.tracer.clock())
        return False


class RootProfile(EventProfile):
    """``Simulator.run(profile=)`` hook that makes each event a root span.

    The profiled loop reads ``clock()`` right before a callback and once
    more while building the ``record()`` arguments, so the first read of
    each pair opens the root frame and ``record()`` closes it, billed to
    the layer that owns the callback.  The per-event-type table of the
    base class is not kept: at millions of events it would dominate the
    overhead the traced run reports.
    """

    def __init__(self, tracer):
        super().__init__(clock=self._clock)
        self.tracer = tracer
        self.owner_of = lambda callback: UNATTRIBUTED
        self._frame = None
        self._start = 0.0

    def _clock(self):
        now = self.tracer.clock()
        if self._frame is None:
            tracer = self.tracer
            tracer.begin_root()
            # component None until record() names the owner; shims nested
            # under it never count the dispatch as a cross-layer call
            self._frame = tracer.push(None)
            self._start = now
        return now

    def record(self, callback, wall_s, advance_s):
        frame, self._frame = self._frame, None
        self.tracer.pop(frame, self._start, self._start + wall_s,
                        comp=self.owner_of(callback), count_call=False)
        self.events += 1
        self.wall_s += wall_s

    def abandon(self):
        """A callback raised out of the loop: drop its open root."""
        self._frame = None


def owner_resolver(class_components):
    """``callback -> component`` for event roots.

    A bound method belongs to the component of its instance's class
    (first match along the MRO); anything else — closures, partials —
    stays unattributed.  Cached per class.
    """
    cache = {}

    def owner_of(callback):
        instance = getattr(callback, "__self__", None)
        if instance is None:
            return UNATTRIBUTED
        cls = type(instance)
        comp = cache.get(cls)
        if comp is None:
            comp = UNATTRIBUTED
            for base in cls.__mro__:
                if base in class_components:
                    comp = class_components[base]
                    break
            cache[cls] = comp
        return comp

    return owner_of


def function_holders(function, package="repro"):
    """Every loaded ``package`` module that binds ``function`` by name.

    ``from repro.net.vxlan import encapsulate`` copies the reference, so
    a module-level function has to be swapped in each importer.
    """
    holders = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package
                                  or module_name.startswith(package + ".")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                holders.append((module, name))
    return holders
