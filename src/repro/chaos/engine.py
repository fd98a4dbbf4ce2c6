"""ChaosEngine: replaying a fault schedule against a live deployment.

The engine is deliberately thin: it owns *when*, the network facades
own *how*.  At :meth:`arm` time every fault in the schedule is turned
into simulator events that call the target network's chaos verbs
(``fail_link`` / ``crash_routing_server`` / ``partition_site`` / ...,
see :data:`~repro.chaos.schedule.KIND_VERBS`), and the paired heal
verbs ``heal_after_s`` later.  Everything the engine does is recorded
in a JSON-able :attr:`trace` — the artifact the CI chaos lane uploads,
and the thing you diff when two seeds behave differently.

Composition with the rest of the suite:

* hand the engine a :class:`~repro.chaos.probes.ProbeMonitor` and it
  marks every injection on it, turning probe rounds into
  fault-to-repair reconvergence delays;
* after the schedule drains and the simulation settles, run
  :func:`~repro.chaos.oracle.assert_healed` — the engine guarantees a
  fully-healed schedule leaves no verb un-reversed, the oracle checks
  the control plane actually converged back to truth.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.chaos.schedule import KIND_VERBS


class ChaosEngine:
    """Applies a :class:`~repro.chaos.schedule.ChaosSchedule` to a net."""

    def __init__(self, net, schedule, monitor=None):
        self.net = net
        self.schedule = schedule
        self.monitor = monitor
        #: [{"t", "action", "kind", "args"}] in execution order
        self.trace = []
        self.faults_injected = 0
        self.faults_healed = 0
        self._armed = False
        for fault in schedule:
            inject_verb, heal_verb = KIND_VERBS[fault.kind]
            for verb in (inject_verb, heal_verb):
                if not hasattr(net, verb):
                    raise ConfigurationError(
                        "%s cannot run %r faults: no %s()"
                        % (type(net).__name__, fault.kind, verb)
                    )

    def arm(self):
        """Schedule every fault relative to the current sim time."""
        if self._armed:
            raise ConfigurationError("chaos engine already armed")
        self._armed = True
        for fault in self.schedule:
            self.net.sim.post(fault.at, self._inject, fault)

    # ------------------------------------------------------------------ execution
    def _record(self, action, fault):
        self.trace.append({
            "t": round(self.net.sim.now, 9),
            "action": action,
            "kind": fault.kind,
            "args": fault.as_dict()["args"],
        })

    def _inject(self, fault):
        self._record("inject", fault)
        getattr(self.net, KIND_VERBS[fault.kind][0])(*fault.args)
        self.faults_injected += 1
        if self.monitor is not None:
            self.monitor.mark()
        if fault.heal_after_s is not None:
            self.net.sim.post(fault.heal_after_s, self._heal, fault)

    def _heal(self, fault):
        self._record("heal", fault)
        getattr(self.net, KIND_VERBS[fault.kind][1])(*fault.args)
        self.faults_healed += 1

    # ------------------------------------------------------------------ reporting
    def summary(self):
        return {
            "faults_injected": self.faults_injected,
            "faults_healed": self.faults_healed,
            "schedule_digest": self.schedule.digest(),
            "trace_events": len(self.trace),
        }

    def __repr__(self):
        return "ChaosEngine(faults=%d, injected=%d, healed=%d)" % (
            len(self.schedule), self.faults_injected, self.faults_healed
        )
