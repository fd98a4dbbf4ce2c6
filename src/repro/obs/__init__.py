"""repro.obs — simulation-time observability (tracing/metrics/profiling).

Everything here is **off by default** and follows the fast-path knob
contract from PRs 3–4: with no flags set, the simulator carries the
shared disabled :data:`NULL_TRACER`, every histogram hook is ``None``,
and no samples, spans or snapshots are ever allocated — the
determinism digests are byte-identical to an uninstrumented run
(``tests/test_obs_determinism.py``, and ``python -m repro.tools.report
--out-dir DIR`` prints the same pinned digests as a plain run).

Typical use::

    from repro import obs

    workload = DistributedWirelessCampusWorkload(profile)
    workload.bring_up()
    bundle = obs.enable(workload, tracing=True, metrics=True,
                        sample_interval_s=1.0)
    workload.run(duration_s=60)
    bundle.tracer.export_jsonl("trace.jsonl")
    bundle.tracer.export_chrome("trace_chrome.json")   # Perfetto
    bundle.metrics.export_jsonl("metrics.jsonl")
"""

from __future__ import annotations

from repro.obs.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS_S,
    Histogram,
    MetricRegistry,
)
from repro.obs.profile import EventProfile
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "COUNT_BOUNDS",
    "LATENCY_BOUNDS_S",
    "EventProfile",
    "Histogram",
    "MetricRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observability",
    "Span",
    "Tracer",
    "enable",
    "instrument",
]


class Observability:
    """A tracer + metric registry bound to one simulator.

    Constructing the bundle installs its tracer on ``sim.tracer`` (the
    handle every instrumented device reads) and, when metrics are on,
    wires the kernel gauges and starts the daemon-event sampler.
    """

    def __init__(self, sim, tracing=False, metrics=False, max_spans=None,
                 sample_interval_s=None):
        self.sim = sim
        self.tracer = Tracer(sim, enabled=tracing, max_spans=max_spans)
        self.metrics = MetricRegistry(sim)
        self.metrics_enabled = metrics
        sim.tracer = self.tracer
        sim.metrics = self.metrics if metrics else None
        if metrics:
            self.metrics.enroll_sim(sim)
            if sample_interval_s is not None:
                self.metrics.start(sample_interval_s)

    def detach(self):
        """Restore the simulator's default (disabled) handles."""
        self.metrics.stop()
        self.sim.tracer = NULL_TRACER
        self.sim.metrics = None

    def __repr__(self):
        return "Observability(tracing=%s, metrics=%s)" % (
            self.tracer.enabled, self.metrics_enabled
        )


def _find_sim(target):
    for attr in ("sim", "net", "wireless", "fabric"):
        obj = getattr(target, attr, None)
        if obj is None:
            continue
        if attr == "sim":
            return obj
        sim = _find_sim(obj)
        if sim is not None:
            return sim
    return None


def enable(target, tracing=True, metrics=True, max_spans=None,
           sample_interval_s=None):
    """One-call setup: build a bundle and instrument a topology.

    ``target`` may be a workload, a wireless facade, or a bare network;
    its simulator is discovered via ``.sim`` (directly or through
    ``.net`` / ``.wireless`` / ``.fabric``).  Returns the
    :class:`Observability` bundle for export calls.
    """
    sim = _find_sim(target)
    if sim is None:
        raise TypeError("no simulator found on %r" % type(target).__name__)
    bundle = Observability(sim, tracing=tracing, metrics=metrics,
                           max_spans=max_spans,
                           sample_interval_s=sample_interval_s)
    if bundle.metrics_enabled or bundle.tracer.enabled:
        instrument(bundle, target)
    return bundle


from repro.obs.instrument import instrument  # noqa: E402  (cycle-free tail import)
