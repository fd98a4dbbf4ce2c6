"""Observability contract tests: obs-off determinism + the roam trace.

Two promises from the observability PR are locked in here:

1. **Zero behavioural footprint.**  Enabling the full bundle — tracing,
   metric registry, periodic daemon sampling — must not change a single
   counter in the workload ledgers: span ids come from tracer-local
   counters (not the message nonce stream) and the sampler rides daemon
   events, so the digest of an instrumented run is byte-identical to an
   uninstrumented one.
2. **Causal linkage.**  One cross-site roam with tracing on yields one
   trace that tells the whole story: the fabric-level roam root, the
   departed site's withdrawal, the foreign site's onboarding, and the
   away-signaling on both borders, each span on a site-scoped device.
"""

from repro import obs
from repro.stats import ledger_digest
from repro.tools import check_trace
from repro.tools.report import SCENARIOS
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)

_build_wireless = SCENARIOS["wireless_campus"][0]
_build_distributed = SCENARIOS["distributed_wireless_campus"][0]


def test_distributed_digest_identical_with_obs_fully_on():
    baseline = _build_distributed(seed=23)
    baseline.run(duration_s=12.0)
    workload = _build_distributed(seed=23)
    obs.enable(workload, tracing=True, metrics=True, sample_interval_s=0.5)
    workload.run(duration_s=12.0)
    assert workload.digest() == baseline.digest()


def test_wireless_campus_digest_identical_with_obs_fully_on():
    baseline = ledger_digest(_build_wireless(seed=23).run(duration_s=12.0))
    workload = _build_wireless(seed=23)
    bundle = obs.enable(workload, tracing=True, metrics=True,
                        sample_interval_s=0.5)
    instrumented = ledger_digest(workload.run(duration_s=12.0))
    assert instrumented == baseline
    # The run actually produced telemetry — this test must not pass
    # because instrumentation silently failed to attach.
    assert bundle.tracer.spans
    assert bundle.metrics.samples


def test_overload_storm_gauges_read_what_the_ledger_counts():
    build = SCENARIOS["overload_storm"][0]
    workload = build(seed=17)
    registry = obs.enable(workload, tracing=False).metrics
    workload.run(duration_s=6.0)
    ledger = workload.counter_ledger()
    gauges = registry.snapshot()["gauges"]
    assert ledger["server0.shed_total"] > 0
    assert gauges["routing-server-0.shed_total"] == ledger["server0.shed_total"]
    for edge in workload.fabric.edges:
        for key in ("stale_served", "breaker_deferrals", "bp_overload_acks"):
            name = "%s.%s" % (edge.name, key)
            assert gauges[name] == ledger[name]


# ---------------------------------------------------------------- acceptance
def test_cross_site_roam_yields_one_causally_linked_trace(tmp_path):
    workload = DistributedWirelessCampusWorkload(
        DistributedWirelessCampusProfile(
            num_sites=2,
            edges_per_site=2,
            stations_per_site=4,
        ),
        seed=11,
    )
    workload.bring_up()
    # Enable after bring-up so the roam is the only traced flow.
    bundle = obs.enable(workload, tracing=True, metrics=True,
                        sample_interval_s=0.5)
    station = workload.stations[0]                      # lives in site 0
    foreign_ap = workload.wireless.site_wireless[1].aps[0]
    completions = []
    workload.wireless.roam(
        station, foreign_ap,
        on_complete=lambda endpoint, accepted: completions.append(accepted),
    )
    workload.net.settle(max_time=30.0)
    assert completions == [True]

    tracer = bundle.tracer
    roots = [s for s in tracer.spans if s.name == "wireless_roam"]
    assert len(roots) == 1
    trace = tracer.traces()[roots[0].trace_id]
    # One cross-site roam = one causally-linked trace spanning devices
    # in both sites (the ISSUE acceptance bar: >= 8 spans, >= 2 sites).
    assert len(trace) >= 8
    names = {span.name for span in trace}
    assert "wlc_withdraw" in names          # departed-site teardown
    assert "wlc_associate" in names         # foreign-site onboarding
    assert "policy_auth" in names
    assert "wlc_register" in names
    assert "border_announce_away" in names  # away signaling home
    assert "border_away_anchor" in names
    sites = {
        span.device.split(".", 1)[0]
        for span in trace
        if span.device.startswith("site")
    }
    assert sites >= {"site0", "site1"}
    # Every non-root span parents on another span of the same trace.
    ids = {span.span_id for span in trace}
    for span in trace:
        if span is not roots[0]:
            assert span.parent_id in ids

    # The exports validate against the CI schema checker and load as
    # Chrome trace_event JSON.
    jsonl = tmp_path / "roam_trace.jsonl"
    chrome = tmp_path / "roam_trace_chrome.json"
    assert tracer.export_jsonl(str(jsonl)) == len(tracer.spans)
    tracer.export_chrome(str(chrome))
    spans, problems = check_trace.check_file(
        str(jsonl), min_spans=8, min_traces=1, min_sites=2
    )
    assert problems == []
    assert spans >= 8
    assert check_trace.check_chrome(str(chrome)) == []

    # Metric sampling rode the settle without wedging it, and the
    # snapshots carry normalized counter names.
    assert bundle.metrics.samples
    last = bundle.metrics.samples[-1]
    assert "site0.wlc" in last["counters"]
    assert "site1.wlc" in last["counters"]
