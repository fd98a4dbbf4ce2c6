"""Observability overhead: obs off vs metrics-only vs full tracing.

The observability PR's contract is the same one every fast-path knob
signed: **zero cost when off, bounded cost when on, zero behavioural
footprint always**.  This bench runs the identical inter-site wireless
workload (same profile, same seed) three times —

* ``off`` — the default: ``sim.tracer`` is the shared NULL_TRACER,
  every histogram hook is ``None``, no registry exists;
* ``metrics`` — registry enrolled over every device plus the 1 s
  daemon sampler, tracing off;
* ``tracing`` — the full bundle: spans on every control-plane verb,
  metrics and sampler as above

— and records wall-clock event throughput for each.  The trajectory
gate rides the ``*_speedup`` ratios (instrumented throughput over
baseline throughput, measured within one session so hardware cancels
out): if instrumentation cost creeps up, the ratio drops and
``check_trajectory.py`` fails the PR.

The behavioural half of the contract is asserted directly: all three
runs must produce the identical counter-ledger digest.
"""

import gc
import time

import pytest

from repro import obs
from repro.experiments.reporting import format_table
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)

_SITES = 2
_EDGES_PER_SITE = 2
_STATIONS_PER_SITE = 20
_DURATION_S = 25.0
_SEED = 29


def _run_mode(mode, fastpath_flags):
    workload = DistributedWirelessCampusWorkload(
        DistributedWirelessCampusProfile(
            num_sites=_SITES, edges_per_site=_EDGES_PER_SITE,
            stations_per_site=_STATIONS_PER_SITE,
            dwell_mean_s=8.0, flow_interval_s=1.0,
            intersite_roam_fraction=0.4,
            batching=fastpath_flags["batching"],
            session_cache=fastpath_flags["session_cache"],
            megaflow=fastpath_flags["megaflow"],
            packet_trains=fastpath_flags["packet_trains"],
        ),
        seed=_SEED,
    )
    bundle = None
    if mode != "off":
        bundle = obs.enable(
            workload,
            tracing=(mode == "tracing"),
            metrics=True,
            sample_interval_s=1.0,
        )
    # A ~0.1 s run late in a long pytest session: without this, the
    # session's pending full collection (~80 ms) lands in whichever mode
    # allocates across the gen-2 threshold — in practice "tracing".
    gc.collect()
    started = time.perf_counter()
    workload.run(duration_s=_DURATION_S)
    elapsed = time.perf_counter() - started
    events = workload.net.sim.events_processed
    return {
        "mode": mode,
        "elapsed_s": elapsed,
        "events": events,
        "events_per_s": events / max(elapsed, 1e-9),
        "spans": len(bundle.tracer.spans) if bundle else 0,
        "samples": len(bundle.metrics.samples) if bundle else 0,
        "digest": workload.digest(),
    }


@pytest.mark.figure("obs-overhead")
def test_obs_overhead_matrix(benchmark, report, trajectory, fastpath_flags):
    def _matrix():
        # Discarded warm-up: the first workload of a process pays the
        # import/allocator warm-up, which would otherwise be billed to
        # whichever mode runs first and skew the ratios.
        _run_mode("off", fastpath_flags)
        return [_run_mode(mode, fastpath_flags)
                for mode in ("off", "metrics", "tracing")]

    rows = benchmark.pedantic(_matrix, rounds=1, iterations=1)
    off, metrics_on, tracing_on = rows
    metrics_speedup = metrics_on["events_per_s"] / max(off["events_per_s"], 1e-9)
    tracing_speedup = tracing_on["events_per_s"] / max(off["events_per_s"], 1e-9)

    report(format_table(
        ["observability", "events", "wall s", "events/s", "spans", "samples"],
        [[row["mode"], row["events"], "%.3f" % row["elapsed_s"],
          "%.0f" % row["events_per_s"], row["spans"], row["samples"]]
         for row in rows],
        title="Observability overhead (%d sites x %d stations, %.0f s sim):"
              " off vs metrics vs full tracing"
              % (_SITES, _STATIONS_PER_SITE, _DURATION_S)))

    def slim(row):
        return {key: value for key, value in row.items() if key != "digest"}

    trajectory("obs_overhead", {
        "off": slim(off),
        "metrics": slim(metrics_on),
        "tracing": slim(tracing_on),
        # Gated ratios (higher is better): instrumented throughput over
        # baseline.  A creeping instrumentation cost drags these down
        # past the trajectory tolerance and fails CI.
        "metrics_on_speedup": metrics_speedup,
        "tracing_on_speedup": tracing_speedup,
    }, file="obs")

    # Zero behavioural footprint: the full counter-ledger digest is
    # identical whether observability is off, partial, or fully on.
    assert metrics_on["digest"] == off["digest"]
    assert tracing_on["digest"] == off["digest"]
    # The instrumented runs actually instrumented something.
    assert tracing_on["spans"] > 0
    assert metrics_on["samples"] > 0 and tracing_on["samples"] > 0
    assert metrics_on["spans"] == 0          # tracing stayed off
    # Sanity bound, deliberately loose for shared CI runners: even full
    # tracing must not halve throughput.
    assert tracing_speedup > 0.5
    assert metrics_speedup > 0.5
