"""Run the canonical scenarios and print one ledger digest per scenario.

The simulation promises bit-identical behaviour for a fixed seed, in
every process and under every ``PYTHONHASHSEED``.  This tool runs the
single-site wireless campus, the inter-site wireless campus, the chaos
campus (five faults under live probes) and the armored overload storm,
and prints ``<scenario> <digest>`` per line, the digest being the
SHA-256 of the scenario's counter ledger.  CI runs it under two hash
seeds and diffs the output; ``tests/test_determinism_digest.py`` pins
the lines, so a replay of the same seed must reproduce them.

With ``--out-dir DIR`` each run also carries the full observability
bundle (tracing, the metric registry sampled every simulated second and
the profiled event loop) and writes, per scenario:

* ``<name>_ledger.json`` — the exact object the digest hashes;
* ``<name>_trace.jsonl`` — one span per line (feed to
  ``repro.tools.check_trace``);
* ``<name>_trace_chrome.json`` — Chrome ``trace_event`` JSON (open at
  https://ui.perfetto.dev);
* ``<name>_metrics.jsonl`` — periodic metric snapshots plus one after
  the final drain;
* ``<name>_profile.json`` — per-event-type count, wall-clock and
  sim-time advance of the run loop (the only wall-clock artifact).

Observability never moves a counter, so stdout is the same either way.

Usage::

    python -m repro.tools.report [duration_s] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import obs
from repro.obs.profile import EventProfile
from repro.stats.summaries import ledger_digest
from repro.workloads.chaos_campus import ChaosCampusWorkload
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)
from repro.workloads.overload_storm import (
    OverloadStormProfile,
    OverloadStormWorkload,
)
from repro.workloads.wireless_campus import (
    WirelessCampusProfile,
    WirelessCampusWorkload,
)

SEED = 17


def _wireless_campus(seed):
    """Single-site campus: 12 stations walking across 4 edges."""
    return WirelessCampusWorkload(
        WirelessCampusProfile(
            stations=12,
            num_edges=4,
            dwell_mean_s=10.0,
            flow_interval_s=2.0,
        ),
        seed=seed,
    )


def _distributed_wireless_campus(seed):
    """Two-site fabric with 40% of roams crossing the transit."""
    return DistributedWirelessCampusWorkload(
        DistributedWirelessCampusProfile(
            num_sites=2,
            stations_per_site=5,
            dwell_mean_s=10.0,
            intersite_roam_fraction=0.4,
            flow_interval_s=2.0,
        ),
        seed=seed,
    )


def _overload_storm(seed):
    """The request storm against the armored fabric."""
    return OverloadStormWorkload(OverloadStormProfile(protected=True), seed=seed)


#: name -> (build(seed), default duration_s, shortest duration_s).  The
#: chaos schedule needs ~9.3 s to heal and the storm is relieved at
#: ~3 s, so a shorter duration argument is raised to the floor.
SCENARIOS = {
    "wireless_campus": (_wireless_campus, 40.0, 0.0),
    "distributed_wireless_campus": (_distributed_wireless_campus, 30.0, 0.0),
    "chaos_campus": (ChaosCampusWorkload, 12.0, 12.0),
    "overload_storm": (_overload_storm, 6.0, 6.0),
}


def _attach_profile(sim, profile):
    """Route every ``sim.run`` call through the profiled loop.

    The workloads drive ``sim.run`` themselves (bring-up settles, the
    steady-state window, the final drain), so the profile is injected
    at the instance level.
    """
    bound = sim.run

    def run(until=None, max_events=None):
        return bound(until, max_events, profile=profile)

    sim.run = run


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_scenario(name, duration_s=None, out_dir=None):
    """Run one scenario and return its ledger digest.

    With ``out_dir``, the run is instrumented and its artifacts are
    written there.
    """
    build, default_s, floor_s = SCENARIOS[name]
    workload = build(seed=SEED)
    if out_dir is not None:
        bundle = obs.enable(workload, sample_interval_s=1.0)
        profile = EventProfile()
        _attach_profile(bundle.sim, profile)
    summary = workload.run(
        duration_s=default_s if duration_s is None else max(duration_s, floor_s)
    )
    # The single-site campus keeps no device ledger; its summary is hashed.
    if hasattr(workload, "counter_ledger"):
        ledger = workload.counter_ledger()
    else:
        ledger = summary
    if out_dir is not None:
        bundle.metrics.stop()
        bundle.metrics.sample()
        base = os.path.join(out_dir, name)
        _write_json(base + "_ledger.json", ledger)
        bundle.tracer.export_jsonl(base + "_trace.jsonl")
        bundle.tracer.export_chrome(base + "_trace_chrome.json")
        bundle.metrics.export_jsonl(base + "_metrics.jsonl")
        _write_json(base + "_profile.json", profile.as_dict())
    return ledger_digest(ledger)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "duration_s",
        nargs="?",
        type=float,
        help="simulated seconds per scenario (default: each scenario's own)",
    )
    parser.add_argument("--out-dir", help="write each run's artifacts here")
    args = parser.parse_args(argv)
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
    for name in SCENARIOS:
        print("%s %s" % (name, run_scenario(name, args.duration_s, args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
