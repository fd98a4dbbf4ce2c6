"""Print counter digests of the wireless workloads (determinism gate).

The simulation promises bit-identical behaviour for a fixed seed — the
PR 2 fix made ``SeededRng.spawn`` / flow-entropy hashing independent of
``PYTHONHASHSEED``, and every ablation in the repo leans on that
promise.  This tool locks it in: it runs the wireless-campus workload
and the distributed (inter-site) wireless workload with fixed seeds and
prints one stable digest line per workload.  The CI determinism lane
runs it twice under different ``PYTHONHASHSEED`` values and diffs the
output; any reintroduced ``hash()`` dependence (or unordered-set
iteration feeding a counter) shows up as a digest mismatch.

Usage::

    python -m repro.tools.determinism [duration_s]
"""

from __future__ import annotations

import sys

from repro.stats.summaries import ledger_digest
from repro.workloads.chaos_campus import ChaosCampusWorkload
from repro.workloads.overload_storm import (
    OverloadStormProfile,
    OverloadStormWorkload,
)
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)
from repro.workloads.wireless_campus import (
    WirelessCampusProfile,
    WirelessCampusWorkload,
)


def wireless_campus_digest(duration_s=40.0, seed=17):
    """Digest of a short single-site wireless campus run."""
    workload = WirelessCampusWorkload(
        WirelessCampusProfile(
            stations=12,
            num_edges=4,
            dwell_mean_s=10.0,
            flow_interval_s=2.0,
        ),
        seed=seed,
    )
    return ledger_digest(workload.run(duration_s=duration_s))


def distributed_wireless_digest(duration_s=30.0, seed=17):
    """Digest of a short inter-site wireless run (full counter ledger)."""
    workload = DistributedWirelessCampusWorkload(
        DistributedWirelessCampusProfile(
            num_sites=2,
            stations_per_site=5,
            dwell_mean_s=10.0,
            intersite_roam_fraction=0.4,
            flow_interval_s=2.0,
        ),
        seed=seed,
    )
    workload.run(duration_s=duration_s)
    return workload.digest()


def chaos_campus_digest(duration_s=12.0, seed=17):
    """Digest of the chaos campus run (faults + recovery + probe ledger).

    The hardest determinism surface in the repo: retry backoff timers,
    IGP reconvergence, crash/restart re-registration storms and probe
    bookkeeping all feed the ledger, so any nondeterminism the chaos
    machinery introduces shows up here first.
    """
    workload = ChaosCampusWorkload(seed=seed)
    workload.run(duration_s=duration_s)
    return workload.digest()


def overload_storm_digest(duration_s=6.0, seed=17):
    """Digest of the armored overload-storm run (shed + breaker ledger).

    Protection is on: admission shedding, backpressure factor changes,
    breaker trips and stale-while-revalidate serves all feed the
    ledger, so any nondeterminism in the overload armor (e.g. an
    unordered walk over pending registers) shows up here.
    """
    workload = OverloadStormWorkload(
        OverloadStormProfile(protected=True), seed=seed)
    workload.run(duration_s=duration_s)
    return workload.digest()


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    duration_s = float(args[0]) if args else None
    kwargs = {} if duration_s is None else {"duration_s": duration_s}
    print("wireless_campus %s" % wireless_campus_digest(**kwargs))
    digest = distributed_wireless_digest(**kwargs)
    print("distributed_wireless_campus %s" % digest)
    # The canonical schedule needs ~9.3 s to fully heal, so never run
    # the chaos scenario shorter than its default window.
    chaos_kwargs = (
        {} if duration_s is None else {"duration_s": max(duration_s, 12.0)}
    )
    print("chaos_campus %s" % chaos_campus_digest(**chaos_kwargs))
    # The storm window is fixed by the profile (relieved at ~3 s), so
    # never cut the run shorter than its default 6 s envelope.
    overload_kwargs = (
        {} if duration_s is None else {"duration_s": max(duration_s, 6.0)}
    )
    print("overload_storm %s" % overload_storm_digest(**overload_kwargs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
