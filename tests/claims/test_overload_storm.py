"""Overload armor claim: goodput with and without the armor.

The same request storm — ~3x the routing server's service capacity for
two seconds, with wired roams and short-TTL data traffic riding along —
is run twice: once against a bare fabric and once with the full
overload-armor stack (bounded queue + priority admission, in-band
backpressure, circuit breakers, stale-while-revalidate map-caches).

The asserted metric is the goodput ratio: protected over unprotected
resolution goodput, where goodput is the fraction of a high-rate
prober's Map-Requests answered within a 60 ms SLO.  Unprotected, the
server's backlog grows unboundedly for the whole storm and takes
seconds to drain, so nearly everything after storm onset blows the SLO;
protected, the backlog is capped at tens of milliseconds and whatever
is admitted is answered fast.  The armor's cost — shed requests — may
delay convergence but never corrupt it: the healing oracle must come
back clean in both runs.
"""

from repro.chaos import stale_mappings
from repro.experiments.reporting import format_table
from repro.workloads.overload_storm import (
    OverloadStormProfile,
    OverloadStormWorkload,
)

_SEED = 17
_DURATION_S = 6.0


def _run(protected):
    workload = OverloadStormWorkload(
        OverloadStormProfile(protected=protected), seed=_SEED)
    summary = workload.run(duration_s=_DURATION_S)
    return workload, summary


def test_overload_storm_goodput():
    (bare_wl, bare), (armored_wl, armored) = _run(False), _run(True)
    ratio = armored["goodput"] / bare["goodput"]
    print(format_table(
        ["mode", "goodput", "answered", "max_latency_s", "shed", "stale_served"],
        [["bare", "%.3f" % bare["goodput"],
          "%d/%d" % (bare["probes"]["probes_answered"],
                     bare["probes"]["probes_sent"]),
          "%.3f" % bare["probes"]["max_latency_s"],
          "%d" % bare["shed_total"], "%d" % bare["stale_served"]],
         ["armored", "%.3f" % armored["goodput"],
          "%d/%d" % (armored["probes"]["probes_answered"],
                     armored["probes"]["probes_sent"]),
          "%.3f" % armored["probes"]["max_latency_s"],
          "%d" % armored["shed_total"], "%d" % armored["stale_served"]]],
        title="Overload storm at 3x saturation: goodput ratio %.2f" % ratio,
    ))

    # The armor's headline claim: >= 2x goodput at 3x saturation.
    assert ratio >= 2.0
    # Bounded queue actually bounded; bare queue actually unbounded.
    assert armored["max_depth_seen"] <= OverloadStormProfile().max_pending
    assert bare["max_depth_seen"] > 10 * OverloadStormProfile().max_pending
    # Degraded-mode machinery engaged under the storm...
    assert armored["shed_total"] > 0
    assert armored["overload_signals"] > 0
    assert armored["stale_served"] > 0
    # ...and shedding delayed, but never corrupted, control-plane state.
    assert bare["oracle_violations"] == 0
    assert armored["oracle_violations"] == 0
    assert stale_mappings(armored_wl.fabric) == []
    assert stale_mappings(bare_wl.fabric) == []
