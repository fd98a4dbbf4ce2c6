"""Control-plane fast path: roam-storm throughput, before vs after.

The ROADMAP scale-pass item: the roam storm showed the
reproduction's control plane serializing — one full RADIUS exchange per
re-auth and one Map-Register message per (family x server) put the
sustained ceiling near ~500 roams/s regardless of fabric size.  The
fast path (batched registration pipeline + auth session cache) removes
both serialization points without changing any converged state (the
``test_batched_registration`` property test is the correctness side of
this claim).

This test runs the *same* storm with the flags off and on and asserts
the headline acceptance number: >= 5x sustained roams/s, in simulated
time, so the ratio is deterministic.
"""

from repro.experiments.reporting import format_table
from repro.workloads.wireless_campus import (
    WirelessCampusProfile,
    WirelessCampusWorkload,
)

_STATIONS = 1000
_WINDOW_S = 0.25


def _storm(fastpath, stations=_STATIONS, seed=23):
    profile = WirelessCampusProfile(
        stations=stations, num_edges=8, aps_per_edge=2,
        batching=fastpath, session_cache=fastpath,
    )
    workload = WirelessCampusWorkload(profile, seed=seed)
    workload.bring_up()
    wlc = workload.wireless.wlc
    registers_before = wlc.stats.registers_sent
    summary = workload.roam_storm(window_s=_WINDOW_S, settle_s=25.0)

    # Equal correctness: after the storm settles, every station resolves
    # to its current AP's edge on the routing server.
    server = workload.fabric.routing_server
    for station in workload.stations:
        record = server.database.lookup(workload.VN_ID, station.ip)
        assert record is not None and record.rloc == station.ap.edge.rloc

    delay = summary["registration_delay"]
    roams = max(summary["inter_edge_roams"], 1)
    policy = workload.fabric.policy_server
    return {
        "fastpath": fastpath,
        "stations": stations,
        "inter_edge_roams": summary["inter_edge_roams"],
        "completions": delay["count"],
        "sustained_roams_per_s": summary["sustained_roams_per_s"],
        "makespan_s": summary["storm_makespan_s"],
        "roam_delay_p50_s": delay["p50_s"],
        "roam_delay_p99_s": delay["p99_s"],
        "mapserver_msgs_per_roam":
            (wlc.stats.registers_sent - registers_before) / roams,
        "auth_cache_hits": policy.auth_cache_hits,
    }


def test_ctrlplane_fastpath_roam_storm_speedup():
    rows_data = [_storm(False), _storm(True)]
    before, after = rows_data
    speedup = (after["sustained_roams_per_s"]
               / max(before["sustained_roams_per_s"], 1e-9))
    print(format_table(
        ["fast path", "sustained roams/s", "p50 ms", "p99 ms",
         "srv msgs/roam", "auth cache hits"],
        [["on" if r["fastpath"] else "off",
          "%.0f" % r["sustained_roams_per_s"],
          "%.2f" % (1e3 * r["roam_delay_p50_s"]),
          "%.2f" % (1e3 * r["roam_delay_p99_s"]),
          "%.2f" % r["mapserver_msgs_per_roam"],
          r["auth_cache_hits"]] for r in rows_data],
        title="Roam storm (%d stations in %.2f s): fast path off vs on"
              % (_STATIONS, _WINDOW_S)))

    # Identical storm, identical outcome: every inter-edge roam
    # completed on both sides, with the same roam population.
    assert before["completions"] == before["inter_edge_roams"]
    assert after["completions"] == after["inter_edge_roams"]
    assert after["inter_edge_roams"] == before["inter_edge_roams"]
    # The acceptance number: >= 5x sustained roams/s before the
    # auth/register serialization dominates.
    assert speedup >= 5.0
    # Both serialization fixes contributed: re-auths resumed sessions,
    # and registration messages per roam dropped below the unbatched
    # 2-families-per-server floor.
    assert after["auth_cache_hits"] >= after["inter_edge_roams"]
    assert after["mapserver_msgs_per_roam"] < before["mapserver_msgs_per_roam"]
    # The tail collapses too: p99 roam delay improves by a lot more than
    # the median flush-window cost it pays.
    assert after["roam_delay_p99_s"] < before["roam_delay_p99_s"] / 5
