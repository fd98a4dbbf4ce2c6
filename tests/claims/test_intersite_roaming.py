"""Inter-site wireless roaming under the fast-path flag matrix.

The composition claim: a two-site federation with a wireless overlay on
every site runs an inter-site roam storm (every station crosses the
transit — WLC handoff withdrawal + foreign re-registration + away
anchoring for each) followed by a heavy traffic phase in the roamed
steady state, where a large share of flows hairpins home-border ->
transit -> foreign-border (the megaflow-cached relay paths on both
border legs).

The scenario runs twice — every fast-path knob off, then on (batching,
session cache, megaflow, packet trains) — and asserts the fast-path
contract extends across sites and the wireless control plane: the
flags must change *nothing* in the delivery / drop / enforcement ledger
(bit-identical, per packet-equivalent).  Wall-clock cost under
inter-site churn is measured by ``bench/run.py``'s ``intersite_churn``
workload.
"""

from repro.experiments.reporting import format_table
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)

_SITES = 2
_EDGES_PER_SITE = 3
_STATIONS_PER_SITE = 40
_SERVERS_PER_SITE = 3
_FLOW_INTERVAL_S = 0.5
_PACKETS_PER_FLOW = 16
_STORM_WINDOW_S = 1.0
_TRAFFIC_S = 8.0


def _run(fastpath, seed=43):
    """Storm phase + roamed-steady-state traffic phase, one flag setting.

    Roams and traffic are deliberately *not* overlapped: handover-window
    losses depend on control-plane timing, which the batching knob is
    allowed to shift — keeping the phases apart is what makes the
    off/on ledger comparison exact.
    """
    workload = DistributedWirelessCampusWorkload(
        DistributedWirelessCampusProfile(
            num_sites=_SITES, edges_per_site=_EDGES_PER_SITE,
            aps_per_edge=1, stations_per_site=_STATIONS_PER_SITE,
            servers_per_site=_SERVERS_PER_SITE,
            flow_interval_s=_FLOW_INTERVAL_S,
            packets_per_flow=_PACKETS_PER_FLOW,
            batching=fastpath, session_cache=fastpath,
            megaflow=fastpath, packet_trains=fastpath,
        ),
        seed=seed,
    )
    net = workload.net
    workload.bring_up()
    storm = workload.intersite_roam_storm(window_s=_STORM_WINDOW_S,
                                          settle_s=20.0)
    workload._install_generators()
    net.sim.run(until=net.sim.now + _TRAFFIC_S)
    for generator in workload._generators.values():
        generator.stop()
    net.settle(max_time=300.0)

    ledger = workload.counter_ledger()
    forwarded = sum(
        value for key, value in ledger.items()
        if key.endswith(".packets_in") and ".edge-" in key
    )
    megaflow_hits = sum(
        edge.megaflow.hits
        for site in net.sites for edge in site.edges
        if edge.megaflow is not None
    ) + sum(
        border.megaflow.hits
        for border in net.transit_borders
        if border.megaflow is not None
    )
    return {
        "fastpath": fastpath,
        "events": net.sim.events_processed,
        "forwarded_pkts": forwarded,
        "megaflow_hits": megaflow_hits,
        # storm metrics (simulated time; deterministic per seed):
        "storm_completions": storm["storm_completions"],
        "sustained_roams_per_s": storm["sustained_roams_per_s"],
        "roam_delay_p99_s": storm.get("roam_delay_p99_s"),
        "intersite_handoffs": storm["intersite_handoffs"],
        "away_endpoints": storm["away_endpoints"],
        "transit_has_host_state": storm["transit_has_host_state"],
        "ledger": ledger,
    }


def test_intersite_roaming_fastpath_matrix():
    rows_data = [_run(False), _run(True)]
    before, after = rows_data
    print(format_table(
        ["fast path", "roams", "roams/s (sim)", "p99 ms (sim)",
         "fwd pkts", "sim events", "megaflow hits"],
        [["on" if r["fastpath"] else "off",
          r["storm_completions"],
          "%.0f" % r["sustained_roams_per_s"],
          "%.2f" % (1e3 * r["roam_delay_p99_s"]),
          r["forwarded_pkts"],
          r["events"],
          r["megaflow_hits"]] for r in rows_data],
        title="Inter-site wireless roaming (%d sites x %d stations,"
              " storm + %.0f s roamed traffic): flags off vs on"
              % (_SITES, _STATIONS_PER_SITE, _TRAFFIC_S)))

    # Every station crossed the transit and completed re-registration,
    # with the aggregates-only invariant intact, under both settings.
    for row in rows_data:
        assert row["storm_completions"] == _SITES * _STATIONS_PER_SITE
        assert row["intersite_handoffs"] == _SITES * _STATIONS_PER_SITE
        assert row["away_endpoints"] == _SITES * _STATIONS_PER_SITE
        assert not row["transit_has_host_state"]
    # Bit-identical correctness: every delivery/drop/enforcement counter
    # (down to per-device granularity) is untouched by the flag matrix.
    assert after["ledger"] == before["ledger"]
    assert before["megaflow_hits"] == 0
    assert after["megaflow_hits"] > 0
