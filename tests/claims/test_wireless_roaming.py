"""Fabric wireless: roam delay under load + roam-storm scaling.

Two reproduction points for the fabric-wireless design:

* the WLC is control-plane-only, so roam delay is flat in offered data
  load while the CAPWAP baseline's controller queue sends it climbing;
* a roam storm (every station moves within one window) stresses only
  the control plane — completion is total and signaling per roam is
  constant, with backlog showing up in the auth path, not the data path.
"""

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.wireless_handover import run_roam_delay_sweep
from repro.workloads.wireless_campus import (
    WirelessCampusProfile,
    WirelessCampusWorkload,
)


def test_fabric_roam_flat_capwap_climbs():
    rows_data = run_roam_delay_sweep()
    print(format_table(
        ["offered pps", "fabric roam ms", "CAPWAP roam ms", "CAPWAP data us"],
        [[r["rate_pps"], "%.2f" % (1e3 * r["fabric_roam_median_s"]),
          "%.2f" % (1e3 * r["capwap_roam_median_s"]),
          "%.0f" % (1e6 * r["capwap_data_median_s"])] for r in rows_data],
        title="Roam delay vs offered load (fabric wireless vs CAPWAP)"))

    low, high = rows_data[0], rows_data[-1]
    # The centralized controller queues handovers behind every data
    # packet, so past saturation roam delay explodes ...
    assert high["capwap_roam_median_s"] > 3 * low["capwap_roam_median_s"]
    # ... while the fabric's control-plane-only WLC never notices load.
    assert high["fabric_roam_median_s"] < 1.5 * low["fabric_roam_median_s"]
    # At high load the fabric roams strictly faster than the baseline.
    assert high["fabric_roam_median_s"] < high["capwap_roam_median_s"]
    # Every scheduled roam produced a restore sample on both sides.
    for r in rows_data:
        assert r["fabric_roams"] > 0 and r["capwap_roams"] > 0


def _storm(station_count, fastpath, seed=17):
    workload = WirelessCampusWorkload(
        WirelessCampusProfile(stations=station_count, num_edges=8,
                              aps_per_edge=2, batching=fastpath,
                              session_cache=fastpath, megaflow=fastpath,
                              packet_trains=fastpath),
        seed=seed,
    )
    workload.bring_up()
    baseline_registers = workload.wireless.wlc.stats.registers_sent
    summary = workload.roam_storm(window_s=1.0)
    summary["storm_registers"] = (
        workload.wireless.wlc.stats.registers_sent - baseline_registers
    )
    # Post-storm consistency: the routing server's RLOC for every
    # station is its current AP's edge.
    server = workload.fabric.routing_server
    for station in workload.stations:
        record = server.database.lookup(workload.VN_ID, station.ip)
        assert record is not None and record.rloc == station.ap.edge.rloc
    return summary


@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["fastpath_off", "fastpath_on"])
def test_roam_storm_scaling(fastpath):
    counts = (100, 300, 600)
    rows_data = [(count, _storm(count, fastpath)) for count in counts]
    rows = []
    for count, summary in rows_data:
        delay = summary["registration_delay"]
        rows.append([
            count, summary["inter_edge_roams"],
            "%.1f" % (summary["storm_registers"]
                      / max(summary["inter_edge_roams"], 1)),
            "%.1f" % (1e3 * delay["median_s"]),
            "%.1f" % (1e3 * delay["max_s"]),
        ])
    print(format_table(
        ["stations", "inter-edge roams", "registers/roam",
         "reg delay median ms", "max ms"],
        rows, title="Roam storm: every station moves within 1 s"))

    for count, summary in rows_data:
        # Completion is total: every inter-edge roam got its ack.
        assert summary["registration_delay"]["count"] == \
            summary["inter_edge_roams"]
        assert summary["roams"] == count
        # Signaling per roam is constant (registrar registers only the
        # mover's EIDs — two families here — to each routing server).
        assert summary["storm_registers"] <= \
            2 * max(summary["inter_edge_roams"], 1)
    small = rows_data[0][1]["registration_delay"]["median_s"]
    large = rows_data[-1][1]["registration_delay"]["median_s"]
    if fastpath:
        # With the fast path on the auth queue never saturates: the
        # median stays bounded by the flush window + control RTTs
        # instead of growing with the storm (the fast path's point).
        assert large < 0.1
    else:
        # The storm's backlog grows with its size (auth-path
        # serialization), visible in the registration-delay tail.
        assert large > small
