"""Deterministic chaos regression scenarios.

Exact-timing reproductions of fault interleavings that once (or could
plausibly) wedge the fabric.  Unlike the property sweep these pin the
event order, so a regression bisects to a single scenario.
"""

import pytest

from repro.chaos import stale_mappings
from repro.core.retry import RetryPolicy
from repro.fabric import FabricConfig, FabricNetwork
from repro.wireless.deployment import WirelessConfig, WirelessFabric


RETRY = RetryPolicy(base_s=0.1, multiplier=2.0, max_delay_s=0.5,
                    max_attempts=8)


@pytest.fixture
def wireless_net():
    net = FabricNetwork(FabricConfig(
        num_borders=2, num_edges=3, seed=41,
        register_retry=RETRY, register_refresh_s=1.0,
        border_failover=True,
    ))
    wireless = WirelessFabric(net, WirelessConfig(aps_per_edge=1))
    net.define_vn("wifi", 200, "10.12.0.0/16")
    net.define_group("stations", 1, 200)
    net.define_group("servers", 2, 200)
    net.allow("stations", "servers")
    server = net.create_endpoint("srv", "servers", 200)
    station = wireless.create_station("sta", "stations", 200)
    net.admit(server, 0)
    net.settle()
    wireless.associate(station, 1)   # AP on edge-1
    net.settle()
    return net, wireless, station, server


def test_roam_lands_mid_igp_reconvergence(wireless_net):
    """A station roams to an edge whose uplink just failed.

    The registration storm races the IGP reroute: control packets to
    the routing server may blackhole until the alternate spine path is
    installed, so the WLC/edge retry machinery has to finish the job.
    After healing, the station must be registered exactly once, at the
    new edge, with no stale mapping anywhere.
    """
    net, wireless, station, server = wireless_net
    results = []
    # Cut the target edge's primary uplink; the roam fires while the
    # IGP is still flooding the change.
    net.fail_link("leaf-2", "spine-0")
    net.run_for(0.0005)   # mid-reconvergence: before the 1ms-scale SPF settles
    wireless.roam(station, 2,
                  on_complete=lambda s, accepted: results.append(accepted))
    net.run_for(2.0)
    net.heal_link("leaf-2", "spine-0")
    net.run_for(2.0)
    net.settle()
    assert results == [True]
    assert wireless.wlc.registered_edge(station) is net.edges[2]
    # Exactly one registration, at the new edge — the old edge's state
    # was withdrawn despite the churn.
    for srv in net.routing_servers:
        record = srv.database.lookup_exact(200, station.ip.to_prefix())
        assert record is not None
        assert record.rloc == net.edges[2].rloc
    assert stale_mappings(net) == []
    # Data plane agrees: server -> station flows end to end.
    before = station.packets_received
    net.send(server, station.ip)
    net.settle()
    assert station.packets_received == before + 1


def test_roam_during_server_crash_recovers_via_wlc_retry(wireless_net):
    """Roam while every routing server is crashed: the WLC's pending
    register is retried with backoff until the restart, then acked."""
    net, wireless, station, server = wireless_net
    net.crash_routing_server(0)
    wireless.roam(station, 2)
    net.run_for(0.5)
    assert wireless.wlc.stats.register_retries_sent > 0
    net.restart_routing_server(0)
    net.run_for(3.0)
    net.settle()
    assert wireless.wlc.registered_edge(station) is net.edges[2]
    assert stale_mappings(net) == []


def test_same_seed_same_ledger_across_fault_run():
    """Bit-identity of the chaos campus ledger within one process."""
    from repro.workloads.chaos_campus import ChaosCampusWorkload

    first = ChaosCampusWorkload(seed=5)
    first.run(duration_s=10.5)
    second = ChaosCampusWorkload(seed=5)
    second.run(duration_s=10.5)
    assert first.counter_ledger() == second.counter_ledger()
    assert first.digest() == second.digest()
