"""Unit tests for the fabric-wireless subsystem (WLC/AP/Station)."""

import pytest

from repro.fabric import FabricConfig, FabricNetwork
from repro.wireless import WirelessConfig, WirelessFabric

VN = 600


@pytest.fixture
def wifi():
    """A 3-edge fabric with two APs per edge and two groups."""
    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=3, seed=11))
    wireless = WirelessFabric(net, WirelessConfig(aps_per_edge=2))
    net.define_vn("wifi", VN, "10.0.0.0/16")
    net.define_group("stations", 1, VN)
    net.define_group("printers", 2, VN)
    net.allow("stations", "printers")
    net.allow("stations", "stations")
    return net, wireless


def _associate_and_settle(net, wireless, station, ap):
    outcome = []
    wireless.associate(station, ap,
                       on_complete=lambda s, ok: outcome.append(ok))
    net.settle()
    assert outcome and outcome[0], "onboarding failed for %s" % station.identity
    return station


def test_association_onboards_station(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta-0", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    assert sta.onboarded and sta.ap is wireless.aps[0]
    assert sta.edge is net.edges[0]
    # The WLC registered the station at the AP's edge, as registrar.
    record = net.routing_server.database.lookup(VN, sta.ip)
    assert record is not None and record.rloc == net.edges[0].rloc
    # The edge holds forwarding state but never ran auth itself.
    assert net.edges[0].vrf.lookup_identity(sta.identity) is not None
    assert net.edges[0].counters.auth_requests_sent == 0
    assert wireless.wlc.stats.auth_requests == 1


def test_station_traffic_encapsulated_at_ap(wifi):
    net, wireless = wifi
    src = wireless.create_station("src", "stations", VN)
    dst = wireless.create_station("dst", "stations", VN)
    _associate_and_settle(net, wireless, src, 0)
    _associate_and_settle(net, wireless, dst, 3)   # ap 3 = edge 1
    net.send(src, dst)
    net.settle()
    assert dst.packets_received == 1
    # The data path ran AP -> edge -> fabric: no WLC involvement.
    assert wireless.aps[0].counters.packets_encapsulated == 1
    assert net.edges[0].counters.wireless_in == 1
    assert wireless.aps[3].counters.packets_delivered == 1


def test_policy_enforced_for_wireless(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    cam = wireless.create_station("cam", "printers", VN)
    _associate_and_settle(net, wireless, sta, 0)
    _associate_and_settle(net, wireless, cam, 2)
    net.deny("stations", "printers")
    net.settle()
    before = cam.packets_received
    net.send(sta, cam)
    net.settle()
    assert cam.packets_received == before
    assert net.total_policy_drops() >= 1


def test_sgt_assigned_at_association(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    assert int(sta.group) == 1
    # SXP session targeting tracks the data-plane edge, not the WLC.
    edge_rloc, group = net.policy_server.sessions[sta.identity]
    assert edge_rloc == net.edges[0].rloc and int(group) == 1


def test_intra_edge_roam_is_fast_path(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    registers_before = wireless.wlc.stats.registers_sent
    auths_before = wireless.wlc.stats.auth_requests
    wireless.roam(sta, 1)   # ap 1 shares edge 0
    net.settle()
    assert sta.ap is wireless.aps[1] and sta.edge is net.edges[0]
    assert wireless.wlc.stats.intra_edge_roams == 1
    # Same edge, same RLOC: no new auth, no new registration.
    assert wireless.wlc.stats.registers_sent == registers_before
    assert wireless.wlc.stats.auth_requests == auths_before


def test_inter_edge_roam_reregisters_and_redirects(wifi):
    net, wireless = wifi
    src = wireless.create_station("src", "stations", VN)
    dst = wireless.create_station("dst", "stations", VN)
    _associate_and_settle(net, wireless, src, 0)
    _associate_and_settle(net, wireless, dst, 2)   # edge 1
    net.send(src, dst)
    net.settle()

    wireless.roam(dst, 4)   # edge 2
    net.settle()
    # The map-server follows the move and keeps the IP (L3 mobility).
    record = net.routing_server.database.lookup(VN, dst.ip)
    assert record.rloc == net.edges[2].rloc
    assert dst.ip is not None and dst.edge is net.edges[2]
    # Fig. 5: the previous edge dropped its VRF entry and learned the
    # new location from the Map-Notify.
    assert net.edges[1].vrf.lookup_identity(dst.identity) is None
    assert net.edges[1].counters.notifies_received >= 1
    entry = net.edges[1].map_cache.lookup(VN, dst.ip)
    assert entry is not None and entry.rloc == net.edges[2].rloc
    # Traffic still flows (src's edge refreshes via SMR on first use).
    net.send(src, dst)
    net.settle()
    assert dst.packets_received == 2


def test_in_flight_packets_survive_roam(wifi):
    net, wireless = wifi
    src = wireless.create_station("src", "stations", VN)
    dst = wireless.create_station("dst", "stations", VN)
    _associate_and_settle(net, wireless, src, 0)
    _associate_and_settle(net, wireless, dst, 2)
    net.send(src, dst)
    net.settle()
    assert dst.packets_received == 1

    # Roam, then keep sending while onboarding is still in flight.
    wireless.roam(dst, 4)
    for _ in range(30):
        net.send(src, dst)
        net.run_for(1e-3)
    net.settle()
    # The old edge redirected what arrived after the Map-Notify; only
    # the radio-gap packets (before the new edge was registered) drop.
    assert dst.packets_received >= 20
    assert net.edges[1].counters.stale_deliveries >= 1


def test_disassociation_unregisters(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    wireless.disassociate(sta)
    net.settle()
    assert sta.ap is None and sta.edge is None
    assert net.routing_server.database.lookup(VN, sta.ip) is None
    assert net.edges[0].vrf.lookup_identity(sta.identity) is None
    assert wireless.wlc.stats.disassociations == 1


def test_reassociation_keeps_ip(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    first_ip = sta.ip
    wireless.disassociate(sta)
    net.settle()
    _associate_and_settle(net, wireless, sta, 5)
    assert sta.ip == first_ip   # DHCP leases are identity-stable
    record = net.routing_server.database.lookup(VN, sta.ip)
    assert record.rloc == net.edges[2].rloc


def test_rejected_station_is_dropped(wifi):
    net, wireless = wifi
    sta = wireless.create_station("intruder", "stations", VN,
                                  secret="right")
    sta.secret = "wrong"
    outcome = []
    wireless.associate(sta, 0, on_complete=lambda s, ok: outcome.append(ok))
    net.settle()
    assert outcome == [False]
    assert sta.ap is None and not sta.onboarded
    assert wireless.wlc.stats.auth_rejects == 1
    assert len(wireless.aps[0].stations) == 0


def test_rejected_roam_withdraws_old_registration(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    # Credentials revoked while attached; the next (cross-edge) roam's
    # re-auth is rejected — the station must be cut off everywhere, not
    # left registered at the old edge for peers to blackhole into.
    net.policy_server.disable(sta.identity)
    outcome = []
    wireless.roam(sta, 4, on_complete=lambda s, ok: outcome.append(ok))
    net.settle()
    assert outcome == [False]
    assert sta.ap is None and sta.edge is None
    assert net.routing_server.database.lookup(VN, sta.ip) is None
    for edge in net.edges:
        assert edge.vrf.lookup_identity(sta.identity) is None
    assert not wireless.wlc._pending_register


def test_duplicate_associate_mid_auth_reports_honestly(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    first, second = [], []
    wireless.associate(sta, 0, on_complete=lambda s, ok: first.append(ok))
    net.run_for(1e-4)   # original onboarding still in flight
    wireless.associate(sta, 0, on_complete=lambda s, ok: second.append(ok))
    net.settle()
    # Both callers learn the true outcome once onboarding really ends.
    assert first == [True] and second == [True]
    assert sta.onboarded and sta.edge is net.edges[0]
    # And once onboarded, a repeat associate is an immediate yes.
    third = []
    wireless.associate(sta, 0, on_complete=lambda s, ok: third.append(ok))
    assert third == [True]


def test_late_notify_does_not_evict_current_attachment(wifi):
    from repro.lisp.messages import MapNotify, control_packet
    from repro.lisp.records import MappingRecord
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    # A delayed fig. 5 notify from an earlier move arrives claiming the
    # station lives at edge 1 — after the station already came back.
    record = MappingRecord(VN, sta.ip.to_prefix(), net.edges[1].rloc,
                           version=99)
    notify = MapNotify(record.vn, record.eid, record)
    net.underlay.send(net.routing_server.rloc, net.edges[0].rloc,
                      control_packet(net.routing_server.rloc,
                                     net.edges[0].rloc, notify))
    net.settle()
    # The fresh local entry survives and traffic still reaches it.
    assert net.edges[0].vrf.lookup_identity(sta.identity) is not None
    peer = wireless.create_station("peer", "stations", VN)
    _associate_and_settle(net, wireless, peer, 2)
    net.send(peer, sta)
    net.settle()
    assert sta.packets_received == 1


def test_disassociate_during_roam_withdraws_fully(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    _associate_and_settle(net, wireless, sta, 0)
    # Disassociate while the cross-edge roam is still in flight: the
    # registrar must withdraw from the edge it actually registered
    # (edge 0), even though station.edge already went None mid-roam.
    wireless.roam(sta, 4)
    wireless.disassociate(sta)
    net.settle()
    assert net.routing_server.database.lookup(VN, sta.ip) is None
    for edge in net.edges:
        assert edge.vrf.lookup_identity(sta.identity) is None
    assert not wireless.wlc._pending_register
    assert not wireless.wlc._registered_edge


def test_roam_during_auth_latest_association_wins(wifi):
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    wireless.associate(sta, 0)
    # Move again before the first onboarding finishes.
    net.run_for(1e-4)
    wireless.roam(sta, 4)
    net.settle()
    assert sta.ap is wireless.aps[4] and sta.edge is net.edges[2]
    record = net.routing_server.database.lookup(VN, sta.ip)
    assert record.rloc == net.edges[2].rloc
    # Nothing points at edge 0 anymore.
    assert net.edges[0].vrf.lookup_identity(sta.identity) is None


def test_wlc_control_queue_serializes_associations(wifi):
    net, wireless = wifi
    stations = [
        wireless.create_station("sta-%d" % i, "stations", VN)
        for i in range(20)
    ]
    for index, sta in enumerate(stations):
        wireless.associate(sta, index % len(wireless.aps))
    net.settle()
    assert all(s.onboarded for s in stations)
    assert wireless.wlc.max_queue_delay_s > 0
    assert len(wireless.wlc.registration_delays) == len(stations)


def test_station_cannot_send_unassociated(wifi):
    from repro.core.errors import ConfigurationError
    from repro.net.packet import make_udp_packet
    from repro.net.addresses import IPv4Address
    net, wireless = wifi
    sta = wireless.create_station("sta", "stations", VN)
    packet = make_udp_packet(IPv4Address.parse("10.0.0.1"),
                             IPv4Address.parse("10.0.0.2"), 1, 2)
    with pytest.raises(ConfigurationError):
        sta.send(packet)


def test_packets_sent_into_a_rebooting_edge_are_counted(wifi):
    """The wireless twin of the wired edge's pre-auth accounting."""
    net, wireless = wifi
    src = _associate_and_settle(
        net, wireless, wireless.create_station("src", "stations", VN), 0)
    dst = _associate_and_settle(
        net, wireless, wireless.create_station("dst", "stations", VN), 3)
    edge = net.edges[0]
    edge.reboot(duration_s=5.0)
    net.send(src, dst, count=4)
    net.run_for(1.0)
    assert wireless.aps[0].counters.packets_encapsulated == 4
    assert edge.pre_auth_drops == 4
    assert edge.counters.packets_in == 0
    assert dst.packets_received == 0


def test_superseded_roam_chain_still_refreshes_skipped_edge(wifi):
    """Regression: A->B->A->C where the second visit to A is superseded
    mid-flight (never registered).  The server's fig. 5 notify then goes
    to the previously *registered* edge (B's), not to the radio-previous
    edge (A's) — so A's edge must ride the WLC's stale-edge relay or its
    cache keeps pointing at B's edge forever."""
    net, wireless = wifi
    station = wireless.create_station("sta-chain", "stations", VN)
    # APs 0/1 -> edge 0, 2/3 -> edge 1, 4/5 -> edge 2.
    _associate_and_settle(net, wireless, station, 4)   # edge 2
    _associate_and_settle(net, wireless, station, 0)   # edge 0
    wireless.associate(station, 4)   # back to edge 2 ...
    wireless.associate(station, 2)   # ... immediately superseded: edge 1
    net.settle(max_time=120.0)

    serving_edge = wireless.aps[2].edge
    record = net.routing_server.database.lookup(VN, station.ip)
    assert record is not None and record.rloc == serving_edge.rloc
    for edge in net.edges:
        cached = edge.map_cache.lookup(VN, station.ip)
        if edge is not serving_edge and cached is not None \
                and not cached.negative:
            assert cached.rloc == serving_edge.rloc
