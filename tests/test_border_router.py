"""Unit tests for the border router."""

from repro.core.retry import RetryPolicy
from repro.multisite import MultiSiteConfig, MultiSiteNetwork
from repro.net.addresses import IPv4Address, Prefix
from repro.net.packet import make_udp_packet
from tests.conftest import admit_and_settle


def test_border_syncs_registrations(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    # Three endpoints x one IPv4 mapping each.
    assert border.fib_occupancy("ipv4") == 3
    assert border.fib_occupancy("mac") == 3


def test_border_tracks_departures(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    net.depart(alice)
    net.settle()
    assert border.fib_occupancy("ipv4") == 2


def test_border_tracks_moves(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    net.roam(alice, 3)
    net.settle()
    record = border.synced.lookup(alice.vn, alice.ip)
    assert record.rloc == net.edges[3].rloc


def test_default_route_relay_during_resolution(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    before = border.counters.relayed_to_edge
    net.send(alice, printer)   # first packet -> border relay
    net.settle()
    assert border.counters.relayed_to_edge == before + 1
    assert printer.packets_received == 1


def test_external_route_match(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    external = []
    border.external_sink = lambda vn, p: external.append(p)
    internet = IPv4Address.parse("93.184.216.34")
    net.send(alice, internet)
    net.settle()
    assert border.counters.sent_external >= 1
    assert len(external) >= 1


def test_no_route_drop_without_external(small_fabric):
    net = small_fabric
    border = net.borders[0]
    # Remove the default external route by rebuilding the table.
    border._external = {}
    alice = net.create_endpoint("alice", "employees", 4098)
    admit_and_settle(net, alice, 0)
    net.send(alice, IPv4Address.parse("203.0.113.5"))
    net.settle()
    assert border.counters.no_route_drops >= 1


def test_inject_external_reaches_endpoint(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    packet = make_udp_packet(
        IPv4Address.parse("93.184.216.34"), alice.ip, 80, 40000
    )
    assert border.inject_external(alice.vn, alice.group, packet)
    net.settle()
    assert alice.packets_received == 1


def test_inject_external_unknown_host(populated_fabric):
    net, alice, bob, printer = populated_fabric
    border = net.borders[0]
    packet = make_udp_packet(
        IPv4Address.parse("93.184.216.34"), IPv4Address.parse("10.1.99.99"),
        80, 40000,
    )
    assert not border.inject_external(alice.vn, alice.group, packet)


def test_external_route_longest_match(small_fabric):
    net = small_fabric
    border = net.borders[0]
    from repro.core.types import VNId
    vn = VNId(4098)
    border.add_external_route(vn, Prefix.parse("203.0.0.0/16"), label="dc")
    assert border.external_route_for(vn, IPv4Address.parse("203.0.113.5")) == "dc"
    assert border.external_route_for(vn, IPv4Address.parse("8.8.8.8")) == "internet"


def _two_sites(**config):
    """A user in each of two sites; nothing resolved over the transit."""
    net = MultiSiteNetwork(MultiSiteConfig(
        num_sites=2, edges_per_site=1, seed=3, **config))
    net.define_vn("corp", 4098, "10.32.0.0/15")
    net.define_group("users", 10, 4098)
    a = net.create_endpoint("a", "users", 4098)
    b = net.create_endpoint("b", "users", 4098)
    net.admit(a, 0)
    net.admit(b, 1)
    net.settle()
    return net, a, b, net.sites[0].borders[0]


def test_full_transit_queue_counts_every_packet_it_drops():
    # One train starts the transit map-request, the next two fill the
    # pending queue, the last two find it full: 3 x 16 packets dropped.
    net, a, b, border = _two_sites(transit_pending_limit=2)
    for _ in range(5):
        net.send(a, b, count=16, as_train=True)
    net.settle()
    assert a.packets_sent == 80
    assert b.packets_received == 32
    assert border.counters.transit_drops == 48


def test_exhausted_transit_retries_drop_the_queued_train():
    net, a, b, border = _two_sites(transit_retry=RetryPolicy(max_attempts=2))
    net.partition_site(0)
    net.send(a, b, count=16, as_train=True)
    net.settle()
    assert border.counters.transit_resolve_retries_sent == 2
    assert border.counters.transit_resolve_timeouts == 1
    assert border.counters.transit_drops == 16
    assert b.packets_received == 0
