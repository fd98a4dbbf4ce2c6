"""Unit tests for L2 services (ARP suppression, MAC forwarding, VLANs)."""

import pytest

from repro.fabric import FabricConfig, FabricNetwork
from repro.net.packet import (
    ArpPayload,
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    EthernetHeader,
    Packet,
)
from tests.conftest import admit_and_settle


@pytest.fixture
def l2_fabric():
    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=3,
                                     l2_services=True, seed=13))
    net.define_vn("corp", 4098, "10.1.0.0/16")
    net.define_group("devices", 10, 4098)
    a = net.create_endpoint("a", "devices", 4098)
    b = net.create_endpoint("b", "devices", 4098)
    c = net.create_endpoint("c", "devices", 4098)
    admit_and_settle(net, a, 0)
    admit_and_settle(net, b, 1)
    admit_and_settle(net, c, 0)   # same edge as a
    return net, a, b, c


def _arp_request(sender, target_ip):
    arp = ArpPayload(ArpPayload.REQUEST, sender.mac, sender.ip,
                     BROADCAST_MAC, target_ip)
    return Packet(EthernetHeader(sender.mac, BROADCAST_MAC, ETHERTYPE_ARP),
                  payload=arp, size=64)


def test_gateways_installed(l2_fabric):
    net, a, b, c = l2_fabric
    assert all(edge.l2_gateway is not None for edge in net.edges)


def test_local_arp_suppressed(l2_fabric):
    """Same-edge target: the gateway answers directly, no flooding."""
    net, a, b, c = l2_fabric
    gateway = net.edges[0].l2_gateway
    gateway.inject_frame(a, _arp_request(a, c.ip))
    net.settle()
    assert gateway.counters.arp_suppressed_locally == 1
    assert a.packets_received == 1            # the ARP reply
    # a's sink not set; verify via received counter and reply payload shape
    assert gateway.counters.arp_converted_unicast == 0


def test_remote_arp_converted_to_unicast(l2_fabric):
    """Remote target: resolve MAC via routing server, unicast the request."""
    net, a, b, c = l2_fabric
    gateway = net.edges[0].l2_gateway
    gateway.inject_frame(a, _arp_request(a, b.ip))
    net.settle()
    assert gateway.counters.arp_converted_unicast == 1
    assert b.packets_received == 1            # the unicast-converted request
    # No broadcast crossed the fabric: only edge 1 saw the frame.
    assert net.edges[2].l2_gateway.counters.frames_delivered == 0


def test_arp_for_unknown_ip_absorbed(l2_fabric):
    net, a, b, c = l2_fabric
    from repro.net.addresses import IPv4Address
    gateway = net.edges[0].l2_gateway
    gateway.inject_frame(a, _arp_request(a, IPv4Address.parse("10.1.99.99")))
    net.settle()
    assert gateway.counters.arp_converted_unicast == 0
    assert b.packets_received == 0 and c.packets_received == 0


def test_unicast_l2_frame_cross_edge(l2_fabric):
    net, a, b, c = l2_fabric
    gateway = net.edges[0].l2_gateway
    # Learn b's MAC first (ARP), then send a unicast frame to it.
    gateway.inject_frame(a, _arp_request(a, b.ip))
    net.settle()
    frame = Packet(EthernetHeader(a.mac, b.mac, 0x88B5),
                   payload="l2-data", size=200)
    gateway.inject_frame(a, frame)
    net.settle()
    assert b.packets_received == 2


def test_unknown_unicast_not_flooded(l2_fabric):
    net, a, b, c = l2_fabric
    from repro.net.addresses import MacAddress
    gateway = net.edges[0].l2_gateway
    frame = Packet(EthernetHeader(a.mac, MacAddress(0xDEADBEEF), 0x88B5),
                   payload="x", size=200)
    gateway.inject_frame(a, frame)
    net.settle()
    assert gateway.counters.unknown_unicast_drops >= 1
    assert b.packets_received == 0


def test_vlan_scoped_flood_stays_local(l2_fabric):
    net, a, b, c = l2_fabric
    edge0 = net.edges[0]
    # Put a and c in VLAN 10 on edge 0.
    edge0.vrf.lookup_identity("a").vlan = 10
    edge0.vrf.lookup_identity("c").vlan = 10
    frame = Packet(EthernetHeader(a.mac, BROADCAST_MAC, 0x88B5),
                   payload="bcast", size=100)
    delivered = edge0.l2_gateway.flood_local_vlan(
        a.vn, 10, frame, exclude_identity="a"
    )
    net.settle()
    assert delivered == 1          # only c
    assert c.packets_received == 1
    assert b.packets_received == 0   # remote edge untouched
