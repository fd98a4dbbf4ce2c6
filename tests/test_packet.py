"""Unit tests for the packet model."""

import pytest

from repro.core.errors import EncapsulationError
from repro.core.types import VNId
from repro.lisp.messages import MapRequest, control_packet
from repro.net.packet import (
    ArpPayload,
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    EthernetHeader,
    IpHeader,
    Packet,
    UdpHeader,
    make_udp_packet,
)
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.vxlan import decapsulate, encapsulate


def _udp():
    return make_udp_packet(IPv4Address(1), IPv4Address(2), 10, 20)


def test_push_pop_lifo():
    # Encapsulation pushes the outer triple over the inner headers;
    # decapsulation pops exactly that triple and nothing else.
    packet = _udp()
    inner, l4 = packet.inner, packet.l4
    encapsulate(packet, IPv4Address(3), IPv4Address(4), VNId(1), 2)
    outer_ip, udp, gpo = packet.encap
    assert (outer_ip.src, outer_ip.dst) == (IPv4Address(3), IPv4Address(4))
    assert decapsulate(packet) is gpo
    assert packet.encap is None
    assert packet.inner is inner and packet.l4 is l4


def test_pop_empty_raises():
    for packet in (Packet(), _udp()):
        with pytest.raises(EncapsulationError):
            decapsulate(packet)


def test_find_by_type():
    packet = _udp()
    assert type(packet.inner) is IpHeader
    assert type(packet.l4) is UdpHeader
    assert packet.encap is None
    frame = Packet(EthernetHeader(MacAddress(1), BROADCAST_MAC))
    assert type(frame.inner) is EthernetHeader and frame.l4 is None


def test_inner_ip_returns_innermost():
    packet = _udp()
    inner = packet.inner
    encapsulate(packet, IPv4Address(3), IPv4Address(4), VNId(1), 2)
    assert packet.inner is inner
    assert packet.encap[0] is not inner and packet.encap[0].src == IPv4Address(3)


def test_make_udp_packet_defaults():
    packet = _udp()
    assert packet.size == 1500
    assert packet.inner.ttl == 64
    assert packet.l4.dst_port == 20


def test_built_packets_skip_the_constructor_copy(monkeypatch):
    """Data and control packets fill their own slots; neither
    constructor goes through ``Packet.__init__``."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("Packet.__init__ on a built packet")

    monkeypatch.setattr(Packet, "__init__", refuse)
    data = make_udp_packet(IPv4Address(1), IPv4Address(2), 10, 20,
                           payload="x", size=700)
    control = control_packet(IPv4Address(3), IPv4Address(4),
                             MapRequest(VNId(1), IPv4Address(5),
                                        IPv4Address(3)))
    assert (data.payload, data.size, data.meta, data.train) == ("x", 700, {}, 1)
    assert control.meta == {} and control.train == 1
    for packet in (data, control):
        assert (type(packet.inner), type(packet.l4), packet.encap) == (
            IpHeader, UdpHeader, None)


def test_repr_lists_outer_then_inner():
    packet = _udp()
    assert repr(packet) == "Packet(%r | %r)" % (packet.inner, packet.l4)
    encapsulate(packet, IPv4Address(3), IPv4Address(4), VNId(1), 2)
    assert repr(packet).startswith("Packet(IP(") and "VXLAN-GPO(vni=1" in repr(packet)


def test_arp_payload_semantics():
    arp = ArpPayload(
        ArpPayload.REQUEST,
        sender_mac=MacAddress(1), sender_ip=IPv4Address(1),
        target_mac=BROADCAST_MAC, target_ip=IPv4Address(2),
    )
    assert arp.is_request
    reply = ArpPayload(ArpPayload.REPLY, MacAddress(2), IPv4Address(2),
                       MacAddress(1), IPv4Address(1))
    assert not reply.is_request


def test_ethernet_vlan_tag():
    eth = EthernetHeader(MacAddress(1), MacAddress(2), ETHERTYPE_ARP, vlan=100)
    assert eth.vlan == 100
    assert "vlan=100" in repr(eth)


def test_broadcast_mac_constant():
    assert BROADCAST_MAC.is_broadcast
