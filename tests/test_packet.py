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


def test_push_pop_lifo():
    packet = Packet()
    h1 = IpHeader(IPv4Address(1), IPv4Address(2))
    h2 = UdpHeader(1, 2)
    packet.push(h2)
    packet.push(h1)
    assert packet.outer() is h1
    assert packet.pop() is h1
    assert packet.pop() is h2


def test_pop_empty_raises():
    with pytest.raises(EncapsulationError):
        Packet().pop()


def test_find_by_type():
    packet = make_udp_packet(IPv4Address(1), IPv4Address(2), 10, 20)
    assert isinstance(packet.find(IpHeader), IpHeader)
    assert isinstance(packet.find(UdpHeader), UdpHeader)
    assert packet.find(EthernetHeader) is None


def test_inner_ip_returns_innermost():
    inner = IpHeader(IPv4Address(1), IPv4Address(2))
    outer = IpHeader(IPv4Address(3), IPv4Address(4))
    packet = Packet(headers=[outer, inner])
    assert packet.inner_ip() is inner
    assert packet.ip is outer


def test_copy_isolates_header_list_and_meta():
    packet = make_udp_packet(IPv4Address(1), IPv4Address(2), 10, 20)
    packet.meta["sent_at"] = 1.0
    clone = packet.copy()
    clone.pop()
    clone.meta["sent_at"] = 2.0
    assert len(packet.headers) == 2
    assert packet.meta["sent_at"] == 1.0


def test_make_udp_packet_defaults():
    packet = make_udp_packet(IPv4Address(1), IPv4Address(2), 10, 20)
    assert packet.size == 1500
    assert packet.ip.ttl == 64
    assert packet.find(UdpHeader).dst_port == 20


def test_built_packets_skip_the_constructor_copy(monkeypatch):
    """Data and control packets are built with their own header list;
    neither constructor goes through ``Packet.__init__``."""
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
    assert [type(h) for h in data.headers + control.headers] == [
        IpHeader, UdpHeader, IpHeader, UdpHeader]


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
