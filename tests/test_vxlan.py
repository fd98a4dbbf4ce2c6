"""Unit tests for the VXLAN-GPO codec and encap/decap."""

import pytest

from repro.core.errors import EncapsulationError
from repro.core.types import GroupId, VNId
from repro.net.addresses import IPv4Address
from repro.net.packet import (
    EthernetHeader,
    IpHeader,
    Packet,
    UdpHeader,
    make_udp_packet,
)
from repro.lisp.messages import MapRequest, control_packet
from repro.net.vxlan import (
    ENCAP_OVERHEAD,
    VXLAN_PORT,
    EncapTemplate,
    VxlanGpoHeader,
    decapsulate,
    encapsulate,
)


class TestWireFormat:
    def test_encode_size(self):
        assert len(VxlanGpoHeader(1, 1).encode()) == 8

    def test_roundtrip_plain(self):
        header = VxlanGpoHeader(VNId(4098), GroupId(17))
        assert VxlanGpoHeader.decode(header.encode()) == header

    def test_roundtrip_flags(self):
        header = VxlanGpoHeader(1, 2, policy_applied=True, dont_learn=True)
        decoded = VxlanGpoHeader.decode(header.encode())
        assert decoded.policy_applied and decoded.dont_learn

    def test_max_values(self):
        header = VxlanGpoHeader(VNId((1 << 24) - 1), GroupId((1 << 16) - 1))
        decoded = VxlanGpoHeader.decode(header.encode())
        assert int(decoded.vni) == (1 << 24) - 1
        assert int(decoded.group) == (1 << 16) - 1

    def test_flag_bits_in_wire_bytes(self):
        data = VxlanGpoHeader(1, 2).encode()
        assert data[0] & 0x80          # G bit
        assert data[0] & 0x08          # I bit

    def test_vni_position(self):
        data = VxlanGpoHeader(0xABCDEF, 0).encode()
        assert data[4:7] == bytes([0xAB, 0xCD, 0xEF])

    def test_group_position(self):
        data = VxlanGpoHeader(1, 0x1234).encode()
        assert data[2:4] == bytes([0x12, 0x34])

    def test_decode_too_short(self):
        with pytest.raises(EncapsulationError):
            VxlanGpoHeader.decode(b"\x88\x00\x00")

    def test_decode_missing_i_flag(self):
        data = bytearray(VxlanGpoHeader(1, 2).encode())
        data[0] &= ~0x08
        with pytest.raises(EncapsulationError):
            VxlanGpoHeader.decode(bytes(data))

    def test_decode_missing_g_flag(self):
        data = bytearray(VxlanGpoHeader(1, 2).encode())
        data[0] &= ~0x80
        with pytest.raises(EncapsulationError):
            VxlanGpoHeader.decode(bytes(data))

    def test_out_of_range_rejected(self):
        from repro.core.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            VxlanGpoHeader(1 << 24, 0)
        with pytest.raises(ConfigurationError):
            VxlanGpoHeader(0, 1 << 16)


class TestEncapDecap:
    def _packet(self):
        return make_udp_packet(
            IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2"), 10, 20
        )

    def test_encapsulate_builds_stack(self):
        packet = self._packet()
        size_before = packet.size
        encapsulate(packet, IPv4Address(1), IPv4Address(2), 4098, 17)
        outer_ip, udp, gpo = packet.encap
        assert isinstance(outer_ip, IpHeader)
        assert isinstance(udp, UdpHeader)
        assert udp.dst_port == VXLAN_PORT
        assert isinstance(gpo, VxlanGpoHeader)
        assert packet.size == size_before + ENCAP_OVERHEAD

    def test_decapsulate_restores(self):
        packet = self._packet()
        size_before = packet.size
        encapsulate(packet, IPv4Address(1), IPv4Address(2), 4098, 17)
        gpo = decapsulate(packet)
        assert int(gpo.vni) == 4098 and int(gpo.group) == 17
        assert packet.size == size_before
        assert str(packet.inner.dst) == "10.0.0.2"

    def test_ecmp_entropy_src_port(self):
        p1 = self._packet()
        p2 = make_udp_packet(
            IPv4Address.parse("10.0.0.9"), IPv4Address.parse("10.0.0.2"), 10, 20
        )
        encapsulate(p1, IPv4Address(1), IPv4Address(2), 1, 1)
        encapsulate(p2, IPv4Address(1), IPv4Address(2), 1, 1)
        assert p1.encap[1].src_port >= 0xC000
        # Flow entropy: different inner flows usually hash differently.

    def test_decapsulate_non_vxlan_rejected(self):
        packet = self._packet()
        with pytest.raises(EncapsulationError):
            decapsulate(packet)

    def test_nested_encapsulation(self):
        # The fabric never nests VXLAN (one GPO header per packet), so a
        # second encapsulation is refused and leaves the first intact.
        packet = self._packet()
        encapsulate(packet, IPv4Address(1), IPv4Address(2), 1, 1)
        first, size = packet.encap, packet.size
        with pytest.raises(EncapsulationError):
            encapsulate(packet, IPv4Address(3), IPv4Address(4), 2, 2)
        with pytest.raises(EncapsulationError):
            EncapTemplate(IPv4Address(3), IPv4Address(4), 2, 2).apply(packet)
        assert packet.encap is first and packet.size == size
        assert int(decapsulate(packet).vni) == 1


_ETH = EthernetHeader(None, None)


class TestHeaderStackChecks:
    @pytest.mark.parametrize("headers, message", [
        ((None, None), "decapsulate: not a VXLAN packet"),
        ((_ETH, None), "decapsulate: not a VXLAN packet"),
        ((IpHeader(IPv4Address(1), IPv4Address(2)), None),
         "decapsulate: not a VXLAN packet"),
        ((IpHeader(IPv4Address(1), IPv4Address(2)), UdpHeader(1, VXLAN_PORT)),
         "decapsulate: not a VXLAN packet"),
    ])
    def test_decapsulate_names_what_is_wrong_and_touches_nothing(
            self, headers, message):
        inner, l4 = headers
        packet = Packet(inner, l4, size=700)
        with pytest.raises(EncapsulationError) as raised:
            decapsulate(packet)
        assert str(raised.value) == message
        assert (packet.inner, packet.l4, packet.encap, packet.size) == (
            inner, l4, None, 700)

    def test_encapsulate_puts_three_headers_in_front(self):
        packet = make_udp_packet(IPv4Address(5), IPv4Address(6), 10, 20)
        inner, l4 = packet.inner, packet.l4
        encapsulate(packet, IPv4Address(1), IPv4Address(2), 7, 9)
        outer_ip, udp, vxlan = packet.encap
        assert (outer_ip.src, outer_ip.dst) == (IPv4Address(1), IPv4Address(2))
        assert udp.dst_port == VXLAN_PORT
        assert (int(vxlan.vni), int(vxlan.group)) == (7, 9)
        assert packet.inner is inner and packet.l4 is l4

    def test_inner_ip_of_stacks_without_ip(self):
        assert Packet().inner is None
        frame = Packet(_ETH)
        assert not isinstance(frame.inner, IpHeader)
        # An L2 frame carries no flow entropy: the fixed source port.
        encapsulate(frame, IPv4Address(1), IPv4Address(2), 7, 9)
        assert frame.encap[1].src_port == 0xC000 and frame.inner is _ETH

    def test_is_vxlan(self):
        # A device tells overlay data from control by the encap slot.
        data = make_udp_packet(IPv4Address(5), IPv4Address(6), 10, 20)
        assert data.encap is None                 # overlay UDP, other port
        encapsulate(data, IPv4Address(1), IPv4Address(2), 7, 9)
        assert data.encap is not None
        decapsulate(data)
        assert data.encap is None
        control = control_packet(IPv4Address(1), IPv4Address(2),
                                 MapRequest(VNId(1), IPv4Address(5),
                                            IPv4Address(1)))
        assert control.encap is None and control.l4.dst_port != VXLAN_PORT
