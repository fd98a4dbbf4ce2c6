"""Property-based tests for the VXLAN-GPO wire codec and header stacks.

The codec round-trips real bytes.  The stack helpers read the shapes the
fabric builds by position (``Packet.inner_ip``, ``decapsulate``); drawn
stacks — canonical or not, header subclasses included — must get the
answers a plain ``isinstance`` search gives.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import EncapsulationError
from repro.core.types import GroupId, VNId
from repro.lisp.messages import MapRequest, control_packet
from repro.net.addresses import IPv4Address, IPv6Address, MacAddress
from repro.net.packet import (
    EthernetHeader,
    IpHeader,
    Packet,
    UdpHeader,
    make_udp_packet,
)
from repro.net.vxlan import (
    ENCAP_OVERHEAD,
    VXLAN_PORT,
    VxlanGpoHeader,
    decapsulate,
    flow_entropy_port,
)


@given(
    st.integers(min_value=0, max_value=(1 << 24) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.booleans(),
    st.booleans(),
)
def test_encode_decode_roundtrip(vni, group, applied, dont_learn):
    header = VxlanGpoHeader(VNId(vni), GroupId(group),
                            policy_applied=applied, dont_learn=dont_learn)
    decoded = VxlanGpoHeader.decode(header.encode())
    assert decoded == header
    assert int(decoded.vni) == vni
    assert int(decoded.group) == group


@given(
    st.integers(min_value=0, max_value=(1 << 24) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_wire_size_constant(vni, group):
    assert len(VxlanGpoHeader(vni, group).encode()) == VxlanGpoHeader.WIRE_SIZE


@given(
    st.integers(min_value=0, max_value=(1 << 24) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_reserved_byte_zero(vni, group):
    data = VxlanGpoHeader(vni, group).encode()
    assert data[7] == 0   # low byte of the VNI word is reserved


# -- the positional fast paths give the generic answers ----------------------

class _SubIp(IpHeader):
    __slots__ = ()


class _SubUdp(UdpHeader):
    __slots__ = ()


_ADDR = IPv4Address(0x0A000001)
_headers = st.one_of(
    st.builds(lambda: EthernetHeader(MacAddress(1), MacAddress(2))),
    st.builds(lambda: IpHeader(_ADDR, _ADDR)),
    st.builds(lambda: _SubIp(_ADDR, _ADDR)),
    st.builds(UdpHeader, st.integers(0, 0xFFFF),
              st.sampled_from([VXLAN_PORT, 40000, 0])),
    st.builds(_SubUdp, st.integers(0, 0xFFFF),
              st.sampled_from([VXLAN_PORT, 40000])),
    st.builds(VxlanGpoHeader, st.integers(0, 0xFFFFFF), st.integers(0, 0xFFFF)),
)
#: free stacks, plus stacks one header away from the canonical
#: [IP, UDP:4789, VXLAN-GPO, ...] (each of the three slots may be off)
_stacks = st.one_of(
    st.lists(_headers, max_size=6),
    st.builds(
        lambda outer, udp, gpo, tail: [outer, udp, gpo] + tail,
        st.sampled_from([IpHeader(_ADDR, _ADDR), IpHeader(_ADDR, _ADDR),
                         _SubIp(_ADDR, _ADDR),
                         EthernetHeader(MacAddress(1), MacAddress(2))]),
        st.sampled_from([UdpHeader(5, VXLAN_PORT), UdpHeader(5, VXLAN_PORT),
                         UdpHeader(5, 40000), _SubUdp(5, VXLAN_PORT)]),
        st.sampled_from([VxlanGpoHeader(1, 2), VxlanGpoHeader(1, 2),
                         IpHeader(_ADDR, _ADDR)]),
        st.lists(_headers, max_size=3)),
)


def _reference_inner_ip(headers):
    for header in reversed(headers):
        if isinstance(header, IpHeader):
            return header
    return None


def _reference_decapsulate(headers):
    """The isinstance checks alone: (GPO header, rest) or the error text."""
    depth = len(headers)
    if depth < 1 or not isinstance(headers[0], IpHeader):
        return "decapsulate: outer header is not IP"
    if depth < 2 or not isinstance(headers[1], UdpHeader) \
            or headers[1].dst_port != VXLAN_PORT:
        return "decapsulate: not a VXLAN packet"
    if depth < 3 or not isinstance(headers[2], VxlanGpoHeader):
        return "decapsulate: missing VXLAN-GPO header"
    return headers[2], headers[3:]


@given(_stacks)
def test_inner_ip_is_the_reversed_scan(headers):
    assert Packet(headers=headers).inner_ip() is _reference_inner_ip(headers)


@given(_stacks, st.integers(ENCAP_OVERHEAD, 9000))
def test_decapsulate_is_the_isinstance_reference(headers, size):
    expected = _reference_decapsulate(headers)
    packet = Packet(headers=headers, size=size)
    if isinstance(expected, str):
        with pytest.raises(EncapsulationError) as raised:
            decapsulate(packet)
        assert str(raised.value) == expected
        assert packet.headers == headers and packet.size == size
    else:
        vxlan, rest = expected
        assert decapsulate(packet) is vxlan
        assert packet.headers == rest
        assert all(a is b for a, b in zip(packet.headers, rest))
        assert packet.size == size - ENCAP_OVERHEAD


class _SubVn(VNId):
    __slots__ = ()


@given(st.integers(0, (1 << 24) - 1), st.integers(0, (1 << 16) - 1))
def test_gpo_header_keeps_or_wraps_ids(vni, group):
    for vn_arg in (vni, VNId(vni), _SubVn(vni)):
        header = VxlanGpoHeader(vn_arg, GroupId(group))
        assert isinstance(header.vni, VNId) and header.vni == VNId(vni)
        assert isinstance(header.group, GroupId) and int(header.group) == group
        if isinstance(vn_arg, VNId):
            assert header.vni is vn_arg


@given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
       st.integers(0, (1 << 128) - 1))
def test_flow_entropy_port_is_the_int_mix(src, dst, wide):
    for a, b in ((IPv4Address(src), IPv4Address(dst)),
                 (IPv6Address(wide), IPv4Address(dst))):
        mixed = (int(a) * 2654435761) ^ int(b)
        assert flow_entropy_port(a, b) == 0xC000 | (mixed & 0x3FFF)


@given(st.lists(st.sampled_from(["udp", "control"]), min_size=2, max_size=6),
       st.integers(0, 5))
def test_built_packets_own_their_header_lists(kinds, victim):
    packets = [
        make_udp_packet(_ADDR, _ADDR, 1, 2) if kind == "udp"
        else control_packet(_ADDR, _ADDR, MapRequest(VNId(1), _ADDR, _ADDR))
        for kind in kinds]
    before = [list(packet.headers) for packet in packets]
    victim %= len(packets)
    packets[victim].headers.append(UdpHeader(9, 9))
    packets[victim].headers[0] = EthernetHeader(MacAddress(1), MacAddress(2))
    packets[victim].meta["seen"] = True
    for index, packet in enumerate(packets):
        assert (packet.train, packet.payload is None) == (
            1, kinds[index] == "udp")
        if index != victim:
            assert packet.headers == before[index] and packet.meta == {}
