"""Property-based tests for the VXLAN-GPO wire codec and encapsulation.

The codec round-trips real bytes.  Encapsulation is checked as an
oracle that does not depend on how a packet holds its headers: encap
then decap gives back the VNI, group and A bit and leaves the inner
headers and size as they were; a template encapsulates exactly like
``encapsulate`` with the same source port; decapsulating a plain packet
and encapsulating twice both raise.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import EncapsulationError
from repro.core.types import GroupId, VNId
from repro.lisp.messages import MapRequest, control_packet
from repro.net.addresses import IPv4Address, IPv6Address, MacAddress
from repro.net.packet import EthernetHeader, Packet, make_udp_packet
from repro.net.vxlan import (
    ENCAP_OVERHEAD,
    VXLAN_PORT,
    EncapTemplate,
    VxlanGpoHeader,
    decapsulate,
    encapsulate,
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


# -- encap/decap oracle, independent of how a packet holds its headers ------

_ADDR = IPv4Address(0x0A000001)
_ids = st.tuples(st.integers(0, (1 << 24) - 1), st.integers(0, (1 << 16) - 1),
                 st.booleans())
_addrs = st.builds(IPv4Address, st.integers(0, (1 << 32) - 1))
_plain = st.one_of(
    st.builds(lambda src, dst, size: make_udp_packet(src, dst, 40000, 40001,
                                                     size=size),
              _addrs, _addrs, st.integers(64, 9000)),
    st.builds(lambda src, dst: control_packet(src, dst, MapRequest(
        VNId(1), _ADDR, src)), _addrs, _addrs),
    st.builds(lambda size: Packet(
        EthernetHeader(MacAddress(1), MacAddress(2)), size=size),
        st.integers(64, 9000)),
)


def _headers(packet):
    """What the rest of the fabric may read of a packet besides encap."""
    return packet.inner, packet.l4, packet.payload, packet.train


@given(_plain, _ids, _addrs, _addrs)
def test_encap_decap_round_trip(packet, ids, outer_src, outer_dst):
    vni, group, applied = ids
    before, size = _headers(packet), packet.size
    encapsulate(packet, outer_src, outer_dst, VNId(vni), GroupId(group))
    packet.encap[2].policy_applied = applied
    assert packet.size == size + ENCAP_OVERHEAD
    assert packet.encap[0].dst == outer_dst
    assert packet.encap[1].dst_port == VXLAN_PORT
    gpo = decapsulate(packet)
    assert (gpo.vni, gpo.group, gpo.policy_applied) == (vni, group, applied)
    assert all(a is b for a, b in zip(_headers(packet), before))
    assert packet.size == size


@given(_plain, _ids, _addrs, _addrs, st.integers(0, 0xFFFF))
def test_template_equals_encapsulate(packet, ids, outer_src, outer_dst, port):
    vni, group, applied = ids
    twin = Packet(packet.inner, packet.l4, packet.payload, packet.size)
    encapsulate(packet, outer_src, outer_dst, vni, group, src_port=port)
    packet.encap[2].policy_applied = applied
    template = EncapTemplate(outer_src, outer_dst, vni, group,
                             policy_applied=applied, src_port=port)
    template.apply(twin)
    assert twin.size == packet.size
    for slow, fast in zip(packet.encap, twin.encap):
        assert type(slow) is type(fast)
        assert {k: getattr(slow, k) for k in type(slow).__slots__} == \
               {k: getattr(fast, k) for k in type(fast).__slots__}
    assert template.encoded == packet.encap[2].encode()
    assert _headers(twin) == _headers(packet)


@given(_plain, _ids)
def test_decapsulating_a_plain_packet_raises(packet, ids):
    before, size = _headers(packet), packet.size
    with pytest.raises(EncapsulationError):
        decapsulate(packet)
    assert _headers(packet) == before and packet.size == size
    vni, group, _applied = ids
    encapsulate(packet, _ADDR, _ADDR, vni, group)
    encap, size = packet.encap, packet.size
    with pytest.raises(EncapsulationError):
        encapsulate(packet, _ADDR, _ADDR, vni, group)
    with pytest.raises(EncapsulationError):
        EncapTemplate(_ADDR, _ADDR, vni, group).apply(packet)
    assert packet.encap is encap and packet.size == size


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
        # encapsulate's default source port is the same mix, inlined
        packet = make_udp_packet(a, b, 1, 2)
        encapsulate(packet, _ADDR, _ADDR, 1, 1)
        assert packet.encap[1].src_port == flow_entropy_port(a, b)


@given(st.lists(st.sampled_from(["udp", "control"]), min_size=2, max_size=6),
       st.integers(0, 5))
def test_built_packets_own_their_header_lists(kinds, victim):
    packets = [
        make_udp_packet(_ADDR, _ADDR, 1, 2) if kind == "udp"
        else control_packet(_ADDR, _ADDR, MapRequest(VNId(1), _ADDR, _ADDR))
        for kind in kinds]
    before = [(p.inner, p.l4, p.inner.ttl, p.l4.dst_port) for p in packets]
    victim %= len(packets)
    packets[victim].inner.ttl = 1
    packets[victim].l4.dst_port = 9
    packets[victim].meta["seen"] = True
    for index, packet in enumerate(packets):
        assert (packet.train, packet.payload is None) == (
            1, kinds[index] == "udp")
        if index != victim:
            assert (packet.inner, packet.l4, packet.inner.ttl,
                    packet.l4.dst_port) == before[index]
            assert packet.meta == {}
            assert packet.inner is not packets[victim].inner
            assert packet.l4 is not packets[victim].l4
