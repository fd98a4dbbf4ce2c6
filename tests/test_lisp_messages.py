"""Unit tests for LISP control message objects."""

import pytest

from repro.core.errors import PolicyError
from repro.core.types import GroupId, VNId
from repro.lisp.messages import (
    CONTROL_MESSAGE_SIZE,
    LISP_PORT,
    MapNotify,
    MapRegister,
    MapReply,
    MapRequest,
    MapUnregister,
    PublishUpdate,
    SolicitMapRequest,
    SubscribeRequest,
    control_packet,
    next_nonce,
)
from repro.net.addresses import IPv4Address, Prefix
from repro.net.packet import IpHeader, UdpHeader

VN = VNId(10)
EID = Prefix.parse("10.0.0.5/32")
RLOC = IPv4Address.parse("192.168.0.1")


def test_nonces_monotonic_and_unique():
    first = next_nonce()
    second = next_nonce()
    assert second > first
    messages = [MapRequest(VN, EID, reply_to=RLOC) for _ in range(5)]
    nonces = [m.nonce for m in messages]
    assert len(set(nonces)) == 5


def test_explicit_nonce_preserved():
    request = MapRequest(VN, EID, reply_to=RLOC, nonce=777)
    reply = MapReply(VN, EID, None, nonce=request.nonce)
    assert reply.nonce == 777


def test_kinds_are_distinct():
    kinds = {
        MapRequest.kind, MapReply.kind, MapRegister.kind, MapUnregister.kind,
        MapNotify.kind, SolicitMapRequest.kind, SubscribeRequest.kind,
        PublishUpdate.kind,
    }
    assert len(kinds) == 8


def test_map_reply_negative_property():
    assert MapReply(VN, EID, None).is_negative
    from repro.lisp.records import MappingRecord
    record = MappingRecord(VN, EID, RLOC)
    assert not MapReply(VN, EID, record).is_negative


def test_register_mobility_flag_default_false():
    register = MapRegister(VN, EID, RLOC, GroupId(1))
    assert not register.mobility
    roam = MapRegister(VN, EID, RLOC, GroupId(1), mobility=True)
    assert roam.mobility


def test_control_packet_shape():
    message = MapRequest(VN, EID, reply_to=RLOC)
    src = IPv4Address.parse("192.168.0.9")
    packet = control_packet(src, RLOC, message)
    ip_header, udp = packet.inner, packet.l4
    assert type(ip_header) is IpHeader and type(udp) is UdpHeader
    assert packet.encap is None
    assert ip_header.src == src and ip_header.dst == RLOC
    assert udp.src_port == LISP_PORT and udp.dst_port == LISP_PORT
    assert packet.size == CONTROL_MESSAGE_SIZE
    assert packet.payload is message


def test_subscribe_vn_filter_default_none():
    subscribe = SubscribeRequest(RLOC)
    assert subscribe.vn is None


def test_sxp_update_exclusive_payload():
    from repro.policy.sxp import SxpUpdate, SxpBinding
    from repro.policy.matrix import PolicyRule

    binding = SxpBinding(VN, EID, GroupId(1))
    rule = PolicyRule(GroupId(1), GroupId(2), "allow")
    assert SxpUpdate(binding=binding).binding is binding
    assert SxpUpdate(rule=rule).rule is rule
    with pytest.raises(PolicyError):
        SxpUpdate()
    with pytest.raises(PolicyError):
        SxpUpdate(binding=binding, rule=rule)


def _eid(text="10.0.0.5/32"):
    return Prefix.parse(text)


def _rloc(text="192.168.0.1"):
    return IPv4Address.parse(text)


class TestBatchedMessages:
    def test_single_record_register_is_its_own_record(self):
        register = MapRegister(VN, _eid(), _rloc(), GroupId(7))
        records = register.eid_records
        assert register.records is None and len(records) == 1
        assert records[0].eid == _eid() and not records[0].withdraw
        assert register.record_count == 1

    def test_batched_register_mirrors_first_record(self):
        from repro.lisp import EidRecord
        records = [
            EidRecord(VN, _eid("10.0.0.%d/32" % i), _rloc()) for i in (1, 2, 3)
        ]
        register = MapRegister(records=records)
        assert register.record_count == 3
        assert register.eid == _eid("10.0.0.1/32")
        assert register.eid_records == tuple(records)

    def test_control_packet_charges_per_record(self):
        from repro.lisp import EidRecord
        from repro.lisp.messages import RECORD_SIZE
        single = control_packet(_rloc(), _rloc("192.168.0.2"),
                                MapRegister(VN, _eid(), _rloc(), GroupId(7)))
        batch = control_packet(_rloc(), _rloc("192.168.0.2"), MapRegister(
            records=[EidRecord(VN, _eid("10.0.0.%d/32" % i), _rloc())
                     for i in (1, 2, 3)]))
        assert single.size == CONTROL_MESSAGE_SIZE
        assert batch.size == CONTROL_MESSAGE_SIZE + 2 * RECORD_SIZE

    def test_batched_notify_iterates_records(self):
        from repro.lisp import MappingRecord
        records = [MappingRecord(VN, _eid("10.0.0.%d/32" % i), _rloc())
                   for i in (1, 2)]
        notify = MapNotify(records=records)
        assert notify.record_count == 2
        assert list(notify.mapping_records) == records
        assert int(notify.vn) == int(VN) and notify.eid == _eid("10.0.0.1/32")
        single = MapNotify(VN, _eid(), records[0])
        assert single.mapping_records == (records[0],)
