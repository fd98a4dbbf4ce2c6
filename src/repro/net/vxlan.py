"""VXLAN with Group Policy Option (VXLAN-GPO) encapsulation.

The paper (sec. 3.3, fig. 2) selects VXLAN-GPO as the data plane
encapsulation because — unlike native LISP data plane — it can carry both
L2 and L3 payloads and has a 16-bit Group Policy ID field for the source
GroupId, which is what makes egress group-based enforcement possible.

Header layout (draft-smith-vxlan-group-policy, 8 bytes)::

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |G|R|R|R|I|R|R|R|R|D|R|R|A|R|R|R|        Group Policy ID        |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                VXLAN Network Identifier (VNI) |   Reserved    |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

:meth:`VxlanGpoHeader.encode`/:meth:`~VxlanGpoHeader.decode` pack and
parse the real 8 bytes: the bit layout is part of the design being
reproduced (GroupId rides in the packet; the VNI selects the VRF on
egress).  The per-packet path carries header *objects*, like the rest of
:mod:`repro.net.packet`; bytes are packed once per :class:`EncapTemplate`
(and by the codec tests), never per forwarded packet.
"""

from __future__ import annotations

import struct

from repro.core.errors import EncapsulationError
from repro.core.types import GroupId, VNId
from repro.net.packet import IpHeader, UdpHeader, IPPROTO_UDP

#: IANA port for VXLAN.
VXLAN_PORT = 4789

_FLAG_G = 0x80  # Group Based Policy extension present
_FLAG_I = 0x08  # VNI valid
_FLAG_D = 0x0040_0000 >> 16  # "Don't learn" bit, byte 1 bit 1 (0x40 in byte1)
_FLAG_A = 0x10  # policy Applied bit, byte 1


class VxlanGpoHeader:
    """The VXLAN-GPO header carried between underlay UDP and the inner frame.

    Attributes
    ----------
    vni:
        The 24-bit Virtual Network identifier (:class:`VNId`).
    group:
        The 16-bit source endpoint group (:class:`GroupId`).
    policy_applied:
        The A bit: set when a device already enforced policy for this
        packet, so downstream devices skip re-enforcement.
    dont_learn:
        The D bit: egress must not learn the inner source address from
        this packet.
    """

    __slots__ = ("vni", "group", "policy_applied", "dont_learn")

    WIRE_SIZE = 8

    def __init__(self, vni, group, policy_applied=False, dont_learn=False):
        self.vni = vni if isinstance(vni, VNId) else VNId(vni)
        self.group = group if isinstance(group, GroupId) else GroupId(group)
        self.policy_applied = bool(policy_applied)
        self.dont_learn = bool(dont_learn)

    def encode(self):
        """Serialize to the 8-byte wire format."""
        byte0 = _FLAG_G | _FLAG_I
        byte1 = 0
        if self.dont_learn:
            byte1 |= 0x40
        if self.policy_applied:
            byte1 |= _FLAG_A
        vni_and_reserved = (int(self.vni) << 8)
        return struct.pack(
            "!BBH I", byte0, byte1, int(self.group), vni_and_reserved
        )

    @classmethod
    def decode(cls, data):
        """Parse the 8-byte wire format; validates the G and I flags."""
        if len(data) < cls.WIRE_SIZE:
            raise EncapsulationError(
                "VXLAN-GPO header needs %d bytes, got %d" % (cls.WIRE_SIZE, len(data))
            )
        byte0, byte1, group, vni_and_reserved = struct.unpack("!BBH I", data[:8])
        if not byte0 & _FLAG_I:
            raise EncapsulationError("VXLAN header without valid VNI (I flag clear)")
        if not byte0 & _FLAG_G:
            raise EncapsulationError("expected group policy extension (G flag clear)")
        return cls(
            vni=VNId(vni_and_reserved >> 8),
            group=GroupId(group),
            policy_applied=bool(byte1 & _FLAG_A),
            dont_learn=bool(byte1 & 0x40),
        )

    def __eq__(self, other):
        return (
            isinstance(other, VxlanGpoHeader)
            and self.vni == other.vni
            and self.group == other.group
            and self.policy_applied == other.policy_applied
            and self.dont_learn == other.dont_learn
        )

    def __hash__(self):
        return hash((self.vni, self.group, self.policy_applied, self.dont_learn))

    def __repr__(self):
        return "VXLAN-GPO(vni=%d, group=%d%s%s)" % (
            int(self.vni),
            int(self.group),
            ", A" if self.policy_applied else "",
            ", D" if self.dont_learn else "",
        )


#: Underlay overhead added by encapsulation: outer IP (20) + UDP (8) + VXLAN (8).
ENCAP_OVERHEAD = 20 + 8 + 8


def flow_entropy_port(src, dst):
    """The VXLAN source port carrying a flow's ECMP entropy.

    Integer mixing, not hash(): flow entropy must not depend on
    PYTHONHASHSEED or runs stop being reproducible across processes
    (ECMP path choice feeds delivery timing).  Deliberately *not*
    memoized per flow: the mix is two integer ops, measurably cheaper
    than any dict probe keyed on the address pair.  ``src`` and ``dst``
    are addresses; their ``value`` slot is the integer ``int()`` would
    return, without the ``__int__`` frame.
    """
    mixed = (src.value * 2654435761) ^ dst.value
    return 0xC000 | (mixed & 0x3FFF)


def encapsulate(packet, outer_src, outer_dst, vni, group, src_port=None):
    """Wrap ``packet`` in outer IP/UDP/VXLAN-GPO headers (in place).

    ``src_port`` defaults to a flow-entropy hash of the inner headers, the
    standard trick that lets underlay ECMP spread overlay flows.
    """
    if src_port is None:
        inner = packet.inner_ip()
        if inner is not None:
            src_port = flow_entropy_port(inner.src, inner.dst)
        else:
            src_port = 0xC000
    # positional arguments: a keyword call costs a visible share of a
    # per-packet encapsulation
    packet.headers[:0] = (
        IpHeader(outer_src, outer_dst, IPPROTO_UDP),
        UdpHeader(src_port, VXLAN_PORT),
        VxlanGpoHeader(vni, group),
    )
    packet.size += ENCAP_OVERHEAD
    return packet


class EncapTemplate:
    """A pre-built outer header stack for one forwarding decision.

    The data-plane fast path memoizes, per megaflow, the three header
    objects :func:`encapsulate` builds for every packet: the outer
    :class:`~repro.net.packet.IpHeader`, the UDP header and the
    :class:`VxlanGpoHeader`.  It also packs that header's **8 wire
    bytes** once at install time, through :meth:`VxlanGpoHeader.encode`
    (``encoded``), so the sec. 3.3/fig. 2 layout of every installed
    decision is real bytes; no packet, fast or slow path, is packed.

    The header objects are shared by every packet the template
    encapsulates, which is safe because nothing on the forwarding path
    mutates outer headers after encapsulation (the ``policy_applied``
    bit is baked in at template-build time, and TTL work happens on the
    *inner* header).  The UDP source port — flow entropy in the slow
    path — is frozen from the flow that installed the megaflow; the
    analytic underlay never reads it, so freezing it is observationally
    equivalent.
    """

    __slots__ = ("outer_src", "outer_dst", "vxlan", "encoded", "_stack")

    def __init__(self, outer_src, outer_dst, vni, group,
                 policy_applied=False, src_port=0xC000):
        self.outer_src = outer_src
        self.outer_dst = outer_dst
        self.vxlan = VxlanGpoHeader(vni, group, policy_applied=policy_applied)
        self.encoded = self.vxlan.encode()
        self._stack = (
            IpHeader(outer_src, outer_dst, proto=IPPROTO_UDP),
            UdpHeader(src_port, VXLAN_PORT),
            self.vxlan,
        )

    def apply(self, packet):
        """Encapsulate ``packet`` with the cached stack (one list splice)."""
        packet.headers[:0] = self._stack
        packet.size += ENCAP_OVERHEAD
        return packet


def decapsulate(packet):
    """Strip outer IP/UDP/VXLAN-GPO headers; returns the GPO header.

    Raises :class:`EncapsulationError` when the packet is not a VXLAN
    packet (wrong header stack or wrong UDP port).
    """
    headers = packet.headers
    depth = len(headers)
    # The stack encapsulate/EncapTemplate build passes on exact types;
    # any other shape, header subclasses included, takes the checks.
    if depth < 3 or type(headers[2]) is not VxlanGpoHeader \
            or type(headers[1]) is not UdpHeader \
            or type(headers[0]) is not IpHeader \
            or headers[1].dst_port != VXLAN_PORT:
        if depth < 1 or not isinstance(headers[0], IpHeader):
            raise EncapsulationError("decapsulate: outer header is not IP")
        if depth < 2 or not isinstance(headers[1], UdpHeader) \
                or headers[1].dst_port != VXLAN_PORT:
            raise EncapsulationError("decapsulate: not a VXLAN packet")
        if depth < 3 or not isinstance(headers[2], VxlanGpoHeader):
            raise EncapsulationError("decapsulate: missing VXLAN-GPO header")
    vxlan = headers[2]
    del headers[:3]
    packet.size -= ENCAP_OVERHEAD
    return vxlan


def is_vxlan(packet):
    """Is the packet's UDP header addressed to the VXLAN port?

    What a fabric device asks of every underlay arrival to tell overlay
    data from control.  Both stacks put UDP right under the outer IP
    header; any other shape falls back to the first UDP header found.
    """
    headers = packet.headers
    udp = headers[1] if len(headers) > 1 else None
    if not isinstance(udp, UdpHeader):
        udp = packet.find(UdpHeader)
    return udp is not None and udp.dst_port == VXLAN_PORT
