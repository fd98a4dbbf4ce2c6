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

Encapsulation fills a packet's ``encap`` slot with the outer
``(IP, UDP, VXLAN-GPO)`` triple and decapsulation clears it; the inner
headers are never touched.  The fabric never nests VXLAN, so a second
encapsulation is an :class:`~repro.core.errors.EncapsulationError`, and
``packet.encap is not None`` is how a device tells overlay data from
control traffic.
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
        return struct.pack("!BBH I", byte0, byte1, self.group, self.vni << 8)

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
            self.vni,
            self.group,
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

    ``src_port`` defaults to a flow-entropy hash of the inner IP header,
    the standard trick that lets underlay ECMP spread overlay flows.
    """
    if packet.encap is not None:
        raise EncapsulationError("encapsulate: packet is already encapsulated")
    if src_port is None:
        inner = packet.inner
        if isinstance(inner, IpHeader):
            # flow_entropy_port(inner.src, inner.dst), without its frame
            mixed = (inner.src.value * 2654435761) ^ inner.dst.value
            src_port = 0xC000 | (mixed & 0x3FFF)
        else:
            src_port = 0xC000
    # positional arguments: a keyword call costs a visible share of a
    # per-packet encapsulation
    packet.encap = (
        IpHeader(outer_src, outer_dst, IPPROTO_UDP),
        UdpHeader(src_port, VXLAN_PORT),
        VxlanGpoHeader(vni, group),
    )
    packet.size += ENCAP_OVERHEAD
    return packet


class EncapTemplate:
    """A pre-built outer header triple for one forwarding decision.

    The data-plane fast path memoizes, per megaflow, the three header
    objects :func:`encapsulate` builds for every packet: the outer
    :class:`~repro.net.packet.IpHeader`, the UDP header and the
    :class:`VxlanGpoHeader` (``encap``).  It also packs that header's
    **8 wire bytes** once at install time, through
    :meth:`VxlanGpoHeader.encode` (``encoded``), so the sec. 3.3/fig. 2
    layout of every installed decision is real bytes; no packet, fast or
    slow path, is packed.

    The triple is shared by every packet the template encapsulates,
    which is safe because nothing on the forwarding path mutates outer
    headers after encapsulation (the ``policy_applied`` bit is baked in
    at template-build time, and TTL work happens on the *inner* header).
    The UDP source port — flow entropy in the slow path — is frozen from
    the flow that installed the megaflow; the analytic underlay never
    reads it, so freezing it is observationally equivalent.
    """

    __slots__ = ("encap", "encoded")

    def __init__(self, outer_src, outer_dst, vni, group,
                 policy_applied=False, src_port=0xC000):
        vxlan = VxlanGpoHeader(vni, group, policy_applied=policy_applied)
        self.encoded = vxlan.encode()
        self.encap = (
            IpHeader(outer_src, outer_dst, IPPROTO_UDP),
            UdpHeader(src_port, VXLAN_PORT),
            vxlan,
        )

    def apply(self, packet):
        """Encapsulate ``packet`` with the cached triple (one slot write)."""
        if packet.encap is not None:
            raise EncapsulationError("encapsulate: packet is already encapsulated")
        packet.encap = self.encap
        packet.size += ENCAP_OVERHEAD
        return packet


def decapsulate(packet):
    """Strip the outer IP/UDP/VXLAN-GPO headers; returns the GPO header.

    Raises :class:`EncapsulationError` when the packet is not
    encapsulated.
    """
    encap = packet.encap
    if encap is None:
        raise EncapsulationError("decapsulate: not a VXLAN packet")
    packet.encap = None
    packet.size -= ENCAP_OVERHEAD
    return encap[2]
