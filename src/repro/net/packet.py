"""Packet model: simulated headers plus payload.

Packets flow through the simulated fabric as Python objects, not byte
strings: every header on the per-packet path is a header object.  Real
bytes exist only for the VXLAN-GPO header (see :mod:`repro.net.vxlan`),
whose group-policy layout is part of what the paper's design depends on;
they are packed once per :class:`~repro.net.vxlan.EncapTemplate` and by
the codec, never per forwarded packet.

A packet carries a stack of headers (outermost first) and an opaque
payload.  Encapsulation pushes headers; decapsulation pops them.  The
stacks the fabric builds have fixed shapes — an overlay or control
packet is ``[IP, UDP]`` or ``[IP]``, encapsulated under
``[IP, UDP, VXLAN-GPO]`` — so the hot readers (:meth:`Packet.inner_ip`,
:func:`repro.net.vxlan.decapsulate`) read those shapes by position, with
exact type checks, and fall back to a search for anything else.
"""

from __future__ import annotations

from repro.core.errors import EncapsulationError
from repro.net.addresses import MacAddress

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_IPV6 = 0x86DD

BROADCAST_MAC = MacAddress((1 << 48) - 1)

IPPROTO_UDP = 17


class EthernetHeader:
    """L2 header: src/dst MAC, ethertype, optional 802.1Q VLAN id."""

    __slots__ = ("src", "dst", "ethertype", "vlan")

    def __init__(self, src, dst, ethertype=ETHERTYPE_IPV4, vlan=None):
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.vlan = vlan

    def __repr__(self):
        vlan = " vlan=%d" % self.vlan if self.vlan is not None else ""
        return "Eth(%s -> %s, 0x%04x%s)" % (self.src, self.dst, self.ethertype, vlan)


class IpHeader:
    """L3 header: src/dst address (IPv4 or IPv6), protocol, TTL."""

    __slots__ = ("src", "dst", "proto", "ttl")

    def __init__(self, src, dst, proto=IPPROTO_UDP, ttl=64):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.ttl = ttl

    def __repr__(self):
        return "IP(%s -> %s, proto=%d, ttl=%d)" % (self.src, self.dst, self.proto, self.ttl)


class UdpHeader:
    """L4 header: src/dst port."""

    __slots__ = ("src_port", "dst_port")

    def __init__(self, src_port, dst_port):
        self.src_port = src_port
        self.dst_port = dst_port

    def __repr__(self):
        return "UDP(%d -> %d)" % (self.src_port, self.dst_port)


class ArpPayload:
    """ARP request/reply body.

    L2 gateways in SDA intercept ARP broadcasts, resolve the target MAC via
    the routing server, and convert the broadcast into a unicast message
    (paper sec. 3.5).
    """

    __slots__ = ("operation", "sender_mac", "sender_ip", "target_mac", "target_ip")

    REQUEST = 1
    REPLY = 2

    def __init__(self, operation, sender_mac, sender_ip, target_mac, target_ip):
        self.operation = operation
        self.sender_mac = sender_mac
        self.sender_ip = sender_ip
        self.target_mac = target_mac
        self.target_ip = target_ip

    @property
    def is_request(self):
        return self.operation == self.REQUEST

    def __repr__(self):
        kind = "who-has" if self.is_request else "is-at"
        return "ARP(%s %s tell %s)" % (kind, self.target_ip, self.sender_ip)


class Packet:
    """A simulated packet: header stack (outermost first) + payload.

    ``size`` is the wire size in bytes used for bandwidth accounting; the
    warehouse experiment uses 1500-byte packets like the paper.

    ``meta`` is a scratch dict for instrumentation (e.g. send timestamps
    for handover-delay measurement); fabric code never makes forwarding
    decisions from it.

    ``train`` is the packet-train multiplier: a single packet object can
    stand in for ``train`` back-to-back packets of the same flow (one
    simulator event instead of N).  Every counter and byte ledger on the
    forwarding path accounts ``train`` packet-equivalents, so a train of
     16 and 16 individual packets produce identical statistics.  The
    default of 1 keeps single packets exactly as before.
    """

    __slots__ = ("headers", "payload", "size", "meta", "train")

    def __init__(self, headers=None, payload=None, size=1500, meta=None,
                 train=1):
        self.headers = list(headers) if headers else []
        self.payload = payload
        self.size = size
        self.meta = meta if meta is not None else {}
        self.train = train

    # -- header stack ----------------------------------------------------------
    def push(self, header):
        """Add an outer header (encapsulation)."""
        self.headers.insert(0, header)
        return self

    def pop(self):
        """Remove and return the outermost header (decapsulation)."""
        if not self.headers:
            raise EncapsulationError("pop from packet with no headers")
        return self.headers.pop(0)

    def outer(self):
        """The outermost header, or ``None`` for a bare payload."""
        return self.headers[0] if self.headers else None

    def find(self, header_type):
        """Return the first header of the given type, or ``None``."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    @property
    def ip(self):
        """First IP header in the stack (the *outer* one if encapsulated)."""
        return self.find(IpHeader)

    @property
    def eth(self):
        return self.find(EthernetHeader)

    def inner_ip(self):
        """The innermost IP header (the overlay one if encapsulated)."""
        headers = self.headers
        if headers:
            # Every overlay and control stack ends [..., IP, UDP] or
            # [..., IP]: two exact-type index reads answer both.  Any
            # other shape (or a header subclass) takes the scan.
            last = headers[-1]
            kind = type(last)
            if kind is UdpHeader:
                if len(headers) > 1 and type(headers[-2]) is IpHeader:
                    return headers[-2]
            elif kind is IpHeader:
                return last
        for header in reversed(headers):
            if isinstance(header, IpHeader):
                return header
        return None

    def copy(self):
        """Shallow-ish copy: new header list/meta, shared payload object."""
        clone = Packet(
            headers=list(self.headers),
            payload=self.payload,
            size=self.size,
            meta=dict(self.meta),
            train=self.train,
        )
        return clone

    def __repr__(self):
        return "Packet(%s)" % " | ".join(repr(h) for h in self.headers)


def make_udp_packet(src_ip, dst_ip, src_port, dst_port, payload=None, size=1500):
    """Convenience constructor for the common overlay data packet.

    Every overlay data packet is born here, so it skips ``Packet.__init__``
    and its defensive ``list(headers)`` copy: the header list is built for
    this packet alone.  The fields are exactly what ``Packet(...)`` sets.
    """
    packet = Packet.__new__(Packet)
    packet.headers = [IpHeader(src_ip, dst_ip, IPPROTO_UDP),
                      UdpHeader(src_port, dst_port)]
    packet.payload = payload
    packet.size = size
    packet.meta = {}
    packet.train = 1
    return packet
