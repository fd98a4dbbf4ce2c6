"""Packet model: simulated headers plus payload.

Packets flow through the simulated fabric as Python objects, not byte
strings: every header on the per-packet path is a header object.  Real
bytes exist only for the VXLAN-GPO header (see :mod:`repro.net.vxlan`),
whose group-policy layout is part of what the paper's design depends on;
they are packed once per :class:`~repro.net.vxlan.EncapTemplate` and by
the codec, never per forwarded packet.

The fabric builds packets of fixed shapes, so a packet holds its
headers in named slots rather than a list (sec. 3.3, fig. 2: one
VXLAN-GPO encapsulation, never nested):

* ``inner`` — the IP header of an overlay or control packet, or the
  Ethernet header of an L2 service frame;
* ``l4`` — the UDP header under ``inner``, or ``None``;
* ``encap`` — ``None``, or the outer ``(IP, UDP, VXLAN-GPO)`` triple
  that :func:`repro.net.vxlan.encapsulate` fills and
  :func:`repro.net.vxlan.decapsulate` clears.

Reading a header is one attribute read; nothing searches or type-checks
a stack.
"""

from __future__ import annotations

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
    """A simulated packet: header slots + payload.

    ``inner``, ``l4`` and ``encap`` are the header slots described in
    the module docstring.

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

    __slots__ = ("inner", "l4", "encap", "payload", "size", "meta", "train")

    def __init__(self, inner=None, l4=None, payload=None, size=1500,
                 meta=None, train=1):
        self.inner = inner
        self.l4 = l4
        self.encap = None
        self.payload = payload
        self.size = size
        self.meta = meta if meta is not None else {}
        self.train = train

    def __repr__(self):
        headers = (self.encap or ()) + (self.inner, self.l4)
        return "Packet(%s)" % " | ".join(
            repr(h) for h in headers if h is not None)


def make_udp_packet(src_ip, dst_ip, src_port, dst_port, payload=None, size=1500):
    """Convenience constructor for the common overlay data packet.

    Every overlay data packet is born here, so it fills the slots itself
    and skips the ``Packet.__init__`` frame.  The fields are exactly
    what ``Packet(...)`` sets.
    """
    packet = Packet.__new__(Packet)
    packet.inner = IpHeader(src_ip, dst_ip, IPPROTO_UDP)
    packet.l4 = UdpHeader(src_port, dst_port)
    packet.encap = None
    packet.payload = payload
    packet.size = size
    packet.meta = {}
    packet.train = 1
    return packet
