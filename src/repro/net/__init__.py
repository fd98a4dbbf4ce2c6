"""Network substrate: addressing, longest-prefix-match trie, packets
and VXLAN-GPO encapsulation.

Everything above (underlay, LISP, fabric) builds on these primitives.
"""

from repro.net.addresses import (
    IPv4Address,
    IPv6Address,
    MacAddress,
    Prefix,
    ip_address,
)
from repro.net.trie import PatriciaTrie
from repro.net.packet import (
    Packet,
    EthernetHeader,
    IpHeader,
    UdpHeader,
    ArpPayload,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_ARP,
    BROADCAST_MAC,
)
from repro.net.vxlan import VxlanGpoHeader, encapsulate, decapsulate, VXLAN_PORT

__all__ = [
    "IPv4Address",
    "IPv6Address",
    "MacAddress",
    "Prefix",
    "ip_address",
    "PatriciaTrie",
    "Packet",
    "EthernetHeader",
    "IpHeader",
    "UdpHeader",
    "ArpPayload",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "ETHERTYPE_ARP",
    "BROADCAST_MAC",
    "VxlanGpoHeader",
    "encapsulate",
    "decapsulate",
    "VXLAN_PORT",
]
