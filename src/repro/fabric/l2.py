"""L2 services: VLANs scoped to edge ports, ARP suppression, L2 gateways.

Sec. 3.5 combines four elements to provide scalable L2 connectivity:

1. VLANs limited to the edge router's own ports (broadcast containment);
2. endpoints indexed by MAC address in the routing server;
3. overlay IP -> MAC pairs stored in the routing server;
4. L2 gateways at the edges that absorb broadcast and convert it to
   unicast — e.g. an ARP request's broadcast MAC is replaced with the
   owner's MAC learned from the routing server, and the frame rides the
   MAC-to-RLOC mapping to exactly one edge.

The gateway here implements ARP conversion and MAC-keyed unicast
forwarding over the same map-cache machinery the L3 path uses.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.lisp.messages import MapRequest, control_packet
from repro.net.packet import (
    ArpPayload,
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    EthernetHeader,
    Packet,
)
from repro.net.vxlan import encapsulate


class L2GatewayCounters(Counters):
    FIELDS = (
        "arp_requests_seen",
        "arp_suppressed_locally",
        "arp_converted_unicast",
        "arp_pending_resolution",
        "frames_forwarded",
        "frames_delivered",
        "frames_flooded_local",
        "unknown_unicast_drops",
    )


class L2Gateway:
    """Per-edge L2 gateway: broadcast absorption + MAC forwarding."""

    def __init__(self, edge):
        self.edge = edge
        self.counters = L2GatewayCounters()
        self._pending_arp = {}   # (vn, target ip) -> list of (endpoint, arp)
        edge.l2_gateway = self

    # -- endpoint-facing entry point ------------------------------------------------
    def inject_frame(self, endpoint, packet):
        """An endpoint sent an L2 frame (fig. 4 would tag it VN+Group)."""
        entry = self.edge.vrf.lookup_identity(endpoint.identity)
        if entry is None:
            return
        eth = packet.inner
        if not isinstance(eth, EthernetHeader):
            raise ConfigurationError("L2 frame without Ethernet header")
        if eth.ethertype == ETHERTYPE_ARP and isinstance(packet.payload, ArpPayload):
            if packet.payload.is_request and eth.dst == BROADCAST_MAC:
                self._handle_arp_request(entry, endpoint, packet.payload)
                return
        self._forward_frame(entry.vn, entry.group, eth.dst, packet)

    # -- ARP conversion ------------------------------------------------------------------
    def _handle_arp_request(self, entry, endpoint, arp):
        """Absorb the broadcast; find the target MAC; unicast the request."""
        self.counters.arp_requests_seen += 1
        vn = entry.vn
        # Local target: answer directly from the VRF (ARP suppression).
        local = self.edge.vrf.lookup_ip(vn, arp.target_ip)
        if local is not None and local.mac is not None:
            self.counters.arp_suppressed_locally += 1
            self._send_arp_reply(endpoint, arp, local.mac)
            return
        # Check the map-cache for the IP record (it carries the MAC).
        cached = self.edge.map_cache.lookup(vn, arp.target_ip)
        if cached is not None and not cached.negative and cached.mac is not None:
            self._unicast_arp(vn, entry.group, endpoint, arp,
                              cached.mac, cached.rloc)
            return
        # Resolve via the routing server; park the request meanwhile.
        key = (vn, arp.target_ip)
        queue = self._pending_arp.setdefault(key, [])
        queue.append((endpoint, arp))
        self.counters.arp_pending_resolution += 1
        request = MapRequest(vn, arp.target_ip.to_prefix(), reply_to=self.edge.rloc)
        self.edge.counters.map_requests_sent += 1
        self.edge.underlay.send(
            self.edge.rloc, self.edge.routing_server_rloc,
            control_packet(self.edge.rloc, self.edge.routing_server_rloc, request),
        )

    def on_map_reply(self, reply):
        """Hook the edge calls for replies that resolve parked ARPs."""
        key = (reply.vn, reply.eid.address)
        waiting = self._pending_arp.pop(key, None)
        if not waiting:
            return False
        if reply.is_negative or reply.record is None or reply.record.mac is None:
            return True  # target unknown; broadcasts are absorbed, not flooded
        record = reply.record
        for endpoint, arp in waiting:
            entry = self.edge.vrf.lookup_identity(endpoint.identity)
            if entry is not None:
                self._unicast_arp(reply.vn, entry.group, endpoint, arp,
                                  record.mac, record.rloc)
        return True

    def _unicast_arp(self, vn, group, endpoint, arp, target_mac, rloc):
        """The sec. 3.5 conversion: broadcast ARP becomes unicast L2.

        The IP mapping record tells us both the MAC and the serving edge,
        so the MAC-to-RLOC mapping is seeded without a second resolution
        — "the MAC-to-underlay IP [is used] to encapsulate the request to
        the intended L2 MAC".
        """
        self.counters.arp_converted_unicast += 1
        self.edge.map_cache.install(vn, target_mac.to_prefix(), rloc,
                                    mac=target_mac)
        frame = Packet(EthernetHeader(arp.sender_mac, target_mac, ETHERTYPE_ARP),
                       payload=arp, size=64)
        self._forward_frame(vn, group, target_mac, frame)

    def _send_arp_reply(self, endpoint, arp, mac):
        reply = ArpPayload(
            ArpPayload.REPLY,
            sender_mac=mac, sender_ip=arp.target_ip,
            target_mac=arp.sender_mac, target_ip=arp.sender_ip,
        )
        frame = Packet(EthernetHeader(mac, arp.sender_mac, ETHERTYPE_ARP),
                       payload=reply, size=64)
        self.edge.sim.post(20e-6, endpoint.receive, frame, self.edge.sim.now)

    # -- MAC-keyed forwarding ---------------------------------------------------------
    def _forward_frame(self, vn, src_group, dst_mac, packet):
        # Local MAC?
        local = self.edge.vrf.lookup_mac(vn, dst_mac)
        if local is not None:
            self.counters.frames_delivered += 1
            self.edge.sim.post(
                20e-6, local.endpoint.receive, packet, self.edge.sim.now
            )
            return
        cached = self.edge.map_cache.lookup(vn, dst_mac)
        if cached is not None and not cached.negative:
            self.counters.frames_forwarded += 1
            encapsulate(packet, self.edge.rloc, cached.rloc, vn, src_group)
            self.edge.underlay.send(self.edge.rloc, cached.rloc, packet)
            return
        # Unknown unicast: resolve (MAC EIDs are registered) and drop the
        # frame — no flooding in the fabric.
        if cached is None:
            request = MapRequest(vn, dst_mac.to_prefix(), reply_to=self.edge.rloc)
            self.edge.counters.map_requests_sent += 1
            self.edge.underlay.send(
                self.edge.rloc, self.edge.routing_server_rloc,
                control_packet(self.edge.rloc, self.edge.routing_server_rloc, request),
            )
        self.counters.unknown_unicast_drops += 1

    # -- egress from the overlay -----------------------------------------------------------
    def handle_overlay_frame(self, vn, src_group, packet, outer_src):
        """A decapsulated non-IP frame arrived from another edge."""
        eth = packet.inner
        if not isinstance(eth, EthernetHeader):
            return
        local = self.edge.vrf.lookup_mac(vn, eth.dst)
        if local is None:
            self.counters.unknown_unicast_drops += 1
            return
        if not self.edge.acl.allows(src_group, local.group):
            self.edge.counters.policy_drops += 1
            return
        self.counters.frames_delivered += 1
        self.edge.sim.post(
            20e-6, local.endpoint.receive, packet, self.edge.sim.now
        )

    # -- VLAN-scoped local flooding ------------------------------------------------------
    def flood_local_vlan(self, vn, vlan, packet, exclude_identity=None):
        """Deliver a broadcast to local ports in one VLAN only.

        VLANs are "limited to the edge router ports" (sec. 3.5 element i),
        so a broadcast domain never crosses the underlay.
        Returns the number of local deliveries.
        """
        delivered = 0
        # each receiver gets its own packet and meta; headers are shared
        for entry in self.edge.vrf.entries(vn=vn):
            if entry.vlan != vlan:
                continue
            if exclude_identity is not None and entry.endpoint.identity == exclude_identity:
                continue
            delivered += 1
            copy = Packet(packet.inner, packet.l4, packet.payload, packet.size,
                          dict(packet.meta), packet.train)
            self.edge.sim.post(
                20e-6, entry.endpoint.receive, copy, self.edge.sim.now
            )
        self.counters.frames_flooded_local += delivered
        return delivered
