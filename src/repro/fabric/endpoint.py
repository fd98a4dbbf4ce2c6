"""Endpoint model: a host/device attached to the fabric.

An endpoint has a stable identity (what the policy server authenticates),
a MAC address, and — once onboarded — an overlay IP, a VN, a GroupId and a
current attachment (edge router + port).  Received packets are counted and
optionally handed to a sink callback, which experiments use to timestamp
delivery (handover-delay measurement).
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.core.types import EndpointId


class Endpoint:
    """A fabric endpoint (laptop, phone, robot, IoT device, server)."""

    def __init__(self, identity, mac, secret="secret", sink=None):
        self.identity = EndpointId(identity)
        self.mac = mac
        self.secret = secret
        self.sink = sink
        # Assigned at onboarding:
        self.ip = None
        self.ipv6 = None
        self.vn = None
        self.group = None
        # Current attachment:
        self.edge = None
        self.port = None
        # Stats:
        self.packets_received = 0
        self.bytes_received = 0
        self.packets_sent = 0
        self.last_received_at = None
        # Observability: trace context of the operator verb currently
        # moving this endpoint (roam/associate); None when tracing is
        # off or the endpoint is at rest.
        self.trace_ctx = None

    @property
    def attached(self):
        return self.edge is not None

    @property
    def onboarded(self):
        return self.ip is not None and self.vn is not None

    def eids(self, families=("ipv4", "ipv6", "mac")):
        """Host prefixes of the assigned addresses in ``families``."""
        return [address.to_prefix()
                for address in (self.ip, self.ipv6, self.mac)
                if address is not None and address.family in families]

    def receive(self, packet, now):
        """Called by the serving edge when a packet is delivered."""
        self.packets_received += packet.train
        self.bytes_received += packet.size * packet.train
        self.last_received_at = now
        if self.sink is not None:
            self.sink(self, packet, now)

    def send(self, packet):
        """Inject a packet into the fabric through the serving edge."""
        if self.edge is None:
            raise ConfigurationError("endpoint %s is not attached" % self.identity)
        self.packets_sent += packet.train
        self.edge.inject_from_endpoint(self, packet)

    def __repr__(self):
        where = "@%s" % self.edge.name if self.edge is not None else "detached"
        return "Endpoint(%s, ip=%s, %s)" % (self.identity, self.ip, where)
