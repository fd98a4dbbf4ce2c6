"""Proactive (BGP-like) control plane with a centralized route reflector.

The fig. 11 comparator: every host route is pushed to **every** peer, so
one mobility event costs the route reflector a fan-out to all N edges,
serialized through its control CPU, and a given source edge converges only
when its position in that fan-out is reached.  Two consequences the paper
measures:

* mean handover delay ~10x the reactive protocol's (fan-out to 200 edges
  vs. notifying only the affected parties);
* much higher variance (an edge's update position is unrelated to whether
  it actually talks to the moved host — "the proactive approach updates
  edge routers randomly, i.e. not by their need for such update").

The implementation reuses the fabric's underlay and message plumbing;
peers keep a real routing table (optionally filtered to the EIDs they
originate traffic for, which preserves delay semantics while keeping
16k-host runs in memory).
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.lisp.messages import ControlMessage, control_packet
from repro.sim.rng import SeededRng


class BgpUpdate(ControlMessage):
    """One pushed route: (VN, EID) -> RLOC, with a sequence number."""

    __slots__ = ("vn", "eid", "rloc", "sequence", "withdrawn", "origin")

    kind = "bgp-update"

    def __init__(self, vn, eid, rloc, sequence, withdrawn=False, origin=None,
                 nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.rloc = rloc
        self.sequence = sequence
        self.withdrawn = withdrawn
        self.origin = origin


class BgpAdvertise(ControlMessage):
    """Peer -> reflector: originate/withdraw a route."""

    __slots__ = ("vn", "eid", "rloc", "withdrawn")

    kind = "bgp-advertise"

    def __init__(self, vn, eid, rloc, withdrawn=False, nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.rloc = rloc
        self.withdrawn = withdrawn


class BgpRouteReflector:
    """Centralized route reflector: receives advertisements, pushes to all.

    Two delay mechanisms compose, both properties of deployed BGP:

    * **CPU serialization** — each (update, peer) transmission costs
      ``per_peer_service_s`` on a FIFO control CPU.  With 200 peers and
      800 moves/s the output queue is perpetually deep, and an edge that
      needs an update waits behind fan-out work for edges that do not.
    * **Per-peer output batching** (``batch_interval_s``) — updates to a
      peer are flushed on that peer's advertisement timer (the
      MRAI/update-group pacing real implementations apply), so a freshly
      serialized update still waits for the peer's next flush tick.

    The reactive protocol has neither cost: a move touches the routing
    server once and notifies only the previous edge.
    """

    def __init__(self, sim, underlay, rloc, node, per_peer_service_s=30e-6,
                 service_jitter_s=5e-6, batch_interval_s=0.0, seed=17):
        self.sim = sim
        self.underlay = underlay
        self.rloc = rloc
        self.per_peer_service_s = per_peer_service_s
        self.service_jitter_s = service_jitter_s
        self.batch_interval_s = batch_interval_s
        self._rng = SeededRng(seed)
        self._peers = []
        self._peer_phase = {}
        self._sequence = 0
        self._busy_until = 0.0
        self.advertisements_received = 0
        self.updates_pushed = 0
        self.max_backlog_s = 0.0
        underlay.attach(rloc, node, self._on_packet)

    def add_peer(self, peer_rloc):
        if peer_rloc in self._peers:
            raise ConfigurationError("duplicate BGP peer %s" % peer_rloc)
        self._peers.append(peer_rloc)
        if self.batch_interval_s > 0:
            # Flush timers are unsynchronized across peers.
            self._peer_phase[peer_rloc] = self._rng.uniform(0, self.batch_interval_s)

    @property
    def peer_count(self):
        return len(self._peers)

    def _on_packet(self, packet):
        message = packet.payload
        if message.kind != BgpAdvertise.kind:
            return
        self.handle_advertisement(message)

    def handle_advertisement(self, advertisement):
        """Fan the route out to every peer except the originator."""
        self.advertisements_received += 1
        self._sequence += 1
        update_template = (
            advertisement.vn, advertisement.eid, advertisement.rloc,
            self._sequence, advertisement.withdrawn,
        )
        now = self.sim.now
        start = max(now, self._busy_until)
        for peer in self._peers:
            if peer == advertisement.rloc:
                continue
            start += self.per_peer_service_s + self._rng.uniform(0, self.service_jitter_s)
            push_at = start
            if self.batch_interval_s > 0:
                push_at = self._next_flush(peer, start)
            self.sim.post(push_at - now, self._push, peer, update_template)
        self._busy_until = start
        self.max_backlog_s = max(self.max_backlog_s, self._busy_until - now)

    def _next_flush(self, peer, ready_time):
        """Earliest flush tick of ``peer`` at or after ``ready_time``."""
        interval = self.batch_interval_s
        phase = self._peer_phase.get(peer, 0.0)
        cycles = max(0, int((ready_time - phase) / interval) + 1)
        flush = phase + cycles * interval
        if flush < ready_time:
            flush += interval
        return flush

    def _push(self, peer, template):
        vn, eid, rloc, sequence, withdrawn = template
        self.updates_pushed += 1
        update = BgpUpdate(vn, eid, rloc, sequence, withdrawn=withdrawn,
                           origin=self.rloc)
        self.underlay.send(self.rloc, peer, control_packet(self.rloc, peer, update))


class BgpPeer:
    """A BGP-speaking edge: full pushed table, no reactive machinery.

    ``interest`` (optional set of EID prefixes) filters which routes are
    *stored*; all routes still transit the reflector and consume its
    serialization time, so convergence timing is unaffected.  The update
    arrival time per EID is recorded for the handover measurement.
    """

    def __init__(self, sim, name, rloc, node, underlay, reflector,
                 interest=None, on_update=None):
        self.sim = sim
        self.name = name
        self.rloc = rloc
        self.underlay = underlay
        self.reflector = reflector
        self.routes = {}            # (vn int, eid) -> (rloc, sequence)
        self.interest = interest    # None = store everything
        self.on_update = on_update  # callback (vn, eid, rloc, time)
        self.updates_received = 0
        self.advertisements_sent = 0
        reflector.add_peer(rloc)
        underlay.attach(rloc, node, self._on_packet)

    # -- origination ---------------------------------------------------------------
    def advertise(self, vn, eid, withdrawn=False):
        """Advertise that an EID is attached here (or withdraw it)."""
        self.advertisements_sent += 1
        message = BgpAdvertise(vn, eid, self.rloc, withdrawn=withdrawn)
        self.underlay.send(
            self.rloc, self.reflector.rloc,
            control_packet(self.rloc, self.reflector.rloc, message),
        )

    # -- receive --------------------------------------------------------------------
    def _on_packet(self, packet):
        message = packet.payload
        if message.kind != BgpUpdate.kind:
            return
        self.updates_received += 1
        key = (int(message.vn), message.eid)
        if self.interest is not None and message.eid not in self.interest:
            return
        current = self.routes.get(key)
        if current is not None and current[1] >= message.sequence:
            return
        if message.withdrawn:
            self.routes.pop(key, None)
        else:
            self.routes[key] = (message.rloc, message.sequence)
        if self.on_update is not None:
            self.on_update(message.vn, message.eid, message.rloc, self.sim.now)

    # -- forwarding ---------------------------------------------------------------------
    def route_for(self, vn, eid):
        entry = self.routes.get((int(vn), eid))
        return entry[0] if entry else None

    @property
    def table_size(self):
        return len(self.routes)

    def __repr__(self):
        return "BgpPeer(%s, routes=%d)" % (self.name, len(self.routes))
