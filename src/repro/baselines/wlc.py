"""Centralized WLAN controller baseline (the sec. 2 mobility status quo).

"A gateway device (WLAN controller) acts as a sink for all traffic from
all access points, performs access control, and re-injects it to the L3
network.  This approach presents a serious scalability limitation because
the gateway device becomes a bottleneck ... it creates triangular routing
because all L3 traffic is forced to go to the gateway and then back to
the actual destination."

The model: every access point tunnels all client traffic to the
controller; the controller serializes packets through one processing
queue and re-injects them.  Two measurable effects for the ablation
benches:

* **path stretch** — AP -> WLC -> destination vs. the SDA direct path;
* **bottleneck queueing** — controller delay grows with offered load,
  while SDA's distributed data plane spreads it across edges.
"""

from __future__ import annotations

from repro.core.batching import Batcher
from repro.core.errors import ConfigurationError
from repro.core.queueing import SerialQueue


class AccessPointTunnel:
    """One AP: clients' traffic is tunneled to the controller."""

    def __init__(self, sim, name, node, controller, underlay, rloc):
        self.sim = sim
        self.name = name
        self.node = node
        self.controller = controller
        self.underlay = underlay
        self.rloc = rloc
        self.clients = {}   # overlay ip -> client sink callable
        self.packets_tunneled = 0
        underlay.attach(rloc, node, self._on_packet)
        controller.register_ap(self)

    def attach_client(self, ip, sink):
        self.clients[ip] = sink
        self.controller.register_client(ip, self)

    def detach_client(self, ip):
        self.clients.pop(ip, None)
        self.controller.unregister_client(ip, self)

    # -- station binding ---------------------------------------------------------------
    # The same Station objects the fabric-wireless subsystem drives can be
    # attached here, so ablations compare the two data planes with
    # *identical* stations (see repro.wireless.plumbing).

    def attach_station(self, station):
        """Bind a :class:`repro.wireless.Station` to this AP (CAPWAP side)."""
        if station.ip is None:
            raise ConfigurationError(
                "station %s has no IP; CAPWAP runs use static addressing"
                % station.identity
            )
        station.ap = self
        self.attach_client(station.ip,
                           lambda packet, now: station.receive(packet, now))

    def detach_station(self, station):
        if station.ap is self:
            station.ap = None
        self.detach_client(station.ip)

    def inject_from_station(self, station, packet):
        """Station-facing alias of :meth:`inject_from_client`: in the
        centralized model every packet hairpins through the controller."""
        self.inject_from_client(packet)

    def inject_from_client(self, packet):
        """All client traffic goes to the controller — no local switching."""
        self.packets_tunneled += 1
        self.underlay.send(self.rloc, self.controller.rloc, packet)

    def _on_packet(self, packet):
        """Traffic back from the controller for one of our clients."""
        sink = self.clients.get(packet.inner.dst)
        if sink is not None:
            sink(packet, self.sim.now)


class WlanController:
    """The centralized gateway: single processing queue, full client map.

    ``batching`` gives the baseline the same record-aggregation fast
    path the fabric control plane gets (a :class:`Batcher` riding the
    controller CPU): handover table updates arriving within
    ``handover_flush_s`` are applied under **one** handover service
    charge.  Keeping the knob on both sides makes the batching ablation
    fair — the fabric's scaling story must survive an equally-optimized
    baseline.  Data packets still serialize one at a time; batching
    cannot remove the triangular data path.
    """

    def __init__(self, sim, underlay, rloc, node, service_s=8e-6,
                 handover_service_s=500e-6, batching=False,
                 handover_flush_s=1e-3):
        self.sim = sim
        self.underlay = underlay
        self.rloc = rloc
        self.service_s = service_s
        self.handover_service_s = handover_service_s
        self._cpu = SerialQueue(sim)
        self.batching = batching
        self._handover_batcher = Batcher(
            sim, self._apply_handover_batch, window_s=handover_flush_s,
            queue=self._cpu, service_s=handover_service_s,
        ) if batching else None
        self._aps = []
        self._client_ap = {}   # overlay ip -> AccessPointTunnel
        # -- anchor/foreign controller roaming (multi-WLC deployments) --
        self._peers = []       # other controllers (see connect_anchor)
        self._home = set()     # ips anchored at this controller
        self._anchor_out = {}  # ip -> foreign controller now serving it
        self.packets_processed = 0
        self.packets_anchor_tunneled = 0
        self.handovers_processed = 0
        self.anchor_moves = 0
        self.handover_batches = 0
        underlay.attach(rloc, node, self._on_packet)

    @property
    def max_queue_delay_s(self):
        return self._cpu.max_delay_s

    def register_ap(self, ap):
        self._aps.append(ap)

    def connect_anchor(self, peer):
        """Peer two controllers for anchor/foreign roaming (sec. 2 style).

        The centralized answer to inter-site mobility: a client keeps its
        anchor at the controller that first served it; roaming to an AP
        of another controller installs an *anchor tunnel* — the anchor
        keeps receiving the client's traffic and hairpins it to the
        foreign controller, which hands it to the AP.  Both controller
        queues now sit on the data path, and the anchor update itself
        queues behind the anchor's data backlog — the compounding the
        inter-site handover experiment measures against the fabric's
        control-plane-only roam.
        """
        if peer is self or peer in self._peers:
            raise ConfigurationError("bad anchor peering")
        self._peers.append(peer)
        peer._peers.append(self)

    def _find_home(self, ip):
        """The controller anchoring ``ip`` (``None`` while unclaimed)."""
        if ip in self._home:
            return self
        for peer in self._peers:
            if ip in peer._home:
                return peer
        return None

    def register_client(self, ip, ap):
        """Client association; handover work happens on the controller CPU."""
        previous = self._client_ap.get(ip)
        self._handover(self._apply_association, ip, ap)
        if previous is not None or self._find_home(ip) is not None:
            self.handovers_processed += 1

    def unregister_client(self, ip, ap):
        if self._client_ap.get(ip) is ap:
            self._handover(self._apply_disassociation, ip, ap)

    def _handover(self, fn, ip, ap):
        if self._handover_batcher is not None:
            self._handover_batcher.submit((fn, ip, ap))
        else:
            self._queue(self.handover_service_s, fn, ip, ap)

    def _apply_handover_batch(self, ops):
        self.handover_batches += 1
        for fn, ip, ap in ops:
            fn(ip, ap)

    def _apply_association(self, ip, ap):
        self._client_ap[ip] = ap
        home = self._find_home(ip)
        if home is None:
            # First association anywhere: this controller is the anchor.
            self._home.add(ip)
        elif home is self:
            # Back on an anchor-owned AP: tear the anchor tunnel down.
            self._anchor_out.pop(ip, None)
        else:
            # Foreign association: the *anchor* must update its tunnel
            # table, and that update rides the anchor's own (possibly
            # data-saturated) CPU queue — traffic keeps flowing to the
            # old attachment until it is applied.
            home._handover(home._apply_anchor_away, ip, self)

    def _apply_anchor_away(self, ip, foreign):
        self.anchor_moves += 1
        self._anchor_out[ip] = foreign

    def _apply_anchor_drop(self, ip, foreign):
        # Guarded: a racing re-association at a third controller wins.
        if self._anchor_out.get(ip) is foreign:
            del self._anchor_out[ip]

    def _apply_disassociation(self, ip, ap):
        if self._client_ap.get(ip) is ap:
            del self._client_ap[ip]
        # A roamed-out client detaching at its *foreign* controller must
        # tear the anchor tunnel down too, or the anchor keeps
        # hairpinning into a controller that no longer serves the client
        # — and the peer-route fallback would bounce those packets
        # between the two controllers forever (there is no TTL on the
        # tunnel path).  The teardown rides the anchor's CPU queue like
        # any other handover update.
        home = self._find_home(ip)
        if home is not None and home is not self:
            home._handover(home._apply_anchor_drop, ip, self)

    # -- the bottleneck queue ---------------------------------------------------------
    def _queue(self, service, fn, *args):
        self._cpu.submit(service, fn, *args)

    def _on_packet(self, packet):
        self._queue(self.service_s, self._forward, packet)

    def _forward(self, packet):
        self.packets_processed += 1
        inner = packet.inner
        ap = self._client_ap.get(inner.dst)
        if ap is not None:
            self.underlay.send(self.rloc, ap.rloc, packet)
            return
        foreign = self._anchor_out.get(inner.dst)
        if foreign is not None:
            # Anchor tunnel: hairpin to the foreign controller, which
            # queues the packet again before its AP sees it.
            self.packets_anchor_tunneled += 1
            self.underlay.send(self.rloc, foreign.rloc, packet)
            return
        for peer in self._peers:
            # Inter-controller L3: destinations owned by a peer (its own
            # clients, or clients it anchors elsewhere) route via it.
            if inner.dst in peer._client_ap or inner.dst in peer._anchor_out:
                self.underlay.send(self.rloc, peer.rloc, packet)
                return
        # Client gone everywhere: dropped at the controller.

    @property
    def client_count(self):
        return len(self._client_ap)

    def path_stretch(self, src_node, dst_node):
        """Triangular-routing stretch: (src->wlc->dst) / (src->dst) delay."""
        wlc_node = self.underlay.attachment_node(self.rloc)
        direct = self.underlay.path_delay(src_node, dst_node)
        via = (self.underlay.path_delay(src_node, wlc_node) or 0.0) + \
              (self.underlay.path_delay(wlc_node, dst_node) or 0.0)
        if not direct:
            raise ConfigurationError("no direct path %s -> %s" % (src_node, dst_node))
        return via / direct
