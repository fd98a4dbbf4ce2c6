"""The underlay delivery network fabric devices attach to.

A fabric device (edge/border router, routing server, policy server) attaches
at a topology node with an RLOC (underlay IPv4 address).  ``send`` routes a
packet from the source's attachment point to the destination RLOC's
attachment point along the IGP shortest path, charging per-link propagation
delay plus serialization on the narrowest link.

Delivery is *analytic* rather than hop-by-hop queued: at warehouse scale
(16k endpoints, 800 moves/s) simulating per-hop queues would dominate run
time without changing any result the paper reports, because every reported
number is either state (FIB counts) or a delay *relative to the minimum*.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.sim.rng import SeededRng


class UnderlayCounters(Counters):
    """Delivery accounting for one underlay network.

    ``dropped_packets`` counts every loss; ``blackholed`` is the subset
    lost *toward a dead device* — a detached or IGP-silenced RLOC at
    send time, or a device that detached while the packet was in
    flight.  Partition drops (no live path between two healthy nodes)
    stay out of ``blackholed``, so the chaos suite can tell "the wire
    is cut" from "the box is gone" in one counter diff.
    """

    FIELDS = (
        "delivered_packets",
        "dropped_packets",
        "blackholed",
        "bytes_delivered",
    )

    METRIC_NAMES = {
        "blackholed": "packets_blackholed",
    }


class _Attachment:
    __slots__ = ("rloc", "node", "deliver", "announced", "attached")

    def __init__(self, rloc, node, deliver):
        self.rloc = rloc
        self.node = node
        self.deliver = deliver
        self.announced = True
        #: cleared by ``detach``, so an arrival probes the attachment
        #: table only for a device that left while the packet flew
        self.attached = True


class Route:
    """One resolved ``(from RLOC, to RLOC)`` pair, held until ``live`` drops.

    ``dst`` is the destination's attachment, ``None`` for a detached or
    silenced device (a blackhole); ``delay`` is ``None`` when no live
    path joins the two nodes (a partition); ``reachable`` is what
    :meth:`UnderlayNetwork.reachable` answers for the pair.  Every
    attach, detach, ``set_announced``, topology change and IGP
    reachability change sets ``live`` to False on every handed-out
    route, so a holder re-validates with one attribute read.
    """

    __slots__ = ("dst", "delay", "hops", "reachable", "live")

    def __init__(self, dst, delay, hops, reachable):
        self.dst = dst
        self.delay = delay
        self.hops = hops
        self.reachable = reachable
        self.live = True


class UnderlayNetwork:
    """Connects fabric devices over a topology + IGP domain.

    Parameters
    ----------
    sim:
        Simulator for the clock.
    topology:
        A :class:`repro.underlay.Topology`.
    igp:
        Optional :class:`repro.underlay.IgpDomain`; when present,
        reachability and path costs come from the *destination-side IGP
        view*, and devices can subscribe to RLOC reachability.  Without an
        IGP, the network assumes full static reachability along
        topology shortest paths (cheap mode for control-plane-only
        experiments).
    extra_delay_jitter_s:
        Uniform jitter added to each delivery, modelling OS/queueing noise
        (seeded; 0 disables).
    """

    def __init__(self, sim, topology, igp=None, extra_delay_jitter_s=0.0, seed=7):
        self.sim = sim
        self.topology = topology
        self.igp = igp
        self.extra_delay_jitter_s = extra_delay_jitter_s
        self._rng = SeededRng(seed)
        self._attachments = {}        # rloc -> _Attachment
        self._path_cache = {}         # (src node, dst node) -> (delay, hops) or None
        #: (from rloc, to rloc) -> the live :class:`Route`.  One epoch
        #: lasts until an attach, detach, ``set_announced``, topology
        #: change or IGP reachability change, so a send is a single
        #: probe and a holder of the route needs none.
        self._routes = {}
        topology.watch(self._topology_changed)
        if igp is not None:
            igp.watch(self._invalidate_routes)
        self.counters = UnderlayCounters()

    # -- counter compatibility -----------------------------------------------------
    # The legacy attribute spellings predate the Counters block; every
    # existing caller (tests, experiments) keeps working through these.
    @property
    def delivered_packets(self):
        return self.counters.delivered_packets

    @delivered_packets.setter
    def delivered_packets(self, value):
        self.counters.delivered_packets = value

    @property
    def dropped_packets(self):
        return self.counters.dropped_packets

    @dropped_packets.setter
    def dropped_packets(self, value):
        self.counters.dropped_packets = value

    @property
    def bytes_delivered(self):
        return self.counters.bytes_delivered

    @bytes_delivered.setter
    def bytes_delivered(self, value):
        self.counters.bytes_delivered = value

    @property
    def blackholed(self):
        return self.counters.blackholed

    # -- attachment ------------------------------------------------------------------
    def attach(self, rloc, node, deliver):
        """Attach a device with address ``rloc`` at topology ``node``.

        ``deliver(packet)`` is invoked for each packet addressed to the
        RLOC.  If an IGP is present, the node's IGP speaker starts
        announcing the RLOC.
        """
        if rloc in self._attachments:
            raise ConfigurationError("RLOC %s already attached" % rloc)
        if not self.topology.has_node(node):
            raise ConfigurationError("unknown topology node %r" % node)
        self._attachments[rloc] = _Attachment(rloc, node, deliver)
        self._invalidate_routes()
        if self.igp is not None:
            self.igp.router(node).announce_stub(rloc)

    def detach(self, rloc):
        attachment = self._attachments.pop(rloc, None)
        self._invalidate_routes()
        if attachment is not None:
            attachment.attached = False
            if self.igp is not None:
                self.igp.router(attachment.node).withdraw_stub(rloc)

    def attachment_node(self, rloc):
        attachment = self._attachments.get(rloc)
        return attachment.node if attachment else None

    def set_announced(self, rloc, announced):
        """Silence/resume a device's IGP announcement (reboot modelling)."""
        attachment = self._attachments.get(rloc)
        if attachment is None:
            raise ConfigurationError("unknown RLOC %s" % rloc)
        attachment.announced = bool(announced)
        self._invalidate_routes()
        if self.igp is not None:
            router = self.igp.router(attachment.node)
            if announced:
                router.announce_stub(rloc)
            else:
                router.withdraw_stub(rloc)

    def subscribe_reachability(self, at_node, callback):
        """Subscribe to RLOC reachability as seen from ``at_node``'s IGP."""
        if self.igp is None:
            raise ConfigurationError("reachability subscription requires an IGP")
        self.igp.router(at_node).subscribe_reachability(callback)

    # -- path computation ---------------------------------------------------------------
    def _topology_changed(self):
        self._path_cache.clear()
        self._invalidate_routes()

    def _invalidate_routes(self):
        """End the epoch: every route handed out so far is dead."""
        for route in self._routes.values():
            route.live = False
        self._routes.clear()

    def _compute_path(self, src_node, dst_node):
        """BFS-by-cost (Dijkstra) over live topology; returns (delay, hops).

        Uses link delay as the accumulated quantity and metric for route
        selection; results are cached until the topology changes.
        """
        import heapq

        if src_node == dst_node:
            return (0.0, 0)
        best_cost = {src_node: 0}
        best_delay = {src_node: 0.0}
        best_hops = {src_node: 0}
        heap = [(0, 0.0, 0, src_node)]
        visited = set()
        while heap:
            cost, delay, hops, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst_node:
                return (delay, hops)
            for neighbor, link in self.topology.neighbors(node):
                candidate = cost + link.metric
                if candidate < best_cost.get(neighbor, float("inf")):
                    best_cost[neighbor] = candidate
                    best_delay[neighbor] = delay + link.delay_s
                    best_hops[neighbor] = hops + 1
                    heapq.heappush(
                        heap, (candidate, delay + link.delay_s, hops + 1, neighbor)
                    )
        return None

    def _path(self, src_node, dst_node):
        cache = self._path_cache
        key = (src_node, dst_node)
        if key not in cache:
            cache[key] = self._compute_path(src_node, dst_node)
        return cache[key]

    def path_delay(self, src_node, dst_node):
        """Shortest-path propagation delay between two nodes (or ``None``)."""
        path = self._path(src_node, dst_node)
        return path[0] if path else None

    def route(self, from_rloc, to_rloc):
        """The live :class:`Route` from ``from_rloc`` to ``to_rloc``.

        Resolved once per epoch and memoized; ``None`` (not memoized)
        when ``from_rloc`` is not attached.  With an IGP, ``reachable``
        is the source node's speaker's answer at resolve time, which
        stays exact because any change to any speaker's reachable set
        ends the epoch.
        """
        route = self._routes.get((from_rloc, to_rloc))
        if route is not None:
            return route
        src = self._attachments.get(from_rloc)
        if src is None:
            return None
        dst = self._attachments.get(to_rloc)
        if dst is None or not dst.announced:
            route = Route(None, None, 0, False)
        else:
            delay, hops = self._path(src.node, dst.node) or (None, 0)
            if self.igp is not None:
                reachable = self.igp.router(src.node).rloc_is_reachable(to_rloc)
            else:
                reachable = delay is not None
            route = Route(dst, delay, hops, reachable)
        self._routes[(from_rloc, to_rloc)] = route
        return route

    def reachable(self, from_rloc, to_rloc):
        """Is ``to_rloc`` reachable from ``from_rloc``'s attachment point?"""
        route = self.route(from_rloc, to_rloc)
        return route is not None and route.reachable

    # -- delivery --------------------------------------------------------------------------
    def send(self, from_rloc, to_rloc, packet, processing_delay_s=0.0):
        """Deliver ``packet`` from one RLOC to another.

        Returns True if the packet was scheduled for delivery, False if it
        was dropped (unknown/unannounced destination or partitioned
        underlay).  ``processing_delay_s`` lets callers add sender-side
        processing time without scheduling extra events.
        """
        route = self._routes.get((from_rloc, to_rloc))
        if route is None:
            route = self.route(from_rloc, to_rloc)
            if route is None:
                raise ConfigurationError(
                    "send from unattached RLOC %s" % from_rloc)
        return self.forward(route, packet, processing_delay_s)

    def forward(self, route, packet, processing_delay_s=0.0):
        """``send`` along a route the caller already holds (and checked
        is ``live``)."""
        dst = route.dst
        if dst is None:
            # Destination device is detached or silenced: a blackhole,
            # not a routing failure.
            self.counters.dropped_packets += packet.train
            self.counters.blackholed += packet.train
            return False
        delay = route.delay
        if delay is None:
            self.counters.dropped_packets += packet.train
            return False
        # Serialization on each hop, modelled once at the narrowest assumption
        # (uniform link speeds in our canned topologies).  A packet train
        # serializes all of its packet-equivalents back to back, so the
        # single delivery event lands when the burst's last byte would.
        hops = route.hops
        serialization = 0.0
        if hops:
            serialization = hops * (packet.size * packet.train * 8.0 / 10e9)
        total = processing_delay_s + delay + serialization
        jitter = self.extra_delay_jitter_s
        if jitter:
            # SeededRng.uniform(0, jitter) bit for bit (0 + (jitter - 0) * r),
            # without its frame
            total += jitter * self._rng.random()
        self.sim.post(total, self._deliver, dst, packet)
        return True

    def _deliver(self, attachment, packet):
        # Re-check liveness at arrival time: the device may have detached
        # (and maybe re-attached elsewhere) while the packet was in flight.
        if not attachment.attached:
            attachment = self._attachments.get(attachment.rloc)
            if attachment is None:
                self.counters.dropped_packets += packet.train
                self.counters.blackholed += packet.train
                return
        self.counters.delivered_packets += packet.train
        self.counters.bytes_delivered += packet.size * packet.train
        attachment.deliver(packet)
