"""FabricNetwork: one object assembling the whole SDA deployment.

Builds, in dependency order: topology -> IGP -> underlay delivery network
-> routing server -> policy server (+ SXP) -> border routers -> edge
routers -> DHCP, then exposes operator verbs (define VNs/groups/rules,
enroll endpoints) and runtime verbs (admit, roam, send).

This is the object the examples and experiments drive; its defaults match
the paper's campus deployments (table 4): 1-2 borders, 6-7 edges, 10 Gbps
border-edge links.
"""

from __future__ import annotations

from collections import namedtuple

from repro.core.errors import ConfigurationError
from repro.core.types import VNId
from repro.fabric.border import BorderRouter
from repro.fabric.dhcp import DhcpServer
from repro.fabric.edge import ENFORCE_EGRESS, ENFORCE_INGRESS, EdgeRouter
from repro.fabric.endpoint import Endpoint
from repro.fabric.l2 import L2Gateway
from repro.net.addresses import IPv4Address, MacAddress, Prefix
from repro.net.packet import make_udp_packet
from repro.lisp.mapserver import RoutingServer
from repro.lisp.messages import MapRequest
from repro.policy.groups import SegmentationPlan
from repro.policy.server import PolicyServer
from repro.policy.sxp import SxpSpeaker
from repro.sim.simulator import Simulator
from repro.underlay.linkstate import IgpDomain
from repro.underlay.network import UnderlayNetwork
from repro.underlay.topology import Topology


#: FabricConfig's fields and defaults: the one place a knob is declared.
_FABRIC_DEFAULTS = dict(
    num_borders=1,
    num_edges=7,
    num_routing_servers=1,
    enforcement=ENFORCE_EGRESS,
    map_cache_ttl=1200.0,
    negative_ttl=15.0,
    edge_detection_delay_s=2e-3,
    link_delay_s=50e-6,
    link_bandwidth_bps=10e9,
    use_igp=True,
    l2_services=False,
    underlay_jitter_s=20e-6,
    register_families=("ipv4", "ipv6", "mac"),
    seed=42,
    #: disjoint MAC numbering block (multi-site: one block per site so
    #: endpoints minted by different fabrics never collide on MAC)
    mac_block=0,
    #: control-plane fast path knobs (all off by default so every
    #: experiment can ablate them): ``batching`` coalesces edge and WLC
    #: Map-Registers (and deregistrations, in-band) per server within a
    #: ``register_flush_s`` window, and batches SXP deltas;
    #: ``session_cache`` enables RADIUS session resumption on the
    #: policy server.
    batching=False,
    register_flush_s=2e-3,
    session_cache=False,
    session_cache_ttl_s=600.0,
    #: data-plane fast path (default on; ``megaflow=False`` is the
    #: per-packet slow path the property oracles compare against):
    #: every edge and border memoizes complete forwarding decisions in
    #: an OVS-style megaflow cache (see :mod:`repro.net.fastpath`).
    megaflow=True,
    #: chaos-suite recovery knobs (all off by default — the
    #: fire-and-forget baseline stays bit-identical):
    #: ``register_retry`` (a :class:`repro.core.RetryPolicy`) turns
    #: edge registrations into acked messages and resends unacked edge
    #: and WLC ones with exponential backoff, so a lost Map-Register no
    #: longer strands an endpoint; ``register_refresh_s`` makes every
    #: edge periodically re-register its local endpoints, which
    #: repopulates a cold-restarted routing server and feeds its TTL sweep;
    #: ``border_failover`` gives each edge the other borders as
    #: default-route backups; ``registration_ttl_s`` +
    #: ``registration_sweep_s`` turn server-side registrations into
    #: soft state that expires when no refresh arrives.
    register_retry=None,
    register_refresh_s=None,
    border_failover=False,
    registration_ttl_s=None,
    registration_sweep_s=None,
    #: overload-armor knobs (all off by default — with every knob at
    #: its default the fabric is bit-identical to the unarmored
    #: build): ``server_max_pending`` / ``server_max_backlog_s``
    #: bound each routing server's FIFO (admission control with
    #: priority classes kicks in once bounded);  ``backpressure``
    #: makes edges and the WLC react to the in-band overloaded bit on
    #: acks by widening batch windows and stretching refresh periods;
    #: ``breaker`` is a :class:`repro.core.BreakerPolicy` wrapping
    #: the register-retry path in a circuit breaker;
    #: ``serve_stale_s`` turns on stale-while-revalidate map-caches.
    server_max_pending=None,
    server_max_backlog_s=None,
    backpressure=False,
    breaker=None,
    serve_stale_s=None,
)


class FabricConfig(namedtuple("FabricConfig", _FABRIC_DEFAULTS,
                              defaults=_FABRIC_DEFAULTS.values())):
    """Knobs for building a fabric (paper-calibrated defaults).

    Flat and frozen.  The facade hands this object to every device it
    builds and :class:`repro.multisite.MultiSiteConfig` embeds one.  A
    namedtuple, not a dataclass: ``import dataclasses`` pulls in
    ``inspect`` (+1.6 MB RSS), more than the benchmark's 5% bound on
    ``peak_rss_mb`` allows on its 22 MB wired workloads.
    """

    __slots__ = ()

    def __new__(cls, **knobs):
        self = super().__new__(cls, **knobs)
        for count in ("num_borders", "num_edges", "num_routing_servers"):
            if getattr(self, count) < 1:
                raise ConfigurationError("a fabric needs %s >= 1" % count)
        if self.enforcement not in (ENFORCE_EGRESS, ENFORCE_INGRESS):
            raise ConfigurationError(
                "unknown enforcement point %r" % (self.enforcement,))
        # Inert combinations: both armor knobs only ever act on acked
        # registrations, and an edge only asks for acks under a retry
        # policy; the TTL is read only by the sweep.
        if (self.breaker or self.backpressure) and self.register_retry is None:
            raise ConfigurationError(
                "breaker / backpressure do nothing without register_retry")
        if self.registration_ttl_s is not None \
                and self.registration_sweep_s is None:
            raise ConfigurationError(
                "registration_ttl_s does nothing without registration_sweep_s")
        return self


def inject_burst(endpoint, dst_ip, size=1500, payload=None, count=1,
                 as_train=False):
    """Inject ``count`` identical overlay packets from an endpoint.

    The single injection primitive behind ``FabricNetwork.send`` and
    ``MultiSiteNetwork.send``: one packet object per packet in baseline
    mode, or a single packet-train object (``train=count``) when
    ``as_train`` is on.  Returns the last packet injected.
    """
    if endpoint.ip is None:
        raise ConfigurationError(
            "endpoint %s not onboarded yet" % endpoint.identity
        )
    if as_train and count > 1:
        packet = make_udp_packet(endpoint.ip, dst_ip, 40000, 40000,
                                 payload=payload, size=size)
        packet.train = count
        endpoint.send(packet)
        return packet
    packet = None
    for _ in range(count):
        packet = make_udp_packet(endpoint.ip, dst_ip, 40000, 40000,
                                 payload=payload, size=size)
        endpoint.send(packet)
    return packet


#: RLOC numbering plan: infra services, borders and edges live in 192.168/16.
_RLOC_SERVER = "192.168.255.1"
_RLOC_POLICY = "192.168.255.2"
_RLOC_BORDER_BASE = 0xC0A8FE00   # 192.168.254.0/24 for borders
_RLOC_EDGE_BASE = 0xC0A80000     # 192.168.0.0/17 for edges


class FabricNetwork:
    """A complete SDA fabric over a simulated underlay."""

    def __init__(self, config=None, sim=None):
        self.config = config or FabricConfig()
        self.sim = sim or Simulator()
        cfg = self.config

        # Underlay: spine-leaf; borders ride their own spine-side nodes.
        self.topology, self._spines, self._leaves = Topology.two_tier(
            num_spines=max(2, cfg.num_borders),
            num_leaves=cfg.num_edges,
            delay_s=cfg.link_delay_s,
            bandwidth_bps=cfg.link_bandwidth_bps,
        )
        self.igp = None
        if cfg.use_igp:
            self.igp = IgpDomain(self.sim, self.topology)
            for node in self.topology.nodes():
                self.igp.add_router(node)
            self.igp.start()
        self.underlay = UnderlayNetwork(
            self.sim, self.topology, igp=self.igp,
            extra_delay_jitter_s=cfg.underlay_jitter_s, seed=cfg.seed,
        )

        # Control plane servers sit off spine-0 (their own node keeps the
        # model honest about server-side network hops).  More than one
        # routing server implements the sec. 4.1 horizontal scaling:
        # edges are grouped and pointed at different servers for requests,
        # while registrations go to all servers.
        base_server_rloc = int(IPv4Address.parse(_RLOC_SERVER))
        self.routing_servers = [
            RoutingServer(
                self.sim, self.underlay,
                rloc=IPv4Address(base_server_rloc + 8 * index),
                node=self._spines[index % len(self._spines)],
                seed=cfg.seed + 1 + index,
                max_pending=cfg.server_max_pending,
                max_backlog_s=cfg.server_max_backlog_s,
            )
            for index in range(cfg.num_routing_servers)
        ]
        self.routing_server = self.routing_servers[0]
        self.plan = SegmentationPlan()
        self.policy_server = PolicyServer(
            self.sim, self.plan, underlay=self.underlay,
            rloc=IPv4Address.parse(_RLOC_POLICY), node=self._spines[0],
            seed=cfg.seed + 2,
            session_cache=cfg.session_cache,
            session_cache_ttl_s=cfg.session_cache_ttl_s,
        )
        self.sxp = SxpSpeaker(self.sim, underlay=self.underlay,
                              rloc=self.policy_server.rloc,
                              batching=cfg.batching)
        self.policy_server.on_matrix_change(self.sxp.distribute_rule)
        self.policy_server.on_group_change(self._on_group_change)
        self.policy_server.on_session(self._on_session)

        self.dhcp = DhcpServer()

        # Data plane devices.
        self.borders = []
        for i in range(cfg.num_borders):
            rloc = IPv4Address(_RLOC_BORDER_BASE + 1 + i)
            server = self.routing_servers[i % len(self.routing_servers)]
            border = BorderRouter(
                self.sim, "border-%d" % i, rloc, self._spines[i],
                self.underlay, server.rloc, cfg,
            )
            self.borders.append(border)

        if cfg.registration_sweep_s is not None:
            for server in self.routing_servers:
                server.start_registration_sweep(
                    cfg.registration_sweep_s, ttl_s=cfg.registration_ttl_s)

        self.edges = []
        for i in range(cfg.num_edges):
            rloc = IPv4Address(_RLOC_EDGE_BASE + 1 + i)
            primary_border = self.borders[i % cfg.num_borders]
            backup_rlocs = ()
            if cfg.border_failover and cfg.num_borders > 1:
                backup_rlocs = tuple(
                    border.rloc for border in self.borders
                    if border is not primary_border
                )
            edge = EdgeRouter(
                self.sim, "edge-%d" % i, rloc, self._leaves[i],
                self.underlay, cfg,
                routing_server_rloc=self.routing_servers[
                    i % len(self.routing_servers)].rloc,
                policy_server_rloc=self.policy_server.rloc,
                border_rloc=primary_border.rloc,
                dhcp=self.dhcp,
                register_rlocs=[s.rloc for s in self.routing_servers],
                backup_border_rlocs=backup_rlocs,
            )
            if cfg.l2_services:
                L2Gateway(edge)
            self.sxp.add_peer(edge.rloc)
            self.edges.append(edge)

        self._endpoints = {}
        #: active synthetic overload feeds, server index -> feed state
        #: (see :meth:`overload_server`); empty in a healthy fabric.
        self._overload_feeds = {}
        # Locally administered MACs, offset by the fabric's numbering block.
        self._mac_counter = 0x02_00_00_00_00_00 + (cfg.mac_block << 24)

        # Bring the control plane up: IGP convergence + border pubsub.
        self.settle()
        for border in self.borders:
            border.subscribe()
        self.settle()

    @property
    def spine_nodes(self):
        """Underlay nodes on the spine tier — where shared services
        (routing/policy servers, WLCs) attach."""
        return list(self._spines)

    # ------------------------------------------------------------------ operator verbs
    def define_vn(self, name, vn_id, prefix):
        """Create a VN with its overlay DHCP pool and default external route."""
        vn = self.plan.add_vn(vn_id, name)
        self.dhcp.add_pool(vn.vn_id, prefix)
        default = Prefix(IPv4Address(0), 0)
        for border in self.borders:
            border.add_external_route(vn.vn_id, default, label="internet")
        return vn

    def define_group(self, name, group_id, vn_id):
        return self.plan.add_group(group_id, name, vn_id)

    def allow(self, src_group, dst_group, symmetric=True):
        """Whitelist a group pair in the connectivity matrix."""
        self._set_rule(src_group, dst_group, "allow", symmetric)

    def deny(self, src_group, dst_group, symmetric=True):
        """Blacklist a group pair in the connectivity matrix."""
        self._set_rule(src_group, dst_group, "deny", symmetric)

    def _set_rule(self, src_group, dst_group, action, symmetric):
        a = self.plan.group_by_name(src_group) if isinstance(src_group, str) else None
        b = self.plan.group_by_name(dst_group) if isinstance(dst_group, str) else None
        src = a.group_id if a is not None else src_group
        dst = b.group_id if b is not None else dst_group
        self.policy_server.set_rule(src, dst, action)
        if symmetric:
            self.policy_server.set_rule(dst, src, action)

    def create_endpoint(self, identity, group, vn, secret="secret", sink=None,
                        factory=Endpoint):
        """Enroll an endpoint identity and mint its device object.

        ``factory`` selects the device class — the wireless subsystem
        passes :class:`repro.wireless.Station` so stations share the
        fabric's identity/MAC numbering and policy enrollment.
        """
        endpoint = factory(identity, MacAddress(self._mac_counter + 1),
                           secret=secret, sink=sink)
        self.adopt_endpoint(endpoint, group, vn)
        self._mac_counter += 1   # only an enrolled endpoint uses up a MAC
        return endpoint

    def adopt_endpoint(self, endpoint, group, vn):
        """Enroll an endpoint minted by another fabric into this one.

        Multi-site federation: the same identity (and device object) is
        known to every site's policy server, so the endpoint can
        authenticate wherever it attaches.  No new device is created and
        no DHCP pool is touched — on a cross-site attach, L3 mobility
        keeps the address the home site leased.
        """
        if endpoint.identity in self._endpoints:
            raise ConfigurationError("duplicate endpoint identity %r" % endpoint.identity)
        group_obj = self.plan.group_by_name(group) if isinstance(group, str) else self.plan.group(group)
        vn_id = vn if isinstance(vn, VNId) else VNId(vn)
        self.policy_server.enroll(endpoint.identity, endpoint.secret,
                                  group_obj.group_id, vn_id)
        self._endpoints[endpoint.identity] = endpoint
        return endpoint

    def endpoint(self, identity):
        try:
            return self._endpoints[identity]
        except KeyError:
            raise ConfigurationError("unknown endpoint %r" % identity)

    def endpoints(self):
        return list(self._endpoints.values())

    # ------------------------------------------------------------------ runtime verbs
    def admit(self, endpoint, edge, port=None, on_complete=None):
        """Attach an endpoint to an edge and run onboarding (fig. 3)."""
        if isinstance(edge, int):
            edge = self.edges[edge]
        edge.attach_endpoint(endpoint, port=port, on_complete=on_complete)

    def roam(self, endpoint, new_edge, on_complete=None):
        """Move an endpoint to a new edge (fig. 5 mobility event)."""
        if isinstance(new_edge, int):
            new_edge = self.edges[new_edge]
        old_edge = endpoint.edge
        if old_edge is new_edge:
            return
        if old_edge is not None:
            old_edge.detach_endpoint(endpoint)
        new_edge.attach_endpoint(endpoint, on_complete=on_complete)

    def depart(self, endpoint):
        """Endpoint leaves the network entirely (deregisters)."""
        if endpoint.edge is not None:
            endpoint.edge.detach_endpoint(endpoint, deregister=True)

    def send(self, src_endpoint, dst, size=1500, payload=None,
             count=1, as_train=False):
        """Inject overlay packet(s) from an endpoint towards ``dst``.

        ``dst`` may be an Endpoint (uses its overlay IP) or an address.
        ``count`` sends a burst of identical packets: one packet object
        per packet when ``as_train`` is off (the baseline), or a single
        packet-train object carrying ``train=count`` when on — one
        simulator event standing in for the whole burst, with every
        counter accounted per packet-equivalent.  Returns the last
        packet injected.
        """
        dst_ip = dst.ip if isinstance(dst, Endpoint) else dst
        return inject_burst(src_endpoint, dst_ip, size=size, payload=payload,
                            count=count, as_train=as_train)

    # ------------------------------------------------------------------ chaos verbs
    def fail_link(self, a, b):
        """Cut an underlay link; the IGP refloods and reconverges."""
        if self.igp is not None:
            self.igp.link_down(a, b)
        else:
            self.topology.set_link_state(a, b, False)

    def heal_link(self, a, b):
        if self.igp is not None:
            self.igp.link_up(a, b)
        else:
            self.topology.set_link_state(a, b, True)

    def fail_node(self, node):
        """Kill an underlay switch (all its links go with it)."""
        if self.igp is not None:
            self.igp.node_down(node)
        else:
            self.topology.set_node_state(node, False)

    def heal_node(self, node):
        if self.igp is not None:
            self.igp.node_up(node)
        else:
            self.topology.set_node_state(node, True)

    def crash_routing_server(self, index=0):
        """Kill a routing server process (volatile map state is lost)."""
        self.routing_servers[index].crash()

    def restart_routing_server(self, index=0):
        """Cold-restart a crashed routing server and re-sync the borders.

        The borders' pub/sub subscriptions died with the server's
        process memory, so they re-subscribe here — the full-state push
        a subscription triggers is how each border refills its synced
        FIB as registrations trickle back in.
        """
        server = self.routing_servers[index]
        server.restart()
        for border in self.borders:
            if not border.failed and border.routing_server_rloc == server.rloc:
                border.subscribe()

    def overload_server(self, index=0, rate_per_s=8000.0):
        """Flood a routing server with synthetic Map-Requests.

        Models a request storm (scanner, routing-loop amplification,
        thundering herd) at a deterministic fixed rate: one phantom
        request every ``1/rate_per_s`` seconds, with ``reply_to=None``
        so replies vanish at the server's transport layer.  The ticks
        are daemon events, so an active feed never wedges ``settle()``
        — but every injected request still occupies a real service slot
        on the server.  Idempotent per server index; ``relieve_server``
        stops the feed.
        """
        key = int(index)
        if key in self._overload_feeds:
            return
        # Phantom EID in TEST-NET-3: never enrolled, so every request
        # resolves negative and mutates no mapping state.
        self._overload_feeds[key] = {
            "rate_per_s": float(rate_per_s),
            "injected": 0,
            "eid": IPv4Address.parse("203.0.113.99").to_prefix(),
        }
        self._overload_tick(key)

    def relieve_server(self, index=0, rate_per_s=None):
        """Stop the synthetic request storm on a routing server.

        ``rate_per_s`` is accepted (and ignored) so the chaos engine can
        replay the inject verb's args into the heal verb unchanged.
        """
        self._overload_feeds.pop(int(index), None)

    def _overload_tick(self, key):
        feed = self._overload_feeds.get(key)
        if feed is None:
            return   # relieved between ticks
        server = self.routing_servers[key]
        server.handle_message(MapRequest(VNId(1), feed["eid"], reply_to=None))
        feed["injected"] += 1
        self.sim.schedule_daemon(1.0 / feed["rate_per_s"],
                                 self._overload_tick, key)

    def fail_border(self, index):
        """Kill a border; surviving borders adopt its away anchors.

        Returns the dead border's away-anchor snapshot (handed to the
        survivor by the multi-site facade's transit takeover; plain
        single-site fabrics can ignore it).
        """
        return self.borders[index].fail()

    def recover_border(self, index):
        self.borders[index].recover()

    # ------------------------------------------------------------------ policy change plumbing
    def _on_session(self, identity, edge_rloc, group, vacated_rloc):
        """Every successful auth refreshes SXP's view of which destination
        groups the authenticating edge hosts — and of the edge the
        session left, when that edge lost a group with it — that is how
        later matrix edits reach exactly the edges that need them."""
        groups_at = self.policy_server.groups_at
        self.sxp.set_peer_groups(edge_rloc, groups_at(edge_rloc))
        if vacated_rloc is not None:
            self.sxp.set_peer_groups(vacated_rloc, groups_at(vacated_rloc))

    def _on_group_change(self, identity, old_group, new_group):
        """Sec. 5.4: a group move triggers re-auth at the hosting edge only."""
        endpoint = self._endpoints.get(identity)
        if endpoint is None or endpoint.edge is None:
            return
        endpoint.edge.reauthenticate(endpoint)

    def move_endpoint_group(self, endpoint, new_group):
        group_obj = (
            self.plan.group_by_name(new_group) if isinstance(new_group, str)
            else self.plan.group(new_group)
        )
        return self.policy_server.reassign_group(endpoint.identity, group_obj.group_id)

    # ------------------------------------------------------------------ simulation control
    def settle(self, max_time=60.0):
        """Run until the event queue drains (bounded by ``max_time``)."""
        deadline = self.sim.now + max_time
        while self.sim.pending:
            if self.sim.now >= deadline:
                break
            self.sim.run(until=min(deadline, self.sim.now + 1.0))

    def run_for(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    # ------------------------------------------------------------------ metrics
    def fib_snapshot(self, family="ipv4"):
        """Current FIB occupancy of every router (fig. 9's data point)."""
        snapshot = {"border": {}, "edge": {}}
        for border in self.borders:
            snapshot["border"][border.name] = border.fib_occupancy(family)
        for edge in self.edges:
            snapshot["edge"][edge.name] = edge.fib_occupancy(family)
        return snapshot

    def total_policy_drops(self):
        return sum(edge.counters.policy_drops for edge in self.edges)

    def __repr__(self):
        return "FabricNetwork(borders=%d, edges=%d, endpoints=%d)" % (
            len(self.borders), len(self.edges), len(self._endpoints)
        )
