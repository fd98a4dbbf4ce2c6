"""Warehouse massive-mobility workload (fig. 10/11).

Recreates the paper's lab recreation of a robotic warehouse: a border
router with an embedded routing server, two "physical" edge routers the
16,000 emulated hosts roam between at 800 mobility events per second, and
~200 source edges sending unidirectional UDP towards the hosts.

Two runs share the scenario definition:

* :class:`WarehouseLispRun` — the SDA fabric (reactive).  A move costs a
  re-auth + Map-Register; the routing server Map-Notifies the *old* edge,
  which immediately redirects in-flight traffic; sources with stale
  mappings get data-triggered SMRs.  Only affected parties see messages.
* :class:`WarehouseBgpRun` — the proactive comparator.  A move makes the
  new edge advertise to a centralized route reflector, which pushes the
  update to *all* peers through a serialized control CPU; a source
  recovers only when its own position in that fan-out is reached (no
  old-edge redirect exists in a proactive setup).

Handover delay is measured as the paper defines it: from host detach
until its traffic is restored at the new edge.  A subset of hosts is
*monitored* (receives a steady packet stream and is moved on a fixed
rotation) while the rest provide background mobility load; this mirrors
the paper's traffic-generator instrumentation and keeps event counts
tractable at full scale.
"""

from __future__ import annotations

from repro.baselines.bgp import BgpPeer, BgpRouteReflector
from repro.core.types import VNId
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.net.addresses import IPv4Address
from repro.net.packet import make_udp_packet
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.underlay.network import UnderlayNetwork
from repro.underlay.topology import Topology
from repro.stats.recorders import HandoverRecorder


class WarehouseScenario:
    """Parameters of the warehouse experiment (paper values by default)."""

    def __init__(self, num_source_edges=198, num_hosts=16000,
                 moves_per_second=800, monitored_hosts=100,
                 monitor_interval_s=2e-3, measure_duration_s=1.0,
                 warmup_s=0.2, detection_delay_s=0.5e-3,
                 auth_delay_s=0.5e-3, rr_per_peer_service_s=4e-6,
                 rr_batch_interval_s=20e-3, seed=3):
        self.num_source_edges = num_source_edges
        self.num_hosts = num_hosts
        self.moves_per_second = moves_per_second
        self.monitored_hosts = min(monitored_hosts, num_hosts)
        self.monitor_interval_s = monitor_interval_s
        self.measure_duration_s = measure_duration_s
        self.warmup_s = warmup_s
        self.detection_delay_s = detection_delay_s
        self.auth_delay_s = auth_delay_s
        self.rr_per_peer_service_s = rr_per_peer_service_s
        self.rr_batch_interval_s = rr_batch_interval_s
        self.seed = seed

    @classmethod
    def paper_scale(cls, **overrides):
        """The full table-3 scale: 200 edges, 16k hosts, 800 moves/s."""
        return cls(**overrides)

    @classmethod
    def ci_scale(cls, **overrides):
        """A fast variant preserving the control-plane utilization ratio.

        Scaling both movers and peers down quadratically deflates the
        reflector's load, so the CI profile keeps the peer count and
        trims hosts/duration instead.
        """
        params = dict(num_source_edges=198, num_hosts=2000,
                      moves_per_second=800, monitored_hosts=60,
                      measure_duration_s=0.5, warmup_s=0.15)
        params.update(overrides)
        return cls(**params)

    @property
    def total_edges(self):
        return self.num_source_edges + 2


class WarehouseLispRun:
    """The SDA/LISP side of fig. 11."""

    VN_ID = 77

    def __init__(self, scenario=None):
        self.scenario = scenario or WarehouseScenario()
        s = self.scenario
        self.fabric = FabricNetwork(FabricConfig(
            num_borders=1,
            num_edges=s.total_edges,
            use_igp=False,                      # reachability static here
            edge_detection_delay_s=s.detection_delay_s,
            register_families=("ipv4",),
            map_cache_ttl=3600.0,
            seed=s.seed,
        ))
        # Fast MAB-style auth for robots.
        self.fabric.policy_server.auth_service_s = s.auth_delay_s
        self.fabric.policy_server.service_jitter_s = s.auth_delay_s / 4.0
        self.recorder = HandoverRecorder()
        self.rng = SeededRng(s.seed)
        self.hosts = []
        self.sources = []
        self._monitored = []
        self._built = False

    # -- construction -----------------------------------------------------------
    def setup(self):
        s = self.scenario
        fabric = self.fabric
        fabric.define_vn("warehouse", self.VN_ID, "10.128.0.0/9")
        fabric.define_group("robots", 100, self.VN_ID)
        fabric.define_group("controllers", 101, self.VN_ID)
        fabric.allow("controllers", "robots")

        host_edges = fabric.edges[:2]
        for index in range(s.num_hosts):
            host = fabric.create_endpoint(
                "robot-%d" % index, "robots", self.VN_ID,
                sink=self._host_sink,
            )
            self.hosts.append(host)
            fabric.admit(host, host_edges[index % 2])
        for index in range(s.num_source_edges):
            source = fabric.create_endpoint(
                "controller-%d" % index, "controllers", self.VN_ID,
            )
            self.sources.append(source)
            fabric.admit(source, fabric.edges[2 + index])
        fabric.settle(max_time=120.0)

        self._monitored = self.hosts[:s.monitored_hosts]
        self._built = True

    def _host_sink(self, endpoint, packet, now):
        self.recorder.on_delivery(endpoint.identity, now)

    # -- traffic -------------------------------------------------------------------
    def _start_monitored_traffic(self):
        """Each monitored host gets a steady stream from one source."""
        s = self.scenario
        for index, host in enumerate(self._monitored):
            source = self.sources[index % len(self.sources)]
            self._schedule_stream(source, host, s.monitor_interval_s,
                                  offset=self.rng.uniform(0, s.monitor_interval_s))

    def _schedule_stream(self, source, host, interval, offset):
        sim = self.fabric.sim

        def tick():
            if host.ip is not None and source.attached:
                self.fabric.send(source, host.ip, size=1500)
            sim.post(interval, tick)

        sim.post(offset, tick)

    # -- mobility ---------------------------------------------------------------------
    def _move_host(self, host):
        fabric = self.fabric
        if not host.attached:
            return
        target = fabric.edges[1] if host.edge is fabric.edges[0] else fabric.edges[0]
        self.recorder.on_detach(host.identity, fabric.sim.now)
        fabric.roam(host, target)

    def _schedule_mobility(self, start, duration):
        """800 moves/s: monitored hosts rotate; the rest are background."""
        s = self.scenario
        sim = self.fabric.sim
        total_moves = int(s.moves_per_second * duration)
        monitored_period = max(
            len(self._monitored) / (s.moves_per_second * 0.5), 0.05
        )
        # Monitored hosts move on a rotation spanning monitored_period.
        monitored_moves = 0
        t = 0.0
        while t < duration:
            for index, host in enumerate(self._monitored):
                at = start + t + (index + 1) * monitored_period / (len(self._monitored) + 1)
                if at - start >= duration:
                    break
                sim.post_at(at, self._move_host, host)
                monitored_moves += 1
            t += monitored_period
        # Background movers fill the rest of the budget.
        background = [h for h in self.hosts if h not in set(self._monitored)]
        remaining = max(0, total_moves - monitored_moves)
        for _ in range(remaining):
            host = self.rng.choice(background)
            at = start + self.rng.uniform(0, duration)
            sim.post_at(at, self._move_host, host)

    # -- main entry -----------------------------------------------------------------------
    def run(self):
        """Execute the measurement; returns handover-delay samples (s)."""
        if not self._built:
            self.setup()
        s = self.scenario
        sim = self.fabric.sim
        self._start_monitored_traffic()
        # Mobility starts during warm-up so the control plane reaches its
        # steady-state backlog before samples count.
        self._schedule_mobility(sim.now, s.warmup_s + s.measure_duration_s)
        sim.run(until=sim.now + s.warmup_s)
        self.recorder.samples = []   # discard warm-up artifacts
        start = sim.now
        # Drain: run past the end so the last handovers complete.
        sim.run(until=start + s.measure_duration_s + 0.2)
        return list(self.recorder.samples)


class _BgpHostEdge:
    """A proactive host edge: local delivery + advertisement on attach."""

    def __init__(self, sim, name, rloc, node, underlay, reflector,
                 detection_delay_s, auth_delay_s, vn):
        self.sim = sim
        self.name = name
        self.rloc = rloc
        self.underlay = underlay
        self.reflector = reflector
        self.detection_delay_s = detection_delay_s
        self.auth_delay_s = auth_delay_s
        self.vn = vn
        self.hosts = {}     # overlay IP -> endpoint
        self.peer = BgpPeer(sim, name + "-peer", rloc, node, underlay, reflector)
        # The peer owns the underlay attachment; our delivery hook wraps it.
        self._peer_on_packet = None

    def install_delivery(self):
        """Route data packets to hosts, control packets to the BGP peer."""
        attachment = self.underlay._attachments[self.rloc]
        peer_deliver = attachment.deliver

        def deliver(packet):
            payload = packet.payload
            if payload is not None and getattr(payload, "kind", None) == "bgp-update":
                peer_deliver(packet)
                return
            host = self.hosts.get(packet.inner.dst)
            if host is not None:
                host.receive(packet, self.sim.now)

        attachment.deliver = deliver

    def attach_host(self, host, advertise=True):
        host.edge = self
        self.hosts[host.ip] = host
        if advertise:
            delay = self.detection_delay_s + self.auth_delay_s
            self.sim.post(delay, self._advertise_host, host)

    def _advertise_host(self, host):
        if self.hosts.get(host.ip) is host:
            self.peer.advertise(self.vn, host.ip.to_prefix())

    def detach_host(self, host):
        if self.hosts.get(host.ip) is host:
            del self.hosts[host.ip]
        if host.edge is self:
            host.edge = None

    def detach_endpoint(self, host, deregister=False):
        # FabricNetwork-compatible signature (unused in the BGP run).
        self.detach_host(host)


class WarehouseBgpRun:
    """The proactive side of fig. 11 (route reflector fan-out)."""

    VN_ID = 77

    def __init__(self, scenario=None):
        self.scenario = scenario or WarehouseScenario()
        s = self.scenario
        self.sim = Simulator()
        self.rng = SeededRng(s.seed + 1000)
        self.recorder = HandoverRecorder()

        self.topology, spines, leaves = Topology.two_tier(
            num_spines=2, num_leaves=s.total_edges
        )
        self.underlay = UnderlayNetwork(self.sim, self.topology,
                                        extra_delay_jitter_s=20e-6, seed=s.seed)
        self.reflector = BgpRouteReflector(
            self.sim, self.underlay,
            rloc=IPv4Address.parse("192.168.255.10"), node=spines[0],
            per_peer_service_s=s.rr_per_peer_service_s,
            service_jitter_s=s.rr_per_peer_service_s / 5.0,
            batch_interval_s=s.rr_batch_interval_s,
            seed=s.seed + 1,
        )
        vn = VNId(self.VN_ID)
        self.vn = vn
        self.host_edges = []
        for index in range(2):
            edge = _BgpHostEdge(
                self.sim, "bgp-edge-%d" % index,
                IPv4Address(0xC0A80001 + index), leaves[index],
                self.underlay, self.reflector,
                s.detection_delay_s, s.auth_delay_s, vn,
            )
            edge.install_delivery()
            self.host_edges.append(edge)

        self.source_peers = []
        self.hosts = []
        self._monitored = []
        self._source_ips = []
        self._built = False

    # -- construction ---------------------------------------------------------------
    def setup(self):
        s = self.scenario
        # Hosts with overlay IPs mirroring the LISP run's pool.
        from repro.fabric.endpoint import Endpoint
        from repro.net.addresses import MacAddress

        base_ip = int(IPv4Address.parse("10.128.0.10"))
        for index in range(s.num_hosts):
            host = Endpoint("robot-%d" % index, MacAddress(0x020000000000 + index),
                            sink=self._host_sink)
            host.ip = IPv4Address(base_ip + index)
            host.vn = self.vn
            self.hosts.append(host)
        self._monitored = self.hosts[:s.monitored_hosts]
        monitored_eids = {h.ip.to_prefix() for h in self._monitored}

        # Source peers: interested only in their monitored hosts' EIDs
        # (storage optimization; all updates still transit the RR).
        _, _, leaves = self.topology, None, None
        leaf_names = ["leaf-%d" % i for i in range(s.total_edges)]
        for index in range(s.num_source_edges):
            peer = BgpPeer(
                self.sim, "bgp-src-%d" % index,
                IPv4Address(0xC0A81001 + index), leaf_names[2 + index],
                self.underlay, self.reflector,
                interest=monitored_eids,
            )
            self.source_peers.append(peer)
            self._source_ips.append(IPv4Address(0xAC100001 + index))

        # Steady state: hosts attached and routes preloaded everywhere
        # (the paper's testbed was converged before measurement began).
        for index, host in enumerate(self.hosts):
            edge = self.host_edges[index % 2]
            edge.attach_host(host, advertise=False)
            eid = host.ip.to_prefix()
            for peer in self.source_peers:
                if peer.interest is None or eid in peer.interest:
                    peer.routes[(int(self.vn), eid)] = (edge.rloc, 0)
        self._built = True

    def _host_sink(self, endpoint, packet, now):
        self.recorder.on_delivery(endpoint.identity, now)

    # -- traffic -----------------------------------------------------------------------
    def _start_monitored_traffic(self):
        s = self.scenario
        for index, host in enumerate(self._monitored):
            peer = self.source_peers[index % len(self.source_peers)]
            src_ip = self._source_ips[index % len(self._source_ips)]
            self._schedule_stream(peer, src_ip, host, s.monitor_interval_s,
                                  offset=self.rng.uniform(0, s.monitor_interval_s))

    def _schedule_stream(self, peer, src_ip, host, interval, offset):
        sim = self.sim
        eid = host.ip.to_prefix()

        def tick():
            rloc = peer.route_for(self.vn, eid)
            if rloc is not None:
                packet = make_udp_packet(src_ip, host.ip, 40000, 40000, size=1500)
                self.underlay.send(peer.rloc, rloc, packet)
            sim.post(interval, tick)

        sim.post(offset, tick)

    # -- mobility -------------------------------------------------------------------------
    def _move_host(self, host):
        old = host.edge
        if old is None:
            return
        new = self.host_edges[1] if old is self.host_edges[0] else self.host_edges[0]
        self.recorder.on_detach(host.identity, self.sim.now)
        old.detach_host(host)
        new.attach_host(host, advertise=True)

    def _schedule_mobility(self, start, duration):
        s = self.scenario
        sim = self.sim
        total_moves = int(s.moves_per_second * duration)
        monitored_period = max(
            len(self._monitored) / (s.moves_per_second * 0.5), 0.05
        )
        monitored_moves = 0
        t = 0.0
        while t < duration:
            for index, host in enumerate(self._monitored):
                at = start + t + (index + 1) * monitored_period / (len(self._monitored) + 1)
                if at - start >= duration:
                    break
                sim.post_at(at, self._move_host, host)
                monitored_moves += 1
            t += monitored_period
        background = self.hosts[len(self._monitored):]
        remaining = max(0, total_moves - monitored_moves)
        for _ in range(remaining):
            host = self.rng.choice(background)
            at = start + self.rng.uniform(0, duration)
            sim.post_at(at, self._move_host, host)

    # -- main entry ------------------------------------------------------------------------
    def run(self):
        if not self._built:
            self.setup()
        s = self.scenario
        sim = self.sim
        self._start_monitored_traffic()
        self._schedule_mobility(sim.now, s.warmup_s + s.measure_duration_s)
        sim.run(until=sim.now + s.warmup_s)
        self.recorder.samples = []
        start = sim.now
        sim.run(until=start + s.measure_duration_s + 1.0)
        return list(self.recorder.samples)
