"""The five benchmark workloads.

Each workload is a fixed batch of work driven through the public
facades of ``repro``: ``setup(seed, quick)`` builds a fresh instance
(topology, VN/groups, endpoints, bring-up, settle — host time reported
as ``setup_s``), ``measure(state)`` runs the measured phase, and
``outcome(state)`` reads back what happened.  Load inside the measured
phase is open-loop Poisson in *simulated* time; modelled caches
(map-cache, megaflow) start empty in every rep.  Only generated inputs
(sizes, rates, the seed) ever reach ``repro`` — never a workload name.

Sizes come from a sizing run on a 2-core Xeon @ 2.6 GHz, Python 3.11
(README.md has the numbers); ``quick`` is roughly a tenth of each.
"""

from __future__ import annotations

from repro.fabric.network import FabricConfig, FabricNetwork
from repro.sim.rng import SeededRng
from repro.workloads.campus import BUILDING_B, CampusWorkload
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)
from repro.workloads.traffic import FlowGenerator, PopularityModel
from repro.workloads.wireless_campus import (
    WirelessCampusProfile,
    WirelessCampusWorkload,
)


# ---------------------------------------------------------------------- state
class State:
    """One built instance of a workload plus what the harness reads back."""

    def __init__(self, instance, sim, fabrics, endpoints, wireless=(),
                 multisite=None):
        self.instance = instance
        self.sim = sim
        self.fabrics = list(fabrics)          # FabricNetwork per site
        self.endpoints = list(endpoints)      # every traffic source/sink
        self.wireless = list(wireless)        # WirelessFabric per site
        self.multisite = multisite            # MultiSiteNetwork or None
        self.roam_delays_s = []
        self.extra_sim = {}                   # workload-specific sim results
        self.base = raw_counts(self)          # cumulative counts at measure start

    @property
    def wlcs(self):
        return [w.wlc for w in self.wireless]

    @property
    def aps(self):
        return [ap for w in self.wireless for ap in w.aps]


# ---------------------------------------------------------------------- counters
def raw_counts(state):
    """Cumulative counters read from public attributes (source C).

    Plain sums, so the harness can subtract the values at measure start;
    ``*.max_*`` entries are high-water marks and are taken as they are.
    """
    edges = [e for f in state.fabrics for e in f.edges]
    borders = [b for f in state.fabrics for b in f.borders]
    site_servers = [s for f in state.fabrics for s in f.routing_servers]
    underlays = [f.underlay for f in state.fabrics]
    if state.multisite is not None:
        underlays.append(state.multisite.transit_underlay)
    megaflows = [d.megaflow for d in edges + borders if d.megaflow is not None]
    edge_megaflows = [e.megaflow for e in edges if e.megaflow is not None]
    caches = [e.map_cache for e in edges] + [
        b.transit_cache for b in borders if b.transit_cache is not None]
    queue = getattr(state.sim, "_queue", None)   # no public accessor exists

    def total(objects, *fields):
        return sum(getattr(o, f) for o in objects for f in fields)

    edge_counters = [e.counters for e in edges]
    border_counters = [b.counters for b in borders]
    ap_counters = [ap.counters for ap in state.aps]
    wlc_stats = [w.stats for w in state.wlcs]
    counts = {
        "sim.events": state.sim.events_processed,
        "sim.compactions": getattr(queue, "compactions", 0),
        "sent": total(state.endpoints, "packets_sent"),
        "received": total(state.endpoints, "packets_received"),
        "net.megaflow.hits": total(megaflows, "hits"),
        "net.megaflow.misses": total(megaflows, "misses"),
        "net.megaflow.flushes": total(megaflows, "flushes"),
        "fabric.edge.megaflow_hits": total(edge_megaflows, "hits"),
        "fabric.edge.megaflow_misses": total(edge_megaflows, "misses"),
        "lisp.mapcache.hits": total(caches, "hits"),
        "lisp.mapcache.misses": total(caches, "misses"),
        "lisp.mapcache.expirations": total(caches, "expirations"),
        "lisp.mapserver.msgs": total(
            [s.stats for s in site_servers],
            "requests", "registers", "unregisters"),
        "lisp.mapserver.shed": total([s.queue for s in site_servers],
                                     "shed_total"),
        "lisp.mapserver.max_depth": max(
            s.queue.max_depth_seen for s in site_servers),
        "policy.acl.evals": total([d.acl for d in edges + borders], "hits"),
        "policy.acl.drops": total([d.acl for d in edges + borders], "drops"),
        "policy.server.auths": total(
            [f.policy_server for f in state.fabrics],
            "auth_accepts", "auth_rejects"),
        "policy.server.cache_hits": total(
            [f.policy_server for f in state.fabrics], "auth_cache_hits"),
        "policy.server.cache_misses": total(
            [f.policy_server for f in state.fabrics], "auth_cache_misses"),
        "policy.sxp.updates": total([f.sxp for f in state.fabrics],
                                    "updates_sent"),
        "underlay.sends": total([u.counters for u in underlays],
                                "delivered_packets", "dropped_packets"),
        "underlay.dropped": total([u.counters for u in underlays],
                                  "dropped_packets"),
        "underlay.blackholed": total([u.counters for u in underlays],
                                     "blackholed"),
        "underlay.spf_runs": sum(
            router.spf_runs for f in state.fabrics if f.igp is not None
            for router in f.igp.routers.values()),
        "fabric.edge.pkts_in": total(edge_counters, "packets_in"),
        "fabric.edge.local_deliveries": total(edge_counters,
                                              "local_deliveries"),
        "fabric.edge.encapsulated": total(edge_counters, "encapsulated"),
        "fabric.edge.to_border": total(edge_counters, "to_border_default"),
        "fabric.edge.policy_drops": total(edge_counters, "policy_drops"),
        "fabric.edge.losses": total(edge_counters, "ttl_drops", "miss_drops"),
        "fabric.border.relayed": total(border_counters, "relayed_to_edge"),
        "fabric.border.sent_external": total(border_counters, "sent_external"),
        "fabric.border.policy_drops": total(border_counters, "policy_drops"),
        "fabric.border.losses": total(
            border_counters, "no_route_drops", "ttl_drops", "transit_drops"),
        "wireless.wlc.ops": total(
            wlc_stats, "associations", "roams", "disassociations",
            "handoffs_out"),
        "wireless.wlc.roams": total(wlc_stats, "roams"),
        "wireless.wlc.intra_edge_roams": total(wlc_stats, "intra_edge_roams"),
        "wireless.ap.pkts": total(
            ap_counters, "packets_encapsulated", "packets_delivered"),
        "wireless.ap.losses": total(ap_counters, "not_onboarded_drops"),
        "multisite.transit.msgs": 0,
        "multisite.ctrl_handled": 0,
        "multisite.away_registers": total(border_counters,
                                          "away_registers_received"),
        "core.retries": (
            total(edge_counters, "map_request_retries_sent",
                  "register_retries_sent")
            + total(wlc_stats, "register_retries_sent")
            + total(border_counters, "transit_resolve_retries_sent")),
    }
    if state.multisite is not None:
        transit = state.multisite.transit.stats
        counts["multisite.transit.msgs"] = (
            state.multisite.transit_message_count())
        counts["multisite.ctrl_handled"] = (
            transit.requests + transit.registers + transit.unregisters
            + transit.rejected_registers
            + total(border_counters, "away_registers_received",
                    "away_unregisters_received"))
    return counts


_HIGH_WATER = ("lisp.mapserver.max_depth",)


def counts_delta(state):
    """Counters over the measured phase only."""
    now = raw_counts(state)
    return {key: value if key in _HIGH_WATER else value - state.base[key]
            for key, value in now.items()}


def device_ledger(state):
    """Per-device delivery / drop / enforcement counters (digest input).

    The bit-identity surface: a host-side speed-up must leave every one
    of these untouched for a given seed.
    """
    ledger = {}
    for site, fabric in enumerate(state.fabrics):
        for edge in fabric.edges:
            counters = edge.counters.as_dict()
            prefix = "site%d.%s." % (site, edge.name)
            for key in ("packets_in", "local_deliveries", "encapsulated",
                        "to_border_default", "policy_drops",
                        "stale_deliveries", "ttl_drops", "wireless_in"):
                ledger[prefix + key] = counters[key]
            ledger[prefix + "acl_hits"] = edge.acl.hits
            ledger[prefix + "acl_drops"] = edge.acl.drops
        for border in fabric.borders:
            counters = border.counters.as_dict()
            prefix = "site%d.%s." % (site, border.name)
            for key in ("packets_in", "relayed_to_edge", "sent_external",
                        "no_route_drops", "policy_drops", "ttl_drops",
                        "transit_in", "transit_reencapsulated",
                        "transit_drops"):
                ledger[prefix + key] = counters[key]
    for index, wlc in enumerate(state.wlcs):
        stats = wlc.stats.as_dict()
        for key in ("associations", "roams", "intra_edge_roams",
                    "disassociations", "handoffs_out",
                    "registrar_acks_received"):
            ledger["wlc%d.%s" % (index, key)] = stats[key]
    for index, ap in enumerate(state.aps):
        ledger["ap%d.encapsulated" % index] = ap.counters.packets_encapsulated
        ledger["ap%d.delivered" % index] = ap.counters.packets_delivered
    ledger["endpoints.sent"] = sum(e.packets_sent for e in state.endpoints)
    ledger["endpoints.received"] = sum(
        e.packets_received for e in state.endpoints)
    return ledger


# ---------------------------------------------------------------------- outcomes
def packet_outcome(state, delta):
    """Ops, failures and invariants of a data workload (op = packet).

    A packet counts as served when an endpoint received it, the border
    handed it to its external route, or an explicit deny rule dropped
    it; everything else is a failure.  Failures need not carry a counted
    reason: a packet sent into a roam's re-authentication window is
    dropped at the ingress port without a counter (campus_week loses one
    that way on about one seed in thirty), which ``unaccounted_pkts``
    exposes.  What must hold is that nothing is served twice and no
    counted loss is also served.
    """
    sent = delta["sent"]
    failed = sent - served_packets(delta)
    violations = []
    if sent <= 0:
        violations.append("no packets were sent")
    if failed < 0 or counted_losses(delta) > failed:
        violations.append(
            "packet conservation: sent %d, served %d, counted losses %d"
            % (sent, served_packets(delta), counted_losses(delta)))
    if state.sim.pending:
        violations.append("%d events still pending" % state.sim.pending)
    return sent, failed, violations


def served_packets(delta):
    return (delta["received"] + delta["fabric.border.sent_external"]
            + delta["fabric.edge.policy_drops"]
            + delta["fabric.border.policy_drops"])


def counted_losses(delta):
    return (delta["fabric.edge.losses"] + delta["fabric.border.losses"]
            + delta["underlay.dropped"] + delta["wireless.ap.losses"])


def stale_registrations(state):
    """Stations whose map-server record is not their current edge."""
    stale = []
    for site, wireless in enumerate(state.wireless):
        server = state.fabrics[site].routing_server
        for ap in wireless.aps:
            for station in ap.stations.values():
                record = server.database.lookup(station.vn, station.ip)
                if (record is None or station.edge is None
                        or record.rloc != station.edge.rloc):
                    stale.append(str(station.identity))
    return stale


def percentile(ordered, fraction):
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def roam_delay_metrics(delays_s):
    """p50 always, p99 only with >= 1000 samples (sim time, ms)."""
    metrics = {"roam_delay_samples": len(delays_s)}
    if delays_s:
        ordered = sorted(delays_s)
        metrics["roam_delay_p50_sim_ms"] = percentile(ordered, 0.50) * 1e3
        if len(ordered) >= 1000:
            metrics["roam_delay_p99_sim_ms"] = percentile(ordered, 0.99) * 1e3
    return metrics


# ---------------------------------------------------------------------- wired
class WiredScenario:
    """A wired fabric under heavy steady flows, no roams.

    The scenario of ``benchmarks/test_bench_dataplane_fastpath.py``:
    40 clients on 8 edges send 16-packet flows at 40 flows/s each to 6
    allowed servers and 4 denied IoT devices (Zipf 1.1), so policy drops
    stay exercised and the off/on ledgers are comparable exactly.
    """

    VN = 4098
    EDGES, CLIENTS, SERVERS, IOT = 8, 40, 6, 4
    FLOW_RATE, PACKETS_PER_FLOW = 40.0, 16

    def __init__(self, config, seed, as_train):
        self.as_train = as_train
        self.net = net = FabricNetwork(config)
        net.define_vn("campus", self.VN, "10.64.0.0/14")
        net.define_group("users", 10, self.VN)
        net.define_group("servers", 30, self.VN)
        net.define_group("iot", 20, self.VN)
        net.allow("users", "servers")
        net.deny("users", "iot")
        self.clients, self.servers, self.iot = [], [], []
        for bucket, group, prefix, count in (
                (self.clients, "users", "cli", self.CLIENTS),
                (self.servers, "servers", "srv", self.SERVERS),
                (self.iot, "iot", "iot", self.IOT)):
            for index in range(count):
                endpoint = net.create_endpoint(
                    "%s-%d" % (prefix, index), group, self.VN)
                net.admit(endpoint, index % self.EDGES)
                bucket.append(endpoint)
        net.settle()
        rng = SeededRng(seed).spawn("traffic")
        self._popularity = PopularityModel(self.servers + self.iot, rng,
                                           skew=1.1)
        self._generators = [
            FlowGenerator(net.sim, endpoint, self._rate, self._fire, rng,
                          packets_per_flow=self.PACKETS_PER_FLOW)
            for endpoint in self.clients
        ]

    def _rate(self):
        return self.FLOW_RATE

    def _fire(self, endpoint, count=1):
        self.net.send(endpoint, self._popularity.pick().ip, size=600,
                      count=count, as_train=self.as_train)

    def run(self, duration_s):
        for generator in self._generators:
            generator.start()
        self.net.run_for(duration_s)
        for generator in self._generators:
            generator.stop()
        self.net.settle()


class _Wired:
    op_unit = "pkt"
    default_seed = 31
    default_reps = 5

    def _build(self, seed):
        raise NotImplementedError

    def duration_s(self, quick):
        raise NotImplementedError

    def setup(self, seed, quick):
        scenario = self._build(seed)
        state = State(scenario, scenario.net.sim, [scenario.net],
                      scenario.net.endpoints())
        state.duration_s = self.duration_s(quick)
        return state

    def measure(self, state):
        state.instance.run(state.duration_s)

    def outcome(self, state, delta):
        return packet_outcome(state, delta)


class WiredSteady(_Wired):
    name = "wired_steady"
    why = ("Bare forwarding on the fast path (megaflow + trains): sim kernel, "
           "fabric.edge, net.vxlan/megaflow do the work; lisp, net.trie, "
           "policy.server idle after the first packets.")

    def _build(self, seed):
        config = FabricConfig(num_edges=WiredScenario.EDGES, seed=seed,
                              megaflow=True)
        return WiredScenario(config, seed, as_train=True)

    def duration_s(self, quick):
        return 10.0 if quick else 100.0


class WiredPerPacket(_Wired):
    name = "wired_perpacket"
    why = ("Same traffic with a default-constructed FabricConfig and "
           "per-packet sends: every packet pays map-cache + trie, ACL, a "
           "fresh VXLAN-GPO encode and its own event.")

    def _build(self, seed):
        # Defaults on purpose: this is what a user who sets no knob gets,
        # so graduating a fast path shows here as a gain.
        config = FabricConfig(num_edges=WiredScenario.EDGES, seed=seed)
        return WiredScenario(config, seed, as_train=False)

    def duration_s(self, quick):
        return 0.4 if quick else 4.0


# ---------------------------------------------------------------------- roam storm
class RoamStorm:
    name = "roam_storm"
    op_unit = "roam"
    default_seed = 1
    default_reps = 5
    why = ("Control-plane writes, almost no data plane: 2000 stations roam "
           "twice through wireless.wlc, policy.server, lisp.mapserver/mapdb "
           "and core queues; a data-plane change must not move it.")

    def setup(self, seed, quick):
        profile = WirelessCampusProfile(
            num_edges=8, aps_per_edge=2, stations=200 if quick else 2000,
            batching=True, session_cache=True)
        workload = WirelessCampusWorkload(profile, seed=seed)
        workload.bring_up()
        return State(workload, workload.fabric.sim, [workload.fabric],
                     workload.fabric.endpoints(), wireless=[workload.wireless])

    def measure(self, state):
        workload = state.instance
        wlc = workload.wireless.wlc
        for _ in range(2):
            workload.roam_storm(window_s=0.5, settle_s=25.0)
            # roam_storm() starts each storm with a fresh sample list
            state.roam_delays_s.extend(wlc.registration_delays)

    def outcome(self, state, delta):
        attempted = (delta["wireless.wlc.roams"]
                     - delta["wireless.wlc.intra_edge_roams"])
        completed = len(state.roam_delays_s)
        violations = []
        if attempted <= 0:
            violations.append("no inter-edge roams happened")
        if completed != attempted:
            violations.append("%d of %d inter-edge roams completed"
                              % (completed, attempted))
        stale = stale_registrations(state)
        if stale:
            violations.append("%d stale map-server records (%s ...)"
                              % (len(stale), stale[0]))
        if state.sim.pending:
            violations.append("%d events still pending" % state.sim.pending)
        return attempted, attempted - completed, violations


# ---------------------------------------------------------------------- campus week
class CampusWeek:
    name = "campus_week"
    op_unit = "pkt"
    default_seed = 5
    default_reps = 3
    why = ("The paper's fig. 9 / table 5 week on building B, all flags "
           "default: presence churn, sparse flows that mostly miss, negative "
           "entries, TTL expiry — reads and writes on the same lisp state.")

    def setup(self, seed, quick):
        # quick thins the flows tenfold; presence churn stays, so it is
        # about a quarter of the full run rather than a tenth
        slower = 10.0 if quick else 1.0
        workload = CampusWorkload(
            BUILDING_B, seed=seed, time_scale=12.0,
            day_flow_interval_s=900.0 * slower,
            night_flow_interval_s=7200.0 * slower,
            iot_flow_interval_s=3600.0 * slower)
        return State(workload, workload.fabric.sim, [workload.fabric],
                     workload.fabric.endpoints())

    def measure(self, state):
        state.instance.run(weeks=1)
        state.instance.fabric.settle()

    def outcome(self, state, delta):
        state.extra_sim["fib_reduction"] = (
            state.instance.summarize()["decrease_all"])
        return packet_outcome(state, delta)


# ---------------------------------------------------------------------- intersite churn
class IntersiteChurn:
    name = "intersite_churn"
    op_unit = "pkt"
    default_seed = 5
    default_reps = 5
    why = ("Two sites, stations roaming across the transit while 16-packet "
           "trains flow, all four fast-path flags on: every roam flushes "
           "megaflow, hairpinned flows cross both border legs.")

    def setup(self, seed, quick):
        profile = DistributedWirelessCampusProfile(
            num_sites=2, edges_per_site=3, stations_per_site=40,
            servers_per_site=3, dwell_mean_s=8.0,
            intersite_roam_fraction=0.4, flow_interval_s=0.5,
            packets_per_flow=16, batching=True, session_cache=True,
            megaflow=True, packet_trains=True)
        workload = DistributedWirelessCampusWorkload(profile, seed=seed)
        workload.bring_up()
        state = State(workload, workload.net.sim, workload.net.sites,
                      workload.net.endpoints(),
                      wireless=workload.wireless.site_wireless,
                      multisite=workload.net)
        state.duration_s = 15.0 if quick else 150.0
        state.delays_before = [len(w.registration_delays) for w in state.wlcs]
        return state

    def measure(self, state):
        state.instance.run(duration_s=state.duration_s)
        for wlc, before in zip(state.wlcs, state.delays_before):
            state.roam_delays_s.extend(wlc.registration_delays[before:])

    def outcome(self, state, delta):
        sent, failed, violations = packet_outcome(state, delta)
        stale = stale_registrations(state)
        if stale:
            violations.append("%d stale map-server records (%s ...)"
                              % (len(stale), stale[0]))
        if state.multisite.transit.host_routes():
            violations.append("transit holds host routes")
        return sent, failed, violations


WORKLOADS = {w.name: w for w in (
    WiredSteady(), WiredPerPacket(), RoamStorm(), CampusWeek(),
    IntersiteChurn())}
