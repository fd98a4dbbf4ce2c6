"""Overload storm workload: a control plane drowning in requests.

The robustness scenario behind the overload claim and the report
tool's fourth digest: a small wired campus whose routing server is hit
by a synthetic Map-Request storm at ~3x its service capacity (the
``overload`` chaos verb), while a high-rate resolution prober measures
**goodput** — the fraction of its requests answered within an SLO —
and wired roams plus short-TTL data traffic exercise the priority
classes and the stale-while-revalidate path.

Run twice — armored and bare — the scenario quantifies the overload
armor's whole point:

* **unprotected**, the server's FIFO backlog grows without bound for
  the entire storm and takes seconds to drain afterwards, so nearly
  every in-storm (and post-storm) resolution blows the SLO;
* **protected** (bounded queue + admission control + backpressure +
  breakers + serve-stale), the backlog is capped at tens of
  milliseconds: whatever is admitted is answered fast, refreshes shed
  first, and the fabric snaps back the moment the storm lifts.

The bench gates the protected/unprotected goodput ratio; the chaos
healing oracle must come back clean after the storm is relieved
(shedding may delay convergence, never corrupt it).
"""

from __future__ import annotations

from repro.chaos import ChaosEngine, ChaosFault, ChaosSchedule, stale_mappings
from repro.core.breaker import BreakerPolicy
from repro.core.retry import RetryPolicy
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.lisp.messages import MapRequest, control_packet
from repro.net.addresses import IPv4Address
from repro.sim.rng import SeededRng
from repro.stats.summaries import ledger_digest

#: The prober's underlay address (outside every device numbering block).
_RLOC_PROBER = "192.168.255.40"


class ResolutionProber:
    """A device-less Map-Request source measuring resolution goodput.

    Attaches at a spine node with its own RLOC and fires one request
    every ``interval_s`` at the routing server, asking for a real
    (registered) EID.  A reply arriving within ``slo_s`` of its request
    counts toward goodput; shed requests simply never come back.  Ticks
    ride daemon events so an armed prober never wedges ``settle()``.
    """

    def __init__(self, fabric, server, vn, eid, interval_s=0.01, slo_s=0.06):
        self.fabric = fabric
        self.server = server
        self.vn = vn
        self.eid = eid
        self.interval_s = interval_s
        self.slo_s = slo_s
        self.rloc = IPv4Address.parse(_RLOC_PROBER)
        self.sent = 0
        self.answered = 0
        self.within_slo = 0
        self.latencies = []
        self._pending = {}       # nonce -> send time
        self._running = False
        fabric.underlay.attach(self.rloc, fabric.spine_nodes[0],
                               self._deliver)

    def start(self):
        self._running = True
        self.fabric.sim.schedule_daemon(self.interval_s, self._tick)

    def stop(self):
        self._running = False

    def _tick(self):
        if not self._running:
            return
        request = MapRequest(self.vn, self.eid, reply_to=self.rloc)
        self._pending[request.nonce] = self.fabric.sim.now
        self.sent += 1
        self.fabric.underlay.send(
            self.rloc, self.server.rloc,
            control_packet(self.rloc, self.server.rloc, request),
        )
        self.fabric.sim.schedule_daemon(self.interval_s, self._tick)

    def _deliver(self, packet):
        sent_at = self._pending.pop(packet.payload.nonce, None)
        if sent_at is None:
            return
        latency = self.fabric.sim.now - sent_at
        self.answered += 1
        self.latencies.append(latency)
        if latency <= self.slo_s:
            self.within_slo += 1

    @property
    def goodput(self):
        """Fraction of sent probes answered within the SLO."""
        return self.within_slo / self.sent if self.sent else 0.0

    def summary(self):
        return {
            "probes_sent": self.sent,
            "probes_answered": self.answered,
            "probes_within_slo": self.within_slo,
            "goodput": round(self.goodput, 6),
            "max_latency_s": round(max(self.latencies), 9) if self.latencies else 0.0,
        }


class OverloadStormProfile:
    """Deployment shape, storm intensity, and the armor toggle.

    ``protected=True`` switches on the whole overload-armor stack;
    ``protected=False`` is the bare baseline the bench compares
    against.  The storm rate defaults to ~3x the server's service
    capacity (~2750 msg/s at the default 300 µs base service time), the
    saturation regime the bench gates.
    """

    def __init__(self, name="overload-storm", num_edges=4, num_borders=1,
                 clients=6, servers=3, protected=True,
                 probe_interval_s=0.01, probe_slo_s=0.06,
                 storm_start_s=1.0, storm_duration_s=2.0,
                 storm_rate_per_s=8250.0,
                 roams_during_storm=4, traffic_interval_s=0.25,
                 map_cache_ttl=1.0,
                 max_pending=64, max_backlog_s=0.05,
                 serve_stale_s=5.0, register_refresh_s=0.5,
                 register_retry=None, breaker=None):
        self.name = name
        self.num_edges = num_edges
        self.num_borders = num_borders
        self.clients = clients
        self.servers = servers
        self.protected = protected
        self.probe_interval_s = probe_interval_s
        self.probe_slo_s = probe_slo_s
        self.storm_start_s = storm_start_s
        self.storm_duration_s = storm_duration_s
        self.storm_rate_per_s = storm_rate_per_s
        self.roams_during_storm = roams_during_storm
        #: light client->server sends; with the short ``map_cache_ttl``
        #: they expire mid-storm and walk the serve-stale path
        self.traffic_interval_s = traffic_interval_s
        self.map_cache_ttl = map_cache_ttl
        #: armor knobs (only applied when ``protected``)
        self.max_pending = max_pending
        self.max_backlog_s = max_backlog_s
        self.serve_stale_s = serve_stale_s
        #: refreshes are deliberately aggressive so the storm has bulk
        #: traffic to shed first (the priority-class story)
        self.register_refresh_s = register_refresh_s
        self.register_retry = register_retry or RetryPolicy(
            base_s=0.1, multiplier=2.0, max_delay_s=1.0, max_attempts=6,
        )
        self.breaker = breaker or BreakerPolicy(
            failure_threshold=4, reset_timeout_s=0.5, jitter=0.1,
        )


class OverloadStormWorkload:
    """Drives a fabric through a request storm and measures goodput."""

    VN_ID = 4300

    def __init__(self, profile=None, seed=17, schedule=None):
        self.profile = profile or OverloadStormProfile()
        profile = self.profile
        self.rng = SeededRng(seed)
        self._roam_rng = self.rng.spawn("roam")

        armor = {}
        if profile.protected:
            armor = dict(
                server_max_pending=profile.max_pending,
                server_max_backlog_s=profile.max_backlog_s,
                backpressure=True,
                breaker=profile.breaker,
                serve_stale_s=profile.serve_stale_s,
            )
        self.fabric = FabricNetwork(FabricConfig(
            num_borders=profile.num_borders,
            num_edges=profile.num_edges,
            seed=seed,
            map_cache_ttl=profile.map_cache_ttl,
            batching=True,
            register_retry=profile.register_retry,
            register_refresh_s=profile.register_refresh_s,
            **armor,
        ))
        if profile.protected:
            # Admission decisions feed the no-priority-inversion
            # property test; a plain list, so digests never see it.
            for server in self.fabric.routing_servers:
                server.queue.admission_log = []
        self._build_population()
        self.schedule = schedule or self.default_schedule()
        self.engine = ChaosEngine(self.fabric, self.schedule)
        self.prober = None
        self._traffic_on = False

    # ------------------------------------------------------------------ population
    def _build_population(self):
        fabric = self.fabric
        profile = self.profile
        fabric.define_vn("storm", self.VN_ID, "10.108.0.0/14")
        fabric.define_group("clients", 10, self.VN_ID)
        fabric.define_group("servers", 30, self.VN_ID)
        fabric.allow("clients", "servers")
        self.servers = [
            fabric.create_endpoint("%s-srv-%d" % (profile.name, index),
                                   "servers", self.VN_ID)
            for index in range(profile.servers)
        ]
        self.clients = [
            fabric.create_endpoint("%s-cli-%d" % (profile.name, index),
                                   "clients", self.VN_ID)
            for index in range(profile.clients)
        ]

    # ------------------------------------------------------------------ schedule
    def default_schedule(self):
        """One storm: inject at ``storm_start_s``, relieve after the
        configured duration (the heal verb gets the inject args back)."""
        profile = self.profile
        return ChaosSchedule([
            ChaosFault(profile.storm_start_s, "overload",
                       (0, profile.storm_rate_per_s),
                       heal_after_s=profile.storm_duration_s),
        ])

    # ------------------------------------------------------------------ bring-up
    def bring_up(self):
        fabric = self.fabric
        profile = self.profile
        for index, server in enumerate(self.servers):
            fabric.admit(server, index % profile.num_edges)
        for index, client in enumerate(self.clients):
            fabric.admit(client, (index + 1) % profile.num_edges)
        fabric.settle(max_time=120.0)
        self.prober = ResolutionProber(
            fabric, fabric.routing_servers[0], self.VN_ID,
            self.servers[0].ip.to_prefix(),
            interval_s=profile.probe_interval_s,
            slo_s=profile.probe_slo_s,
        )

    # ------------------------------------------------------------------ live load
    def _start_traffic(self):
        self._traffic_on = True
        self.fabric.sim.schedule_daemon(
            self.profile.traffic_interval_s, self._traffic_tick, 0)

    def _traffic_tick(self, index):
        if not self._traffic_on:
            return
        client = self.clients[index % len(self.clients)]
        server = self.servers[index % len(self.servers)]
        self.fabric.send(client, server)
        self.fabric.sim.schedule_daemon(
            self.profile.traffic_interval_s, self._traffic_tick, index + 1)

    def _schedule_roams(self):
        """Wired roams landing mid-storm: their Map-Registers carry the
        mobility bit and must be admitted ahead of periodic refreshes."""
        profile = self.profile
        if not profile.roams_during_storm:
            return
        step = profile.storm_duration_s / (profile.roams_during_storm + 1)
        for index in range(profile.roams_during_storm):
            client = self.clients[index % len(self.clients)]
            at = profile.storm_start_s + step * (index + 1)
            self.fabric.sim.schedule(at, self._roam, client)

    def _roam(self, client):
        current = self.fabric.edges.index(client.edge)
        choices = [i for i in range(len(self.fabric.edges)) if i != current]
        self.fabric.roam(client, self._roam_rng.choice(choices))

    # ------------------------------------------------------------------ entry point
    def run(self, duration_s=6.0):
        """Bring up, probe, storm, relieve, settle, report."""
        self.bring_up()
        self.prober.start()
        self._start_traffic()
        self._schedule_roams()
        self.engine.arm()
        self.fabric.sim.run(until=self.fabric.sim.now + duration_s)
        self.prober.stop()
        self._traffic_on = False
        self.fabric.settle(max_time=120.0)
        return self.summarize()

    # ------------------------------------------------------------------ reporting
    def summarize(self):
        fabric = self.fabric
        edges = fabric.edges
        server = fabric.routing_servers[0]
        summary = {
            "protected": self.profile.protected,
            "probes": self.prober.summary(),
            "goodput": self.prober.goodput,
            "faults": self.engine.summary(),
            "oracle_violations": len(stale_mappings(fabric)),
            "shed_total": server.queue.shed_total,
            "shed_by_class": dict(server.queue.shed_by_class),
            "max_depth_seen": server.queue.max_depth_seen,
            "max_backlog_seen_s": round(server.queue.max_delay_s, 9),
            "overload_signals": server.overload_signals,
            "bp_overload_acks": sum(e.pacer.overload_acks for e in edges),
            "max_bp_factor": max(e.pacer.factor for e in edges),
            "stale_served": sum(e.stale_served for e in edges),
            "stale_hits": sum(e.map_cache.stale_hits for e in edges),
            "breaker_deferrals": sum(e.pacer.deferrals for e in edges),
            "breaker_opens": sum(e.pacer.breaker_opens for e in edges),
        }
        return summary

    def counter_ledger(self):
        """Every counter the storm run touches, deterministically keyed.

        The overload suite's bit-identity surface — device counters
        plus the plain-attribute armor counters (shed totals, breaker
        state, stale serves) that deliberately stay out of the
        ``Counters`` blocks so legacy digests never move.
        """
        fabric = self.fabric
        ledger = {"schedule.digest": self.schedule.digest()}
        for edge in fabric.edges:
            for key, value in edge.counters.as_dict().items():
                ledger["%s.%s" % (edge.name, key)] = value
            ledger["%s.bp_overload_acks" % edge.name] = edge.pacer.overload_acks
            ledger["%s.stale_served" % edge.name] = edge.stale_served
            ledger["%s.stale_hits" % edge.name] = edge.map_cache.stale_hits
            ledger["%s.breaker_deferrals" % edge.name] = edge.pacer.deferrals
        for border in fabric.borders:
            for key, value in border.counters.as_dict().items():
                ledger["%s.%s" % (border.name, key)] = value
        for index, server in enumerate(fabric.routing_servers):
            for key, value in server.stats.as_dict().items():
                ledger["server%d.%s" % (index, key)] = value
            queue = server.queue
            ledger["server%d.shed_total" % index] = queue.shed_total
            for prio, count in sorted(queue.shed_by_class.items()):
                ledger["server%d.shed_class%d" % (index, prio)] = count
            ledger["server%d.max_depth_seen" % index] = queue.max_depth_seen
            ledger["server%d.overload_signals" % index] = server.overload_signals
        for key, value in fabric.underlay.counters.as_dict().items():
            ledger["underlay.%s" % key] = value
        probes = self.prober.summary()
        for key in ("probes_sent", "probes_answered", "probes_within_slo"):
            ledger["probe.%s" % key] = probes[key]
        ledger["chaos.injected"] = self.engine.faults_injected
        ledger["chaos.healed"] = self.engine.faults_healed
        ledger["oracle.violations"] = len(stale_mappings(fabric))
        return ledger

    def digest(self):
        """Stable hex digest of the counter ledger (``repro.tools.report``)."""
        return ledger_digest(self.counter_ledger())
