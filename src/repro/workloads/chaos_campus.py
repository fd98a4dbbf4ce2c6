"""Chaos campus workload: a fabric surviving faults under live traffic.

The robustness scenario behind the chaos claims and the report
tool's third digest: a two-border campus with every recovery knob
switched on — registration retry + periodic refresh, server-side
registration TTL sweeps, edge border-failover — carrying continuous
probe traffic and a trickle of wireless roams while a
:class:`~repro.chaos.ChaosEngine` replays a fault schedule over it:
an uplink cut, a routing-server crash and cold restart, a border
death, a spine death.

What the run yields:

* a probe-measured **blackhole-seconds** total and per-fault
  **reconvergence delays** (:class:`~repro.chaos.ProbeMonitor`);
* a **healing verdict** — after the last heal and a settle, the
  no-stale-mapping oracle (:func:`repro.chaos.stale_mappings`) must
  come back empty;
* a **counter ledger + digest** covering every device counter, the
  probe ledger and the chaos trace — the bit-identity surface the CI
  report lane compares across two processes.
"""

from __future__ import annotations

from repro.chaos import ChaosEngine, ChaosFault, ChaosSchedule, ProbeMonitor, stale_mappings
from repro.core.errors import ConfigurationError
from repro.core.retry import RetryPolicy
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.sim.rng import SeededRng
from repro.stats.summaries import ledger_digest
from repro.wireless.deployment import WirelessConfig, WirelessFabric


class ChaosCampusProfile:
    """Deployment shape + recovery knobs of the chaos scenario.

    Unlike the perf workloads (fast-path knobs off by default), the
    recovery knobs here default **on** — resilience is the subject
    under test, and the scenario is meaningless without it.
    """

    def __init__(self, name="chaos-campus", num_edges=6, num_borders=2,
                 num_routing_servers=1, clients=8, servers=3, stations=4,
                 aps_per_edge=1, probe_interval_s=0.05, probe_pairs=6,
                 dwell_mean_s=4.0, map_cache_ttl=5.0,
                 register_retry=None, register_refresh_s=2.0,
                 registration_ttl_s=6.0, registration_sweep_s=2.0,
                 border_failover=True, megaflow=True):
        if num_borders < 2:
            raise ConfigurationError(
                "the chaos campus needs two borders (failover scenario)"
            )
        self.name = name
        self.num_edges = num_edges
        self.num_borders = num_borders
        self.num_routing_servers = num_routing_servers
        self.clients = clients
        self.servers = servers
        self.stations = stations
        self.aps_per_edge = aps_per_edge
        self.probe_interval_s = probe_interval_s
        self.probe_pairs = probe_pairs
        self.dwell_mean_s = dwell_mean_s
        #: short map-cache TTL: stale cache entries a fault leaves behind
        #: must age out within the scenario, not after it
        self.map_cache_ttl = map_cache_ttl
        self.register_retry = register_retry or RetryPolicy(
            base_s=0.1, multiplier=2.0, max_delay_s=1.0, max_attempts=6,
        )
        self.register_refresh_s = register_refresh_s
        self.registration_ttl_s = registration_ttl_s
        self.registration_sweep_s = registration_sweep_s
        self.border_failover = border_failover
        #: megaflow on: fault-driven cache flushes are part of the story
        self.megaflow = megaflow


class ChaosCampusWorkload:
    """Drives a fabric through a fault schedule under live traffic."""

    VN_ID = 4200

    def __init__(self, profile=None, seed=1, schedule=None):
        self.profile = profile or ChaosCampusProfile()
        profile = self.profile
        self.rng = SeededRng(seed)
        self._walk_rng = self.rng.spawn("walk")

        self.fabric = FabricNetwork(FabricConfig(
            num_borders=profile.num_borders,
            num_edges=profile.num_edges,
            num_routing_servers=profile.num_routing_servers,
            seed=seed,
            map_cache_ttl=profile.map_cache_ttl,
            megaflow=profile.megaflow,
            register_retry=profile.register_retry,
            register_refresh_s=profile.register_refresh_s,
            border_failover=profile.border_failover,
            registration_ttl_s=profile.registration_ttl_s,
            registration_sweep_s=profile.registration_sweep_s,
        ))
        self.wireless = WirelessFabric(
            self.fabric, WirelessConfig(aps_per_edge=profile.aps_per_edge))
        self._build_population()
        self.schedule = schedule or self.default_schedule()
        self.monitor = ProbeMonitor(
            self.fabric, self._probe_pairs(),
            interval_s=profile.probe_interval_s,
        )
        self.engine = ChaosEngine(self.fabric, self.schedule,
                                  monitor=self.monitor)
        self._walking = False

    # ------------------------------------------------------------------ population
    def _build_population(self):
        fabric = self.fabric
        profile = self.profile
        fabric.define_vn("chaos", self.VN_ID, "10.104.0.0/14")
        fabric.define_group("clients", 10, self.VN_ID)
        fabric.define_group("servers", 30, self.VN_ID)
        fabric.define_group("stations", 20, self.VN_ID)
        fabric.allow("clients", "servers")
        fabric.allow("stations", "servers")

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
        self.stations = [
            self.wireless.create_station("%s-sta-%d" % (profile.name, index),
                                         "stations", self.VN_ID)
            for index in range(profile.stations)
        ]

    def _probe_pairs(self):
        """Client->server pairs spread across edges (wired, stable)."""
        count = min(self.profile.probe_pairs, len(self.clients))
        return [
            (self.clients[index], self.servers[index % len(self.servers)])
            for index in range(count)
        ]

    # ------------------------------------------------------------------ schedule
    def default_schedule(self):
        """The canonical four-fault episode (all healed, ~9 s window).

        Ordered to compose: an uplink cut (IGP reroute), a
        routing-server crash mid-traffic with roams landing while it is
        down (re-registration storm on restart), a border death (edge
        failover + anchor adoption path), a spine death (node-level
        IGP event taking border-1's attachment with it), and finally an
        access-switch death — the one fault the spine-leaf redundancy
        cannot route around, so its endpoints go genuinely dark and the
        probe monitor accrues real blackhole-seconds.
        """
        return ChaosSchedule([
            ChaosFault(1.0, "link", ("leaf-0", "spine-0"), heal_after_s=1.5),
            ChaosFault(3.0, "routing_server", (0,), heal_after_s=1.2),
            ChaosFault(5.0, "border", (0,), heal_after_s=1.5),
            ChaosFault(7.0, "node", ("spine-1",), heal_after_s=1.0),
            ChaosFault(8.5, "node", ("leaf-1",), heal_after_s=0.8),
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
        num_aps = profile.num_edges * profile.aps_per_edge
        for index, station in enumerate(self.stations):
            self.wireless.associate(station, index % num_aps)
        fabric.settle(max_time=120.0)

    # ------------------------------------------------------------------ mobility
    def _other_ap(self, station):
        num_aps = len(self.wireless.aps)
        current = self.wireless.aps.index(station.ap)
        choices = [i for i in range(num_aps) if i != current]
        return self._walk_rng.choice(choices)

    def _walk_step(self, station):
        if not self._walking:
            return
        if station.associated:
            self.wireless.roam(station, self._other_ap(station))
        self.fabric.sim.schedule(
            self._walk_rng.expovariate(1.0 / self.profile.dwell_mean_s),
            self._walk_step, station,
        )

    def _start_walks(self):
        self._walking = True
        for station in self.stations:
            self.fabric.sim.schedule(
                self._walk_rng.expovariate(1.0 / self.profile.dwell_mean_s),
                self._walk_step, station,
            )

    # ------------------------------------------------------------------ entry point
    def run(self, duration_s=12.0):
        """Bring up, probe, walk, break things, heal, settle, report."""
        self.bring_up()
        self.monitor.start()
        self._start_walks()
        self.engine.arm()
        self.fabric.sim.run(until=self.fabric.sim.now + duration_s)
        self._walking = False
        self.monitor.stop()
        self.fabric.settle(max_time=120.0)
        self.monitor.flush()
        return self.summarize()

    # ------------------------------------------------------------------ reporting
    def summarize(self):
        fabric = self.fabric
        edges = fabric.edges
        summary = {
            "faults": self.engine.summary(),
            "probes": self.monitor.summary(),
            "oracle_violations": len(stale_mappings(fabric)),
            "register_retries_sent": sum(
                e.counters.register_retries_sent for e in edges),
            "register_acks_received": sum(
                e.counters.register_acks_received for e in edges),
            "register_refreshes_sent": sum(
                e.counters.register_refreshes_sent for e in edges),
            "border_failovers": sum(
                e.counters.border_failovers for e in edges),
            "server_crashes": sum(
                s.stats.crashes for s in fabric.routing_servers),
            "server_restarts": sum(
                s.stats.restarts for s in fabric.routing_servers),
            "dropped_while_down": sum(
                s.stats.dropped_while_down for s in fabric.routing_servers),
            "expired_registrations": sum(
                s.stats.expired_registrations
                for s in fabric.routing_servers),
            "wlc_register_retries": self.wireless.wlc.stats.register_retries_sent,
            "underlay_blackholed": fabric.underlay.counters.blackholed,
            "underlay_dropped": fabric.underlay.counters.dropped_packets,
        }
        return summary

    def counter_ledger(self):
        """Every counter the chaos run touches, deterministically keyed.

        This is the chaos suite's bit-identity surface: two processes
        running the same seed and schedule must agree on every entry
        (the CI report lane hashes it via :meth:`digest`).
        """
        fabric = self.fabric
        ledger = {"schedule.digest": self.schedule.digest()}
        for edge in fabric.edges:
            for key, value in edge.counters.as_dict().items():
                ledger["%s.%s" % (edge.name, key)] = value
        for border in fabric.borders:
            for key, value in border.counters.as_dict().items():
                ledger["%s.%s" % (border.name, key)] = value
        for index, server in enumerate(fabric.routing_servers):
            for key, value in server.stats.as_dict().items():
                ledger["server%d.%s" % (index, key)] = value
        for key, value in self.wireless.wlc.stats.as_dict().items():
            ledger["wlc.%s" % key] = value
        for key, value in fabric.underlay.counters.as_dict().items():
            ledger["underlay.%s" % key] = value
        probes = self.monitor.summary()
        for key in ("probes_sent", "probes_received", "probes_lost"):
            ledger["probe.%s" % key] = probes[key]
        ledger["probe.blackhole_s"] = round(self.monitor.blackhole_s, 9)
        ledger["chaos.injected"] = self.engine.faults_injected
        ledger["chaos.healed"] = self.engine.faults_healed
        ledger["chaos.trace_events"] = len(self.engine.trace)
        ledger["oracle.violations"] = len(stale_mappings(fabric))
        return ledger

    def digest(self):
        """Stable hex digest of the counter ledger (``repro.tools.report``)."""
        return ledger_digest(self.counter_ledger())
