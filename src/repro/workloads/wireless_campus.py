"""Wireless campus workload: stations walking across APs under traffic.

The mobility half of the campus story: laptops and phones drift between
meeting rooms, cafeterias and desks all day, so the wireless fabric sees
a continuous trickle of AP-to-AP roams — many of them crossing edges —
while the stations keep Zipf-skewed flows running towards a few wired
servers (the same :class:`FlowGenerator` / :class:`PopularityModel`
machinery the wired campus uses).

Two usage modes:

* :meth:`WirelessCampusWorkload.run` — steady-state mobility: every
  station performs an exponential dwell-then-roam walk for the given
  duration.  Summarizes roam mix (intra- vs inter-edge), registration
  delays, and data-plane health.
* :meth:`WirelessCampusWorkload.roam_storm` — everyone moves inside a
  short window (fire-drill / lecture-change) — the WLC control-queue
  stress test behind the roam-storm scaling bench.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.sim.rng import SeededRng
from repro.stats.summaries import boxplot
from repro.wireless.deployment import WirelessConfig, WirelessFabric
from repro.workloads.traffic import FlowGenerator, PopularityModel


class WirelessCampusProfile:
    """Deployment shape + station mix for a wireless building."""

    def __init__(self, name="wireless-campus", num_edges=6, aps_per_edge=2,
                 stations=40, servers=4, dwell_mean_s=60.0,
                 flow_interval_s=5.0, zipf_skew=1.1, wlc_service_s=150e-6,
                 batching=False, register_flush_s=2e-3,
                 session_cache=False, session_cache_ttl_s=600.0,
                 megaflow=False, packet_trains=False, packets_per_flow=1):
        if stations < 1:
            raise ConfigurationError("a wireless campus needs stations")
        self.name = name
        self.num_edges = num_edges
        self.aps_per_edge = aps_per_edge
        self.stations = stations
        self.servers = servers
        #: mean time a station camps on one AP before walking on
        self.dwell_mean_s = dwell_mean_s
        self.flow_interval_s = flow_interval_s
        self.zipf_skew = zipf_skew
        self.wlc_service_s = wlc_service_s
        #: control-plane fast path knobs (the before/after sweep of the
        #: ctrl-plane bench toggles these)
        self.batching = batching
        self.register_flush_s = register_flush_s
        self.session_cache = session_cache
        self.session_cache_ttl_s = session_cache_ttl_s
        #: data-plane fast path knobs (the dataplane bench toggles
        #: these; megaflow stays off here, unlike ``FabricConfig``'s
        #: default): megaflow caches on edges/borders/APs, and each flow
        #: injected as one ``packets_per_flow``-packet train instead of
        #: ``packets_per_flow`` separate packet events
        self.megaflow = megaflow
        self.packet_trains = packet_trains
        self.packets_per_flow = packets_per_flow

    @property
    def num_aps(self):
        return self.num_edges * self.aps_per_edge


class WirelessCampusWorkload:
    """Drives a wireless fabric through station mobility + traffic."""

    VN_ID = 4100

    def __init__(self, profile=None, seed=1):
        self.profile = profile or WirelessCampusProfile()
        profile = self.profile
        self.rng = SeededRng(seed)
        self._walk_rng = self.rng.spawn("walk")
        self._traffic_rng = self.rng.spawn("traffic")

        self.fabric = FabricNetwork(FabricConfig(
            num_borders=1, num_edges=profile.num_edges, seed=seed,
            batching=profile.batching,
            register_flush_s=profile.register_flush_s,
            session_cache=profile.session_cache,
            session_cache_ttl_s=profile.session_cache_ttl_s,
            megaflow=profile.megaflow,
        ))
        self.wireless = WirelessFabric(self.fabric, WirelessConfig(
            aps_per_edge=profile.aps_per_edge,
            wlc_service_s=profile.wlc_service_s,
        ))
        self._build_population()
        self._walking = False

    # ------------------------------------------------------------------ population
    def _build_population(self):
        fabric = self.fabric
        profile = self.profile
        fabric.define_vn("wifi", self.VN_ID, "10.96.0.0/14")
        fabric.define_group("stations", 10, self.VN_ID)
        fabric.define_group("servers", 30, self.VN_ID)
        fabric.allow("stations", "servers")

        self.servers = []
        for index in range(profile.servers):
            server = fabric.create_endpoint(
                "%s-srv-%d" % (profile.name, index), "servers", self.VN_ID,
            )
            self.servers.append(server)
        self.stations = []
        for index in range(profile.stations):
            station = self.wireless.create_station(
                "%s-sta-%d" % (profile.name, index), "stations", self.VN_ID,
            )
            self.stations.append(station)

        self._popularity = PopularityModel(
            self.servers, self._traffic_rng, skew=profile.zipf_skew,
        )
        self._generators = {}

    # ------------------------------------------------------------------ bring-up
    def bring_up(self):
        """Wire servers, associate every station to a home AP, settle."""
        fabric = self.fabric
        for index, server in enumerate(self.servers):
            fabric.admit(server, index % self.profile.num_edges)
        fabric.settle(max_time=120.0)
        for index, station in enumerate(self.stations):
            self.wireless.associate(
                station, index % self.profile.num_aps,
                on_complete=self._on_onboarded,
            )
        fabric.settle(max_time=120.0)

    def _on_onboarded(self, station, accepted):
        if not accepted:
            return
        generator = self._generators.get(station.identity)
        if generator is not None:
            generator.start()

    def _install_generators(self):
        rate = 1.0 / self.profile.flow_interval_s
        for station in self.stations:
            self._generators[station.identity] = FlowGenerator(
                self.fabric.sim, station, lambda: rate, self._fire_flow,
                self._traffic_rng,
                packets_per_flow=self.profile.packets_per_flow,
            )
            if station.associated and station.onboarded:
                self._generators[station.identity].start()

    def _fire_flow(self, station, count=1):
        if not station.associated or not station.onboarded:
            return
        target = self._popularity.pick()
        if target.ip is None:
            return
        self.fabric.send(station, target.ip, size=600, count=count,
                         as_train=self.profile.packet_trains)

    # ------------------------------------------------------------------ mobility
    def _other_ap(self, station):
        current = self.wireless.aps.index(station.ap)
        choices = [i for i in range(self.profile.num_aps) if i != current]
        return self._walk_rng.choice(choices)

    def _walk_step(self, station):
        if not self._walking:
            return
        if station.associated:
            self.wireless.roam(station, self._other_ap(station))
        self.fabric.sim.post(
            self._walk_rng.expovariate(1.0 / self.profile.dwell_mean_s),
            self._walk_step, station,
        )

    def _start_walks(self):
        self._walking = True
        for station in self.stations:
            self.fabric.sim.post(
                self._walk_rng.expovariate(1.0 / self.profile.dwell_mean_s),
                self._walk_step, station,
            )

    # ------------------------------------------------------------------ entry points
    def run(self, duration_s=300.0):
        """Steady-state walk + traffic; returns the summary dict."""
        self.bring_up()
        self._install_generators()
        self._start_walks()
        self.fabric.sim.run(until=self.fabric.sim.now + duration_s)
        self._walking = False
        for generator in self._generators.values():
            generator.stop()
        self.fabric.settle()
        return self.summarize()

    def roam_storm(self, window_s=1.0, settle_s=10.0):
        """Everyone roams once inside ``window_s`` (no background walk).

        Returns the summary; ``registration_delay`` percentiles show the
        WLC control-queue backlog the storm built, and
        ``sustained_roams_per_s`` is the storm's completion throughput —
        inter-edge roam completions divided by the time from storm start
        until the last registration ack landed (the makespan the
        control-plane serialization stretches).
        """
        if not any(s.associated for s in self.stations):
            self.bring_up()
        wlc = self.wireless.wlc
        wlc.registration_delays = []
        sim = self.fabric.sim
        start = sim.now
        last_completion = [start]
        previous_hook = wlc.on_registered

        def _note_completion(station, delay):
            last_completion[0] = sim.now
            if previous_hook is not None:
                previous_hook(station, delay)

        wlc.on_registered = _note_completion
        for station in self.stations:
            at = sim.now + self._walk_rng.uniform(0.0, window_s)
            sim.post_at(at, self._storm_move, station)
        sim.run(until=sim.now + window_s + settle_s)
        self.fabric.settle()
        wlc.on_registered = previous_hook
        summary = self.summarize()
        completions = len(wlc.registration_delays)
        makespan = max(last_completion[0] - start, 1e-9)
        summary["storm_window_s"] = window_s
        summary["storm_makespan_s"] = makespan
        summary["sustained_roams_per_s"] = completions / makespan
        return summary

    def _storm_move(self, station):
        if station.associated:
            self.wireless.roam(station, self._other_ap(station))

    # ------------------------------------------------------------------ reporting
    def summarize(self):
        wlc = self.wireless.wlc
        stats = wlc.stats
        delays = list(wlc.registration_delays)
        summary = {
            "stations": len(self.stations),
            "associated": sum(1 for s in self.stations if s.associated),
            "roams": stats.roams,
            "intra_edge_roams": stats.intra_edge_roams,
            "inter_edge_roams": stats.roams - stats.intra_edge_roams,
            "registers_sent": stats.registers_sent,
            "registrar_acks": stats.registrar_acks_received,
            "wlc_max_queue_s": wlc.max_queue_delay_s,
            "flows_fired": sum(
                g.flows_fired for g in self._generators.values()
            ),
            "server_packets_received": sum(
                server.packets_received for server in self.servers
            ),
            "station_packets_delivered": sum(
                ap.counters.packets_delivered for ap in self.wireless.aps
            ),
            "encapsulated_at_ap": sum(
                ap.counters.packets_encapsulated for ap in self.wireless.aps
            ),
        }
        if delays:
            box = boxplot(delays)
            ordered = sorted(delays)
            summary["registration_delay"] = {
                "count": box.count,
                "median_s": box.median,
                "p50_s": ordered[len(ordered) // 2],
                "p97_5_s": box.whisker_high,
                "p99_s": ordered[min(len(ordered) - 1,
                                     int(len(ordered) * 0.99))],
                "max_s": max(delays),
            }
        return summary
