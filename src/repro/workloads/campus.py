"""Campus workload: the buildings A/B presence + traffic model.

Reproduces the environment of the fig. 9 / table 5 study:

* **Mobile users** arrive around 9:00 and leave around 19:00 on weekdays
  (truncated-normal jitter), taking their laptops/phones with them —
  their departure *deregisters* the endpoint, so the border's synced FIB
  follows office presence.
* **Desktops** stay attached around the clock; their users generate
  traffic only during work hours, plus a light background rate (backup
  jobs, update checks) at night.
* **IoT devices** (VoIP phones, cameras) stay attached and chat at a low
  constant rate day and night — the paper singles these out to explain
  building B's large nighttime border FIB.

Traffic concentrates on a few server endpoints (Zipf) with a configurable
fraction of peer-to-peer flows; nighttime flows towards *departed* mobile
endpoints produce negative resolutions, which is exactly the mechanism the
paper offers for building B's nightly edge-cache cleanup.

A ``time_scale`` knob compresses macro time (day length, cache TTLs,
flow gaps) without touching control-plane latencies, so CI-friendly runs
keep the same cache dynamics in fewer simulated events.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.sim.rng import SeededRng
from repro.stats.summaries import TimeSeries
from repro.workloads.traffic import FlowGenerator, PopularityModel

DAY_S = 86400.0
HOUR_S = 3600.0
WEEK_DAYS = 7
WORK_DAYS = 5


class CampusProfile:
    """Deployment shape + endpoint mix for one building (table 4)."""

    def __init__(self, name, num_borders, num_edges, mobile, desktops, iot,
                 servers=6, arrival_hour=9.0, departure_hour=19.0,
                 presence_jitter_h=0.75, attendance=0.55, affinity_k=2,
                 peer_skew=1.2, cache_ttl_h=12.0, server_fraction=0.8):
        self.name = name
        self.num_borders = num_borders
        self.num_edges = num_edges
        self.mobile = mobile
        self.desktops = desktops
        self.iot = iot
        self.servers = servers
        self.arrival_hour = arrival_hour
        self.departure_hour = departure_hour
        self.presence_jitter_h = presence_jitter_h
        #: probability a mobile user shows up on a given workday — border
        #: FIB daytime levels track attendance, not the nominal population
        self.attendance = attendance
        #: size of each endpoint's peer-affinity set (who it talks to
        #: besides servers); small and popularity-skewed, which is what
        #: keeps edge map-caches far below the endpoint population
        self.affinity_k = affinity_k
        self.peer_skew = peer_skew
        #: edge map-cache TTL in hours — fig. 9 shows building A's edges
        #: retaining routes between workdays (long TTL, cleared over the
        #: weekend) while building B's follow the day/night routine
        self.cache_ttl_h = cache_ttl_h
        #: fraction of flows aimed at servers (the rest go to affinity
        #: peers); lower means more peer-to-peer and fuller edge caches
        self.server_fraction = server_fraction

    @property
    def total_endpoints(self):
        return self.mobile + self.desktops + self.iot + self.servers

    def __repr__(self):
        return "CampusProfile(%s, %d endpoints, %d edges, %d borders)" % (
            self.name, self.total_endpoints, self.num_edges, self.num_borders
        )


#: Building A (table 4): 1 border, 7 edges, ~150 endpoints, mostly mobile
#: users with a small always-on population (table 5: night FIB ~19).
BUILDING_A = CampusProfile("building-A", num_borders=1, num_edges=7,
                           mobile=131, desktops=10, iot=5, servers=4,
                           attendance=0.5, affinity_k=18, peer_skew=0.3,
                           cache_ttl_h=40.0, server_fraction=0.5)

#: Building B (table 4): 2 borders, 6 edges, ~450 endpoints with a large
#: always-connected population (desktops + IoT) — sec. 4.2 singles this
#: out to explain B's nighttime border FIB of ~227 (table 5).
BUILDING_B = CampusProfile("building-B", num_borders=2, num_edges=6,
                           mobile=222, desktops=150, iot=70, servers=8,
                           attendance=0.6, affinity_k=3, peer_skew=1.0,
                           cache_ttl_h=14.0, server_fraction=0.8)


class CampusWorkload:
    """Drives a fabric through weeks of campus life, sampling FIB state."""

    VN_ID = 4098

    def __init__(self, profile, seed=1, time_scale=1.0,
                 day_flow_interval_s=900.0, night_flow_interval_s=7200.0,
                 iot_flow_interval_s=3600.0, server_fraction=None,
                 roams_per_user_day=0.5, sample_interval_h=1.0,
                 megaflow=False, packet_trains=False, packets_per_flow=1):
        if time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")
        self.profile = profile
        self.seed = seed
        self.scale = time_scale
        self.day_s = DAY_S / time_scale
        self.hour_s = HOUR_S / time_scale
        self.day_rate = time_scale / day_flow_interval_s
        self.night_rate = time_scale / night_flow_interval_s
        self.iot_rate = time_scale / iot_flow_interval_s
        self.server_fraction = (
            profile.server_fraction if server_fraction is None else server_fraction
        )
        self.roams_per_user_day = roams_per_user_day
        self.sample_interval_s = sample_interval_h * self.hour_s
        #: data-plane fast path knobs (off here, unlike
        #: ``FabricConfig``'s megaflow default, until the profiles embed
        #: the config tree; the FIB dynamics the fig. 9 study measures
        #: are identical either way — the property test holds the
        #: workload to that)
        self.megaflow = megaflow
        self.packet_trains = packet_trains
        self.packets_per_flow = packets_per_flow

        self.rng = SeededRng(seed)
        self._presence_rng = self.rng.spawn("presence")
        self._traffic_rng = self.rng.spawn("traffic")
        self._roam_rng = self.rng.spawn("roam")

        self.fabric = FabricNetwork(FabricConfig(
            num_borders=profile.num_borders,
            num_edges=profile.num_edges,
            map_cache_ttl=profile.cache_ttl_h * HOUR_S / time_scale,
            negative_ttl=60.0 / time_scale,
            seed=seed,
            megaflow=megaflow,
        ))
        self._build_population()

        #: Time series of mean FIB entries (fig. 9's two curves).
        self.border_series = TimeSeries()
        self.edge_series = TimeSeries()
        self._samples_scheduled = False

    # ------------------------------------------------------------------ population
    def _build_population(self):
        fabric = self.fabric
        profile = self.profile
        fabric.define_vn("campus", self.VN_ID, "10.64.0.0/14")
        fabric.define_group("users", 10, self.VN_ID)
        fabric.define_group("devices", 20, self.VN_ID)
        fabric.define_group("servers", 30, self.VN_ID)
        fabric.allow("users", "servers")
        fabric.allow("devices", "servers")
        fabric.allow("users", "devices")

        self.mobile = []
        self.desktops = []
        self.iot = []
        self.servers = []
        self._home_edge = {}
        self._flow_generators = {}

        def make(prefix, count, group, bucket):
            for index in range(count):
                identity = "%s-%s-%d" % (profile.name, prefix, index)
                endpoint = fabric.create_endpoint(identity, group, self.VN_ID)
                bucket.append(endpoint)
                self._home_edge[identity] = self._presence_rng.randint(
                    0, profile.num_edges - 1
                )

        make("user", profile.mobile, "users", self.mobile)
        make("desk", profile.desktops, "users", self.desktops)
        make("iot", profile.iot, "devices", self.iot)
        make("srv", profile.servers, "servers", self.servers)

        self._server_popularity = PopularityModel(
            self.servers, self._traffic_rng, skew=1.1
        )
        self._all_non_server = self.mobile + self.desktops + self.iot
        # Peer-affinity sets: each endpoint repeatedly talks to the same
        # few (popularity-skewed) peers.  This locality is what keeps edge
        # map-caches small relative to the population — the mechanism
        # behind table 5's edge-vs-border numbers.
        peer_popularity = PopularityModel(
            self._all_non_server, self._traffic_rng, skew=profile.peer_skew
        )
        self._affinity = {}
        for endpoint in self._all_non_server:
            peers = []
            guard = 0
            while len(peers) < profile.affinity_k and guard < 50:
                guard += 1
                candidate = peer_popularity.pick()
                if candidate is not endpoint and candidate not in peers:
                    peers.append(candidate)
            self._affinity[endpoint.identity] = peers

    # ------------------------------------------------------------------ presence
    def _admit_home(self, endpoint):
        if endpoint.attached:
            return
        edge_index = self._home_edge[endpoint.identity]
        self.fabric.admit(endpoint, edge_index,
                          on_complete=self._on_admitted)

    def _on_admitted(self, endpoint, accepted):
        if accepted:
            generator = self._flow_generators.get(endpoint.identity)
            if generator is not None:
                generator.start()

    def _depart(self, endpoint):
        generator = self._flow_generators.get(endpoint.identity)
        if generator is not None:
            generator.stop()
        if endpoint.attached:
            self.fabric.depart(endpoint)

    def _schedule_day(self, day_index):
        """Queue arrivals/departures/roams for one (scaled) day."""
        weekday = day_index % WEEK_DAYS < WORK_DAYS
        base = day_index * self.day_s
        sim = self.fabric.sim
        profile = self.profile
        if not weekday:
            return
        for endpoint in self.mobile:
            if self._presence_rng.random() >= profile.attendance:
                continue   # not in the office today
            arrival_h = self._presence_rng.truncated_gauss(
                profile.arrival_hour, profile.presence_jitter_h, 6.0, 12.0
            )
            departure_h = self._presence_rng.truncated_gauss(
                profile.departure_hour, profile.presence_jitter_h, 15.0, 23.0
            )
            sim.post_at(base + arrival_h * self.hour_s, self._admit_home, endpoint)
            sim.post_at(base + departure_h * self.hour_s, self._depart, endpoint)
            # Mid-day roams between edges (meeting rooms, cafeteria).
            roams = self._roam_rng.random() < self.roams_per_user_day
            if roams and profile.num_edges > 1:
                roam_h = self._roam_rng.uniform(arrival_h + 0.5, departure_h - 0.5)
                sim.post_at(base + roam_h * self.hour_s, self._roam, endpoint)

    def _roam(self, endpoint):
        if not endpoint.attached:
            return
        current = self.fabric.edges.index(endpoint.edge)
        choices = [i for i in range(self.profile.num_edges) if i != current]
        self.fabric.roam(endpoint, self._roam_rng.choice(choices))

    # ------------------------------------------------------------------ traffic
    def _hour_of_day(self):
        return (self.fabric.sim.now % self.day_s) / self.hour_s

    def _is_work_hour(self):
        hour = self._hour_of_day()
        day = int(self.fabric.sim.now // self.day_s) % WEEK_DAYS
        return day < WORK_DAYS and 9.0 <= hour < 19.0

    def _user_rate(self):
        return self.day_rate if self._is_work_hour() else self.night_rate

    def _iot_rate(self):
        return self.iot_rate

    def _fire_flow(self, endpoint, count=1):
        if not endpoint.attached or not endpoint.onboarded:
            return
        if self._traffic_rng.random() < self.server_fraction:
            target = self._server_popularity.pick()
        else:
            peers = self._affinity.get(endpoint.identity)
            if not peers:
                return
            target = self._traffic_rng.choice(peers)
        if target is endpoint or target.ip is None:
            return
        self.fabric.send(endpoint, target.ip, size=600, count=count,
                         as_train=self.packet_trains)

    def _install_flow_generators(self):
        sim = self.fabric.sim
        for endpoint in self.mobile + self.desktops:
            self._flow_generators[endpoint.identity] = FlowGenerator(
                sim, endpoint, self._user_rate, self._fire_flow,
                self._traffic_rng,
                packets_per_flow=self.packets_per_flow,
            )
        for endpoint in self.iot:
            self._flow_generators[endpoint.identity] = FlowGenerator(
                sim, endpoint, self._iot_rate, self._fire_flow,
                self._traffic_rng,
                packets_per_flow=self.packets_per_flow,
            )

    # ------------------------------------------------------------------ sampling
    def _sample(self):
        snapshot = self.fabric.fib_snapshot()
        borders = list(snapshot["border"].values())
        edges = list(snapshot["edge"].values())
        now = self.fabric.sim.now
        self.border_series.append(now, sum(borders) / len(borders))
        self.edge_series.append(now, sum(edges) / len(edges))

    def _schedule_sampling(self, until):
        sim = self.fabric.sim
        t = self.sample_interval_s
        while t <= until:
            sim.post_at(t, self._sample)
            t += self.sample_interval_s

    # ------------------------------------------------------------------ main entry
    def run(self, weeks=1):
        """Simulate ``weeks`` of campus life; returns (border, edge) series."""
        total = weeks * WEEK_DAYS * self.day_s
        fabric = self.fabric

        # Always-on population comes up first.
        for endpoint in self.desktops + self.iot + self.servers:
            self._admit_home(endpoint)
        fabric.settle()

        self._install_flow_generators()
        for endpoint in self.desktops + self.iot:
            self._flow_generators[endpoint.identity].start()

        for day in range(weeks * WEEK_DAYS):
            self._schedule_day(day)
        self._schedule_sampling(total)

        fabric.sim.run(until=total)
        for generator in self._flow_generators.values():
            generator.stop()
        return self.border_series, self.edge_series

    # ------------------------------------------------------------------ table 5 summary
    def summarize(self):
        """Table 5 rows: all/day/night mean FIB for border and edge."""
        def is_day(t):
            day = int(t // self.day_s) % WEEK_DAYS
            hour = (t % self.day_s) / self.hour_s
            return day < WORK_DAYS and 9.0 <= hour < 19.0

        def is_night(t):
            return not is_day(t)

        rows = {}
        for label, series in (("border", self.border_series), ("edge", self.edge_series)):
            rows[label] = {
                "all": series.overall_mean(),
                "day": series.mean_where(is_day),
                "night": series.mean_where(is_night),
            }
        border_all = rows["border"]["all"] or 0.0
        edge_all = rows["edge"]["all"] or 0.0
        rows["decrease_all"] = (
            (1.0 - edge_all / border_all) if border_all else 0.0
        )
        return rows
