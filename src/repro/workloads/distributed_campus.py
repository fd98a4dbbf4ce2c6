"""Distributed-campus workload: N federated sites under realistic load.

The multi-site counterpart of :mod:`repro.workloads.campus`: every site
hosts users and a few servers; users chat mostly with local servers but a
configurable fraction of flows crosses the transit (central services,
cross-campus collaboration), and a slice of the user population roams to
another site mid-run and comes home later (travelling staff).

The run reports exactly the quantities the multi-site design is judged
on: first-packet latency split intra/inter, delivery accounting, transit
control-plane load, and the aggregates-only invariant.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.multisite.network import MultiSiteConfig, MultiSiteNetwork
from repro.sim.rng import SeededRng
from repro.workloads.traffic import FlowGenerator, PopularityModel


class DistributedCampusProfile:
    """Shape of the federation: sites, per-site population, traffic mix."""

    def __init__(self, num_sites=3, edges_per_site=3, users_per_site=12,
                 servers_per_site=2, inter_site_fraction=0.3,
                 roaming_fraction=0.25, flow_interval_s=2.0,
                 transit_delay_s=2e-3):
        if num_sites < 1:
            raise ConfigurationError("distributed campus needs at least one site")
        self.num_sites = num_sites
        self.edges_per_site = edges_per_site
        self.users_per_site = users_per_site
        self.servers_per_site = servers_per_site
        #: fraction of flows aimed at a *remote* site (when there is one)
        self.inter_site_fraction = inter_site_fraction if num_sites > 1 else 0.0
        #: fraction of users that travel to another site mid-run
        self.roaming_fraction = roaming_fraction if num_sites > 1 else 0.0
        self.flow_interval_s = flow_interval_s
        self.transit_delay_s = transit_delay_s


class DistributedCampusWorkload:
    """Drives a MultiSiteNetwork through one traffic epoch."""

    VN_ID = 4099

    def __init__(self, profile=None, seed=3):
        self.profile = profile or DistributedCampusProfile()
        self.seed = seed
        self.rng = SeededRng(seed)
        self._traffic_rng = self.rng.spawn("traffic")
        self._roam_rng = self.rng.spawn("roam")

        profile = self.profile
        self.net = MultiSiteNetwork(MultiSiteConfig(
            num_sites=profile.num_sites,
            edges_per_site=profile.edges_per_site,
            transit_delay_s=profile.transit_delay_s,
            seed=seed,
        ))
        self.users = []       # per site: list of user endpoints
        self.servers = []     # per site: list of server endpoints
        self._site_of = {}    # identity -> home site index
        self._generators = []
        self.intra_delays = []
        self.inter_delays = []
        self._build_population()

    # ------------------------------------------------------------------ population
    def _build_population(self):
        net = self.net
        profile = self.profile
        net.define_vn("campus", self.VN_ID, "10.128.0.0/12")
        net.define_group("users", 10, self.VN_ID)
        net.define_group("servers", 30, self.VN_ID)
        net.allow("users", "servers")
        net.allow("users", "users")
        for site_index in range(profile.num_sites):
            users = []
            servers = []
            for index in range(profile.users_per_site):
                endpoint = net.create_endpoint(
                    "s%d-user-%d" % (site_index, index), "users", self.VN_ID,
                    sink=self._sink)
                self._site_of[endpoint.identity] = site_index
                net.admit(endpoint, site_index,
                          index % profile.edges_per_site)
                users.append(endpoint)
            for index in range(profile.servers_per_site):
                endpoint = net.create_endpoint(
                    "s%d-srv-%d" % (site_index, index), "servers", self.VN_ID,
                    sink=self._sink)
                self._site_of[endpoint.identity] = site_index
                net.admit(endpoint, site_index,
                          index % profile.edges_per_site)
                servers.append(endpoint)
            self.users.append(users)
            self.servers.append(servers)
        net.settle(max_time=300.0)
        self._popularity = [
            PopularityModel(bucket, self._traffic_rng, skew=1.1)
            for bucket in self.servers
        ]

    # ------------------------------------------------------------------ traffic
    def _sink(self, endpoint, packet, now):
        sent_at = packet.meta.get("sent_at")
        if sent_at is None:
            return
        if packet.meta.get("inter_site"):
            self.inter_delays.append(now - sent_at)
        else:
            self.intra_delays.append(now - sent_at)

    def _fire_flow(self, endpoint):
        if not endpoint.attached or not endpoint.onboarded:
            return
        profile = self.profile
        home = self._site_of[endpoint.identity]
        cross = (profile.num_sites > 1
                 and self._traffic_rng.random() < profile.inter_site_fraction)
        if cross:
            choices = [i for i in range(profile.num_sites) if i != home]
            target_site = self._traffic_rng.choice(choices)
        else:
            target_site = home
        target = self._popularity[target_site].pick()
        if target is endpoint or target.ip is None:
            return
        packet = self.net.send(endpoint, target.ip, size=600)
        packet.meta["sent_at"] = self.net.sim.now
        packet.meta["inter_site"] = cross

    def _rate(self):
        return 1.0 / self.profile.flow_interval_s

    # ------------------------------------------------------------------ run
    def run(self, duration_s=60.0):
        """Steady traffic for ``duration_s``, with mid-run cross-site roams."""
        net = self.net
        profile = self.profile
        sim = net.sim

        for bucket in self.users:
            for endpoint in bucket:
                generator = FlowGenerator(sim, endpoint, self._rate,
                                          self._fire_flow, self._traffic_rng)
                generator.start()
                self._generators.append(generator)

        # Travelling staff: roam out in the first half, home in the second.
        start = sim.now
        for site_index, bucket in enumerate(self.users):
            for endpoint in bucket:
                if self._roam_rng.random() >= profile.roaming_fraction:
                    continue
                choices = [i for i in range(profile.num_sites) if i != site_index]
                away_site = self._roam_rng.choice(choices)
                out_at = start + self._roam_rng.uniform(0.1, duration_s * 0.4)
                back_at = start + self._roam_rng.uniform(duration_s * 0.6,
                                                         duration_s * 0.9)
                sim.post_at(out_at, self._roam, endpoint, away_site)
                sim.post_at(back_at, self._roam, endpoint, site_index)

        sim.run(until=start + duration_s)
        for generator in self._generators:
            generator.stop()
        net.settle(max_time=120.0)
        return self.summarize()

    def _roam(self, endpoint, site_index):
        if not endpoint.attached:
            return
        edge = self._roam_rng.randint(0, self.profile.edges_per_site - 1)
        self.net.roam(endpoint, site_index, edge)

    # ------------------------------------------------------------------ reporting
    def summarize(self):
        net = self.net
        sent = sum(g.flows_fired for g in self._generators)
        delivered = len(self.intra_delays) + len(self.inter_delays)
        transit_records = list(net.transit.database.records())

        def mean(values):
            return sum(values) / len(values) if values else None

        return {
            "flows_fired": sent,
            "delivered": delivered,
            "intra_flows": len(self.intra_delays),
            "inter_flows": len(self.inter_delays),
            "intra_mean_delay_s": mean(self.intra_delays),
            "inter_mean_delay_s": mean(self.inter_delays),
            "transit_messages": net.transit_message_count(),
            "transit_aggregates": len(transit_records),
            "transit_has_host_state": any(r.eid.is_host for r in transit_records),
            "away_endpoints": sum(b.away_count() for b in net.transit_borders),
        }
