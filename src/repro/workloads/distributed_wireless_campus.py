"""Distributed wireless campus: stations roaming *between* fabric sites.

The composition workload of the two flagship subsystems: every site of a
multi-site federation carries a wireless overlay (per-site WLC + APs on
every edge), wired servers host Zipf-skewed flows, and the station
population walks — mostly between APs of the site it is currently in,
but a configurable fraction of moves crosses the transit (travelling
staff drifting between campuses).  Each cross-site move composes the
WLC re-registration path with the away-table home anchoring, which is
exactly the machinery the inter-site property test and roaming bench
stress.

Two usage modes mirror :mod:`repro.workloads.wireless_campus`:

* :meth:`DistributedWirelessCampusWorkload.run` — steady-state mobility
  with traffic overlapping the roams (the report tool's digest
  input);
* :meth:`DistributedWirelessCampusWorkload.intersite_roam_storm` —
  every station crosses sites inside a short window, with traffic held
  off so the fast-path flag settings can be compared counter-for-counter
  (the intersite bench's scenario).
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.multisite.network import MultiSiteConfig, MultiSiteNetwork
from repro.sim.rng import SeededRng
from repro.stats.summaries import boxplot, ledger_digest
from repro.wireless.deployment import MultiSiteWireless, WirelessConfig
from repro.workloads.traffic import FlowGenerator, PopularityModel


class DistributedWirelessCampusProfile:
    """Federation shape + wireless population + mobility/traffic mix."""

    def __init__(self, name="dw-campus", num_sites=2, edges_per_site=3,
                 aps_per_edge=2, stations_per_site=8, servers_per_site=2,
                 dwell_mean_s=30.0, intersite_roam_fraction=0.3,
                 flow_interval_s=5.0, inter_site_flow_fraction=0.3,
                 zipf_skew=1.1, wlc_service_s=150e-6,
                 transit_delay_s=2e-3,
                 batching=False, register_flush_s=2e-3,
                 session_cache=False, session_cache_ttl_s=600.0,
                 megaflow=False, packet_trains=False, packets_per_flow=1):
        if num_sites < 2:
            raise ConfigurationError(
                "a distributed wireless campus needs at least two sites"
            )
        if stations_per_site < 1:
            raise ConfigurationError("each site needs stations")
        self.name = name
        self.num_sites = num_sites
        self.edges_per_site = edges_per_site
        self.aps_per_edge = aps_per_edge
        self.stations_per_site = stations_per_site
        self.servers_per_site = servers_per_site
        #: mean time a station camps on one AP before walking on
        self.dwell_mean_s = dwell_mean_s
        #: fraction of walk steps that target an AP in *another* site
        self.intersite_roam_fraction = intersite_roam_fraction
        self.flow_interval_s = flow_interval_s
        #: fraction of flows aimed at a remote site's servers
        self.inter_site_flow_fraction = inter_site_flow_fraction
        self.zipf_skew = zipf_skew
        self.wlc_service_s = wlc_service_s
        self.transit_delay_s = transit_delay_s
        #: control-plane fast path knobs (replicated into every site)
        self.batching = batching
        self.register_flush_s = register_flush_s
        self.session_cache = session_cache
        self.session_cache_ttl_s = session_cache_ttl_s
        #: data-plane fast path knobs
        self.megaflow = megaflow
        self.packet_trains = packet_trains
        self.packets_per_flow = packets_per_flow

    @property
    def aps_per_site(self):
        return self.edges_per_site * self.aps_per_edge

    @property
    def num_aps(self):
        return self.num_sites * self.aps_per_site


class DistributedWirelessCampusWorkload:
    """Drives a MultiSiteWireless through cross-site mobility + traffic."""

    VN_ID = 4101

    def __init__(self, profile=None, seed=5):
        self.profile = profile or DistributedWirelessCampusProfile()
        profile = self.profile
        self.rng = SeededRng(seed)
        self._walk_rng = self.rng.spawn("walk")
        self._traffic_rng = self.rng.spawn("traffic")

        self.net = MultiSiteNetwork(MultiSiteConfig(
            num_sites=profile.num_sites,
            edges_per_site=profile.edges_per_site,
            transit_delay_s=profile.transit_delay_s,
            seed=seed,
            megaflow=profile.megaflow,
            batching=profile.batching,
            register_flush_s=profile.register_flush_s,
            session_cache=profile.session_cache,
            session_cache_ttl_s=profile.session_cache_ttl_s,
        ))
        self.wireless = MultiSiteWireless(self.net, WirelessConfig(
            aps_per_edge=profile.aps_per_edge,
            wlc_service_s=profile.wlc_service_s,
        ))
        self._build_population()
        self._walking = False

    # ------------------------------------------------------------------ population
    def _build_population(self):
        net = self.net
        profile = self.profile
        net.define_vn("wifi", self.VN_ID, "10.160.0.0/13")
        net.define_group("stations", 10, self.VN_ID)
        net.define_group("servers", 30, self.VN_ID)
        net.allow("stations", "servers")

        self.servers = []        # per site: list of wired servers
        self.stations = []       # flat list, site-major
        self._home_site = {}     # identity -> home site index
        for site_index in range(profile.num_sites):
            bucket = []
            for index in range(profile.servers_per_site):
                server = net.create_endpoint(
                    "%s-s%d-srv-%d" % (profile.name, site_index, index),
                    "servers", self.VN_ID,
                )
                net.admit(server, site_index, index % profile.edges_per_site)
                bucket.append(server)
            self.servers.append(bucket)
            for index in range(profile.stations_per_site):
                station = self.wireless.create_station(
                    "%s-s%d-sta-%d" % (profile.name, site_index, index),
                    "stations", self.VN_ID,
                )
                self._home_site[station.identity] = site_index
                self.stations.append(station)

        self._popularity = [
            PopularityModel(bucket, self._traffic_rng, skew=profile.zipf_skew)
            for bucket in self.servers
        ]
        self._generators = {}

    # ------------------------------------------------------------------ bring-up
    def bring_up(self):
        """Associate every station to a home-site AP and settle fully."""
        profile = self.profile
        self.net.settle(max_time=300.0)
        for index, station in enumerate(self.stations):
            home = self._home_site[station.identity]
            ap = (home * profile.aps_per_site
                  + index % profile.aps_per_site)
            self.wireless.associate(station, ap,
                                    on_complete=self._on_onboarded)
        self.net.settle(max_time=300.0)

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
                self.net.sim, station, lambda: rate, self._fire_flow,
                self._traffic_rng,
                packets_per_flow=self.profile.packets_per_flow,
            )
            if station.associated and station.onboarded:
                self._generators[station.identity].start()

    def _fire_flow(self, station, count=1):
        if not station.associated or not station.onboarded:
            return
        profile = self.profile
        current = self.wireless.site_of_ap(station.ap)
        cross = self._traffic_rng.random() < profile.inter_site_flow_fraction
        if cross:
            choices = [i for i in range(profile.num_sites) if i != current]
            target_site = self._traffic_rng.choice(choices)
        else:
            target_site = current
        target = self._popularity[target_site].pick()
        if target.ip is None:
            return
        self.net.send(station, target.ip, size=600, count=count,
                      as_train=profile.packet_trains)

    # ------------------------------------------------------------------ mobility
    def _pick_ap(self, station):
        """Next AP for a walk step: same-site neighbour or a cross-site
        move with probability ``intersite_roam_fraction``."""
        profile = self.profile
        current_site = self.wireless.site_of_ap(station.ap)
        current = self.wireless.ap_index(station.ap)
        if self._walk_rng.random() < profile.intersite_roam_fraction:
            sites = [i for i in range(profile.num_sites) if i != current_site]
            site = self._walk_rng.choice(sites)
        else:
            site = current_site
        base = site * profile.aps_per_site
        choices = [base + i for i in range(profile.aps_per_site)
                   if base + i != current]
        return self._walk_rng.choice(choices)

    def _walk_step(self, station):
        if not self._walking:
            return
        if station.associated:
            self.wireless.roam(station, self._pick_ap(station))
        self.net.sim.schedule(
            self._walk_rng.expovariate(1.0 / self.profile.dwell_mean_s),
            self._walk_step, station,
        )

    def _start_walks(self):
        self._walking = True
        for station in self.stations:
            self.net.sim.schedule(
                self._walk_rng.expovariate(1.0 / self.profile.dwell_mean_s),
                self._walk_step, station,
            )

    # ------------------------------------------------------------------ entry points
    def run(self, duration_s=120.0):
        """Steady-state walk + traffic; returns the summary dict."""
        self.bring_up()
        self._install_generators()
        self._start_walks()
        self.net.sim.run(until=self.net.sim.now + duration_s)
        self._walking = False
        for generator in self._generators.values():
            generator.stop()
        self.net.settle(max_time=300.0)
        return self.summarize()

    def intersite_roam_storm(self, window_s=1.0, settle_s=30.0):
        """Every station crosses to another site inside ``window_s``.

        Traffic is held off so the storm's control-plane work — WLC
        handoffs, foreign re-registrations, away anchoring — is the only
        thing happening; the returned summary carries the completion
        makespan (``sustained_roams_per_s``) the bench tracks.
        """
        if not any(s.associated for s in self.stations):
            self.bring_up()
        sim = self.net.sim
        start = sim.now
        completions = [0]
        last_completion = [start]
        delays = []

        def _note(station, delay):
            completions[0] += 1
            last_completion[0] = sim.now
            delays.append(delay)

        for wlc in self.wireless.wlcs:
            wlc.on_registered = _note
        for station in self.stations:
            at = sim.now + self._walk_rng.uniform(0.0, window_s)
            sim.schedule_at(at, self._storm_move, station)
        sim.run(until=start + window_s + settle_s)
        self.net.settle(max_time=300.0)
        for wlc in self.wireless.wlcs:
            wlc.on_registered = None
        summary = self.summarize()
        makespan = max(last_completion[0] - start, 1e-9)
        summary["storm_window_s"] = window_s
        summary["storm_makespan_s"] = makespan
        summary["storm_completions"] = completions[0]
        summary["sustained_roams_per_s"] = completions[0] / makespan
        if delays:
            ordered = sorted(delays)
            summary["roam_delay_p50_s"] = ordered[len(ordered) // 2]
            summary["roam_delay_p99_s"] = ordered[
                min(len(ordered) - 1, int(len(ordered) * 0.99))
            ]
        return summary

    def _storm_move(self, station):
        if not station.associated:
            return
        profile = self.profile
        current_site = self.wireless.site_of_ap(station.ap)
        sites = [i for i in range(profile.num_sites) if i != current_site]
        site = self._walk_rng.choice(sites)
        base = site * profile.aps_per_site
        self.wireless.roam(
            station, base + self._walk_rng.randint(0, profile.aps_per_site - 1)
        )

    # ------------------------------------------------------------------ reporting
    def summarize(self):
        net = self.net
        wlcs = self.wireless.wlcs
        roams = sum(w.stats.roams for w in wlcs)
        intra_edge = sum(w.stats.intra_edge_roams for w in wlcs)
        handoffs = sum(w.stats.handoffs_out for w in wlcs)
        delays = [d for w in wlcs for d in w.registration_delays]
        summary = {
            "stations": len(self.stations),
            "associated": sum(1 for s in self.stations if s.associated),
            "roams": roams,
            "intra_edge_roams": intra_edge,
            "inter_edge_roams": roams - intra_edge,
            "intersite_handoffs": handoffs,
            "away_endpoints": sum(b.away_count()
                                  for b in net.transit_borders),
            "transit_messages": net.transit_message_count(),
            "transit_has_host_state": bool(net.transit.host_routes()),
            "flows_fired": sum(g.flows_fired
                               for g in self._generators.values()),
            "server_packets_received": sum(
                srv.packets_received
                for bucket in self.servers for srv in bucket
            ),
            "station_packets_delivered": sum(
                ap.counters.packets_delivered for ap in self.wireless.aps
            ),
            "policy_drops": net.total_policy_drops(),
            "wlc_max_queue_s": max(w.max_queue_delay_s for w in wlcs),
        }
        if delays:
            box = boxplot(delays)
            summary["registration_delay_median_s"] = box.median
            summary["registration_delay_max_s"] = max(delays)
        return summary

    def counter_ledger(self):
        """Every delivery/drop/enforcement counter, deterministically keyed.

        This is the bit-identity surface: the fast-path flag matrix
        (batching x session_cache x megaflow x packet_trains) must leave
        each of these values untouched, and two runs of the same seed
        under different ``PYTHONHASHSEED`` values must agree exactly
        (the CI report lane hashes this via :meth:`digest`).
        """
        net = self.net
        ledger = {}
        for site_index, site in enumerate(net.sites):
            for edge in site.edges:
                prefix = "site%d.%s" % (site_index, edge.name)
                counters = edge.counters.as_dict()
                for key in ("packets_in", "local_deliveries", "encapsulated",
                            "to_border_default", "policy_drops",
                            "stale_deliveries", "ttl_drops", "wireless_in"):
                    ledger["%s.%s" % (prefix, key)] = counters[key]
                ledger["%s.acl_hits" % prefix] = edge.acl.hits
                ledger["%s.acl_drops" % prefix] = edge.acl.drops
            for border in site.borders:
                prefix = "site%d.%s" % (site_index, border.name)
                counters = border.counters.as_dict()
                for key in ("packets_in", "relayed_to_edge", "no_route_drops",
                            "policy_drops", "ttl_drops", "transit_in",
                            "transit_reencapsulated", "transit_drops"):
                    ledger["%s.%s" % (prefix, key)] = counters[key]
        for site_index, wlc in enumerate(self.wireless.wlcs):
            stats = wlc.stats.as_dict()
            for key in ("associations", "roams", "intra_edge_roams",
                        "disassociations", "handoffs_out",
                        "registrar_acks_received"):
                ledger["wlc%d.%s" % (site_index, key)] = stats[key]
        for index, ap in enumerate(self.wireless.aps):
            ledger["ap%d.encapsulated" % index] = (
                ap.counters.packets_encapsulated
            )
            ledger["ap%d.delivered" % index] = ap.counters.packets_delivered
        for bucket in self.servers:
            for server in bucket:
                ledger["%s.received" % server.identity] = (
                    server.packets_received
                )
        for station in self.stations:
            ledger["%s.sent" % station.identity] = station.packets_sent
            ledger["%s.received" % station.identity] = (
                station.packets_received
            )
        ledger["away_endpoints"] = sum(
            b.away_count() for b in net.transit_borders
        )
        return ledger

    def digest(self):
        """Stable hex digest of the counter ledger (``repro.tools.report``)."""
        return ledger_digest(self.counter_ledger())
