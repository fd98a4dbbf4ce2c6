"""Unit tests for the data-plane fast path primitives and their wiring.

The system-level equivalence claims live in
``tests/property/test_dataplane_fastpath.py``; these tests pin the
behaviour of each piece — megaflow cache, encap template, train-aware
ACL accounting, train injection, invalidation hooks — in isolation.
"""

from repro.experiments.drops import VPN_PROFILE, run_device
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.multisite import MultiSiteConfig, MultiSiteNetwork
from repro.net.addresses import IPv4Address, IPv6Address, Prefix
from repro.net.fastpath import (
    ACT_ENCAP,
    ACT_LOCAL,
    ACT_TRANSIT,
    DIR_INGRESS,
    MegaflowCache,
    MegaflowEntry,
)
from repro.net.packet import Packet, make_udp_packet
from repro.net.vxlan import (
    EncapTemplate,
    VxlanGpoHeader,
    decapsulate,
    encapsulate,
)
from repro.policy.acl import GroupAcl
from repro.policy.matrix import PolicyAction, PolicyRule
from repro.wireless import MultiSiteWireless, WirelessConfig, WirelessFabric
from repro.workloads.distributed_wireless_campus import (
    DistributedWirelessCampusProfile,
    DistributedWirelessCampusWorkload,
)

VN = 4098


class TestMegaflowCache:
    def test_install_lookup_and_stats(self):
        cache = MegaflowCache()
        key = (0, VN, 10, "10.0.0.1")
        assert cache.lookup(key, now=0.0) is None
        entry = cache.install(key, MegaflowEntry(ACT_LOCAL))
        assert cache.lookup(key, now=0.0) is entry
        assert (cache.hits, cache.misses) == (1, 1)

    def test_entry_ttl_expires_with_the_map_cache_entry(self):
        cache = MegaflowCache()
        key = (0, VN, 10, "10.0.0.1")
        cache.install(key, MegaflowEntry(ACT_ENCAP, expires_at=5.0))
        assert cache.lookup(key, now=4.9) is not None
        assert cache.lookup(key, now=5.0) is None
        assert len(cache) == 0   # expired entries are deleted, not kept

    def test_flush_and_drop(self):
        cache = MegaflowCache()
        cache.install("a", MegaflowEntry(ACT_LOCAL))
        cache.install("b", MegaflowEntry(ACT_LOCAL))
        cache.drop("a")
        assert len(cache) == 1
        cache.flush()
        assert len(cache) == 0 and cache.flushes == 1

    def test_capacity_overflow_flushes(self):
        cache = MegaflowCache(max_entries=4)
        for index in range(4):
            cache.install(index, MegaflowEntry(ACT_LOCAL))
        cache.install(99, MegaflowEntry(ACT_LOCAL))
        assert cache.flushes == 1 and len(cache) == 1


class TestScopedInvalidation:
    A = IPv4Address.parse("10.0.0.1")
    B = IPv4Address.parse("10.0.0.2")

    def test_host_eid_drops_only_its_destination(self):
        cache = MegaflowCache()
        cache.install((0, VN, 10, self.A), MegaflowEntry(ACT_ENCAP, dst=self.A))
        cache.install((1, VN, 20, self.A), MegaflowEntry(ACT_LOCAL, dst=self.A))
        kept = cache.install((0, VN, 10, self.B),
                             MegaflowEntry(ACT_ENCAP, dst=self.B))
        cache.invalidate(self.A.to_prefix())
        assert len(cache) == 1
        assert cache.lookup((0, VN, 10, self.A), now=0.0) is None
        assert cache.lookup((1, VN, 20, self.A), now=0.0) is None
        assert cache.lookup((0, VN, 10, self.B), now=0.0) is kept
        assert (cache.invalidations, cache.flushes) == (1, 0)
        # An EID nothing was decided for is still a scoped event.
        cache.invalidate(self.A.to_prefix())
        assert (cache.invalidations, cache.flushes, len(cache)) == (2, 0, 1)

    def test_aggregate_drops_only_the_destinations_it_covers(self):
        outside = IPv4Address.parse("10.0.0.9")
        v6 = IPv6Address.parse("::a00:1")    # same low bits as A
        cache = MegaflowCache()
        cache.install((0, VN, 10, self.A), MegaflowEntry(ACT_ENCAP, dst=self.A))
        cache.install((1, VN + 1, 20, self.B),
                      MegaflowEntry(ACT_LOCAL, dst=self.B))
        kept = [
            cache.install((0, VN, 10, outside),
                          MegaflowEntry(ACT_ENCAP, dst=outside)),
            cache.install((0, VN, 10, v6), MegaflowEntry(ACT_ENCAP, dst=v6)),
            cache.install("probe", MegaflowEntry(ACT_ENCAP)),
        ]
        cache.invalidate(Prefix.parse("10.0.0.0/30"))
        assert len(cache) == 3
        assert cache.lookup((0, VN, 10, self.A), now=0.0) is None
        assert cache.lookup((1, VN + 1, 20, self.B), now=0.0) is None
        assert [cache.lookup(key, now=0.0) for key in (
            (0, VN, 10, outside), (0, VN, 10, v6), "probe")] == kept
        assert cache._by_dst == {outside: [(0, VN, 10, outside)],
                                 v6: [(0, VN, 10, v6)]}
        assert (cache.invalidations, cache.flushes) == (1, 0)
        # The default route covers every destination of its family.
        cache.invalidate(Prefix.parse("0.0.0.0/0"))
        assert cache._by_dst == {v6: [(0, VN, 10, v6)]}
        assert len(cache) == 2 and cache.flushes == 0

    def test_entry_without_dst_only_leaves_by_ttl_or_flush(self):
        cache = MegaflowCache()
        cache.install("opaque", MegaflowEntry(ACT_ENCAP, expires_at=9.0))
        cache.install(7, MegaflowEntry(ACT_LOCAL))
        cache.invalidate(self.A.to_prefix())
        assert len(cache) == 2
        assert cache.lookup("opaque", now=9.0) is None
        cache.flush()
        assert len(cache) == 0

    def test_index_does_not_outlive_its_entries(self):
        cache = MegaflowCache()
        key = (0, VN, 10, self.A)
        for _ in range(3):
            cache.install(key, MegaflowEntry(ACT_ENCAP, dst=self.A,
                                             expires_at=5.0))
            assert cache.lookup(key, now=5.0) is None      # aged out
            cache.install(key, MegaflowEntry(ACT_ENCAP, dst=self.A))
            cache.drop(key)                                # liveness failed
            cache.install(key, MegaflowEntry(ACT_ENCAP, dst=self.A))
            cache.install(key, MegaflowEntry(ACT_LOCAL, dst=self.A))  # redecided
            assert cache._by_dst == {self.A: [key]}
            cache.drop(key)
            assert len(cache) == 0 and not cache._by_dst
        cache.drop(key)    # dropping what is not there stays a no-op
        last = cache.install(key, MegaflowEntry(ACT_LOCAL, dst=self.A))
        assert cache.lookup(key, now=0.0) is last
        cache.invalidate(self.A.to_prefix())
        assert len(cache) == 0 and not cache._by_dst

    def test_stats_export_invalidations_next_to_flushes(self):
        cache = MegaflowCache()
        cache.install((0, VN, 10, self.A), MegaflowEntry(ACT_TRANSIT, dst=self.A))
        cache.invalidate(self.A.to_prefix())
        cache.flush()
        assert cache.stats_dict() == {"hits": 0, "misses": 0, "flushes": 1,
                                      "invalidations": 1, "entries": 0}


class TestEncapTemplate:
    def test_matches_slow_path_encapsulation(self):
        src = IPv4Address.parse("192.168.0.1")
        dst = IPv4Address.parse("192.168.0.2")
        slow = make_udp_packet(IPv4Address.parse("10.0.0.1"),
                               IPv4Address.parse("10.0.0.2"), 40000, 40000,
                               size=600)
        fast = Packet(slow.inner, slow.l4, size=slow.size)
        encapsulate(slow, src, dst, VN, 10)
        template = EncapTemplate(src, dst, VN, 10,
                                 src_port=slow.encap[1].src_port)
        template.apply(fast)
        assert fast.size == slow.size
        assert fast.encap[0].src == slow.encap[0].src
        assert fast.encap[0].dst == slow.encap[0].dst
        assert fast.encap[1].src_port == slow.encap[1].src_port
        assert fast.encap[2] == slow.encap[2]
        # The 8 wire bytes are cached but real: identical to a fresh pack.
        assert template.encoded == slow.encap[2].encode()
        assert len(template.encoded) == VxlanGpoHeader.WIRE_SIZE
        # And a template-encapsulated packet decapsulates like any other.
        vxlan = decapsulate(fast)
        assert int(vxlan.vni) == VN and int(vxlan.group) == 10
        assert fast.size == 600

    def test_policy_applied_is_baked_in(self):
        src = IPv4Address.parse("192.168.0.1")
        dst = IPv4Address.parse("192.168.0.2")
        template = EncapTemplate(src, dst, VN, 10, policy_applied=True)
        packet = make_udp_packet(IPv4Address.parse("10.0.0.1"),
                                 IPv4Address.parse("10.0.0.2"), 1, 2)
        template.apply(packet)
        assert decapsulate(packet).policy_applied is True

    def test_header_objects_are_shared_across_packets(self):
        template = EncapTemplate(IPv4Address.parse("192.168.0.1"),
                                 IPv4Address.parse("192.168.0.2"), VN, 10)
        a = make_udp_packet(IPv4Address.parse("10.0.0.1"),
                            IPv4Address.parse("10.0.0.2"), 1, 2)
        b = make_udp_packet(IPv4Address.parse("10.0.0.1"),
                            IPv4Address.parse("10.0.0.2"), 1, 2)
        template.apply(a)
        template.apply(b)
        assert a.encap is b.encap   # no per-packet allocation


class TestAclAccounting:
    def _acl(self):
        acl = GroupAcl()
        acl.program([PolicyRule(10, 30, PolicyAction.ALLOW),
                     PolicyRule(10, 20, PolicyAction.DENY)])
        return acl

    def test_program_reports_whether_a_verdict_changed(self):
        acl = GroupAcl()
        rows = [PolicyRule(10, 30, PolicyAction.ALLOW),
                PolicyRule(10, 20, PolicyAction.DENY)]
        assert acl.program(rows) is True
        assert acl.program(rows) is False       # same slice, downloaded again
        assert acl.program([]) is False
        # A version bump alone changes no verdict, but is recorded.
        assert acl.program([PolicyRule(10, 30, PolicyAction.ALLOW,
                                       version=7)]) is False
        assert acl.version_of(10, 30) == 7
        assert acl.program([PolicyRule(10, 20, PolicyAction.DENY),
                            PolicyRule(10, 30, PolicyAction.DENY)]) is True
        assert acl.action_for(10, 30)[1] == PolicyAction.DENY

    def test_action_for_is_pure(self):
        acl = self._acl()
        key, action = acl.action_for(10, 20)
        assert key == (10, 20) and action == PolicyAction.DENY
        assert acl.hits == 0 and acl.drops == 0

    def test_evaluate_count_equals_repeated_evaluations(self):
        one = self._acl()
        for _ in range(7):
            one.evaluate(10, 20)
            one.evaluate(10, 30)
        batched = self._acl()
        batched.evaluate(10, 20, count=7)
        batched.evaluate(10, 30, count=7)
        assert (one.hits, one.drops, one.rule_hits) == \
               (batched.hits, batched.drops, batched.rule_hits)
        assert one.drop_permille == batched.drop_permille

    def test_account_replays_a_cached_verdict(self):
        acl = self._acl()
        key, action = acl.action_for(10, 20)
        acl.account(key, action, count=3)
        assert acl.hits == 3 and acl.drops == 3


class TestPacketTrains:
    def test_default_train_is_one_and_copy_preserves_it(self):
        packet = Packet(size=600)
        assert packet.train == 1
        # a train stays one through encapsulation and decapsulation
        train = make_udp_packet(IPv4Address.parse("10.0.0.1"),
                                IPv4Address.parse("10.0.0.2"), 1, 2)
        train.train = 16
        decapsulate(encapsulate(train, IPv4Address(1), IPv4Address(2), VN, 10))
        assert train.train == 16
        assert Packet(size=600, train=16).train == 16

    def test_drops_workload_coalesced_retries_identical_ledger(self):
        baseline = run_device(VPN_PROFILE, days=1, seed=3)
        coalesced = run_device(VPN_PROFILE, days=1, seed=3,
                               coalesce_retries=True)
        assert coalesced == baseline


def _small_fabric(**cfg):
    net = FabricNetwork(FabricConfig(num_edges=3, seed=5, **cfg))
    net.define_vn("corp", VN, "10.1.0.0/16")
    net.define_group("users", 10, VN)
    net.define_group("servers", 30, VN)
    net.allow("users", "servers")
    a = net.create_endpoint("a", "users", VN)
    b = net.create_endpoint("b", "servers", VN)
    net.admit(a, 0)
    net.admit(b, 1)
    net.settle()
    return net, a, b


class TestTrainInjection:
    def test_train_and_loop_account_identically(self):
        loop_net, a1, b1 = _small_fabric()
        train_net, a2, b2 = _small_fabric()
        loop_net.send(a1, b1, size=600, count=10, as_train=False)
        train_net.send(a2, b2, size=600, count=10, as_train=True)
        loop_net.settle()
        train_net.settle()
        assert b1.packets_received == b2.packets_received == 10
        assert b1.bytes_received == b2.bytes_received
        for loop_edge, train_edge in zip(loop_net.edges, train_net.edges):
            loop_counts = loop_edge.counters.as_dict()
            train_counts = train_edge.counters.as_dict()
            for key in ("packets_in", "packets_out", "encapsulated",
                        "local_deliveries", "to_border_default"):
                assert train_counts[key] == loop_counts[key]

    def test_train_uses_fewer_events(self):
        loop_net, a1, b1 = _small_fabric()
        train_net, a2, b2 = _small_fabric()
        base_loop = loop_net.sim.events_processed
        base_train = train_net.sim.events_processed
        loop_net.send(a1, b1, size=600, count=16, as_train=False)
        train_net.send(a2, b2, size=600, count=16, as_train=True)
        loop_net.settle()
        train_net.settle()
        loop_events = loop_net.sim.events_processed - base_loop
        train_events = train_net.sim.events_processed - base_train
        assert b1.packets_received == b2.packets_received == 16
        assert train_events * 4 < loop_events


class TestMegaflowWiring:
    def test_hits_accumulate_and_survive_delivery(self):
        net, a, b = _small_fabric(megaflow=True)
        for _ in range(5):
            net.send(a, b, size=600)
            net.settle()
        edge = net.edges[0]
        assert edge.megaflow is not None and edge.megaflow.hits > 0
        assert b.packets_received == 5

    def test_roam_invalidates_cached_decisions(self):
        net, a, b = _small_fabric(megaflow=True)
        for _ in range(3):
            net.send(a, b, size=600)
            net.settle()
        delivered_before = b.packets_received
        net.roam(b, 2)
        net.settle()
        net.send(a, b, size=600)
        net.settle()
        # The packet reached b at its *new* edge, not a stale cached RLOC.
        assert b.packets_received == delivered_before + 1
        assert b.edge is net.edges[2]

    def test_policy_update_invalidates_cached_verdict(self):
        net, a, b = _small_fabric(megaflow=True)
        net.send(a, b, size=600)
        net.settle()
        delivered = b.packets_received
        net.deny("users", "servers")
        net.settle()
        net.send(a, b, size=600)
        net.settle()
        assert b.packets_received == delivered   # dropped under new policy
        assert net.total_policy_drops() >= 1

    def test_group_move_invalidates_cached_verdict(self):
        net, a, b = _small_fabric(megaflow=True)
        net.define_group("quarantine", 20, VN)   # nothing allowed towards it
        for _ in range(2):
            net.send(a, b, size=600)
            net.settle()
        assert b.packets_received == 2 and net.edges[1].megaflow.hits == 1
        net.move_endpoint_group(b, "quarantine")  # sec. 5.4: re-auth only
        net.settle()
        net.send(a, b, size=600)
        net.settle()
        assert b.packets_received == 2
        assert net.edges[1].counters.policy_drops == 1

    def test_regroup_while_away_retires_the_verdict_on_return(self):
        # A→B→A bounce that beats the fig. 5 notify: edge A's VRF entry
        # lingers and is re-grouped in place by the re-install.  No rule
        # row changes (nothing is allowed towards "quarantine"), so the
        # per-EID invalidation is all that stands between the cached
        # ALLOW and the station's new group.
        net = FabricNetwork(FabricConfig(num_edges=2, seed=5, megaflow=True))
        wifi = WirelessFabric(net, WirelessConfig(aps_per_edge=1))
        net.define_vn("corp", VN, "10.1.0.0/16")
        net.define_group("servers", 30, VN)
        net.define_group("stations", 10, VN)
        net.define_group("quarantine", 20, VN)
        net.allow("servers", "stations")
        server = net.create_endpoint("srv", "servers", VN)
        net.admit(server, 0)
        station = wifi.create_station("sta", "stations", VN)
        net.settle()
        wifi.associate(station, 0)
        net.settle()
        for _ in range(2):
            net.send(server, station.ip, size=600)
            net.settle()
        edge = net.edges[0]
        assert station.packets_received == 2 and edge.megaflow.hits == 1
        lingering = edge.vrf.lookup_identity("sta")
        flushes = edge.megaflow.flushes

        wifi.roam(station, 1)
        net.policy_server.reassign_group("sta", 20)   # no edge to re-auth at
        net.run_for(0.0003)
        wifi.roam(station, 0)
        net.settle()
        assert edge.vrf.lookup_identity("sta") is lingering
        assert int(lingering.group) == 20 and edge.megaflow.flushes == flushes

        net.send(server, station.ip, size=600)
        net.settle()
        assert station.packets_received == 2
        assert edge.counters.policy_drops == 1

    def test_megaflow_on_by_default(self):
        net, _a, _b = _small_fabric()
        assert all(edge.megaflow is not None for edge in net.edges)
        assert all(border.megaflow is not None for border in net.borders)
        net, _a, _b = _small_fabric(megaflow=False)
        assert all(edge.megaflow is None for edge in net.edges)
        assert all(border.megaflow is None for border in net.borders)

    def test_megaflow_ttl_expiry_forces_reresolution(self):
        net, a, b = _small_fabric(megaflow=True, map_cache_ttl=0.5)
        net.send(a, b, size=600)
        net.settle()
        requests = net.edges[0].counters.map_requests_sent
        net.run_for(1.0)   # outlive the mapping TTL
        net.send(a, b, size=600)
        net.settle()
        assert b.packets_received == 2
        assert net.edges[0].counters.map_requests_sent > requests


def _megaflows(net):
    return [device.megaflow for site in net.sites
            for device in site.edges + site.borders]


class TestMegaflowSurvivesChurn:
    """The gain the scoped invalidation buys, pinned by exact counters."""

    def test_two_site_churn_keeps_the_hit_ratio(self):
        # 20 stations walking (40 % of steps across the transit) while
        # every flow goes to a wired server that never moves; with a
        # flush per control-plane event this run reads 0.63.
        profile = DistributedWirelessCampusProfile(
            num_sites=2, edges_per_site=2, stations_per_site=10,
            servers_per_site=2, dwell_mean_s=4.0,
            intersite_roam_fraction=0.4, flow_interval_s=0.25,
            packets_per_flow=4, megaflow=True, packet_trains=True)
        workload = DistributedWirelessCampusWorkload(profile, seed=3)
        summary = workload.run(duration_s=30.0)
        assert summary["roams"] > 100 and summary["intersite_handoffs"] > 40
        caches = _megaflows(workload.net)
        hits = sum(cache.hits for cache in caches)
        misses = sum(cache.misses for cache in caches)
        assert hits + misses > 5000
        assert hits / (hits + misses) >= 0.95
        assert sum(cache.invalidations for cache in caches) > 1000
        assert sum(cache.flushes for cache in caches) < 50

    def test_a_roam_leaves_other_destinations_cached(self):
        net = MultiSiteNetwork(MultiSiteConfig(
            num_sites=2, edges_per_site=2, seed=13, megaflow=True))
        wifi = MultiSiteWireless(net, WirelessConfig(aps_per_edge=1))
        net.define_vn("wifi", VN, "10.96.0.0/15")
        net.define_group("stations", 10, VN)
        net.define_group("servers", 30, VN)
        net.allow("stations", "servers")
        server = net.create_endpoint("srv", "servers", VN)
        net.admit(server, 0, 0)
        mover = wifi.create_station("mover", "stations", VN)
        stayer = wifi.create_station("stayer", "stations", VN)
        net.settle()
        wifi.associate(mover, 1)     # site 0, edge 1
        wifi.associate(stayer, 1)
        net.settle()

        def exchange():
            for station in (mover, stayer):
                net.send(server, station.ip, size=600)
                net.send(station, server.ip, size=600)
                net.settle()

        exchange()
        exchange()    # the first round resolved; this one is cached
        server_edge, station_edge = net.sites[0].edges
        home_border = net.sites[0].borders[0]
        to_stayer = (DIR_INGRESS, VN, 30, stayer.ip)
        to_mover = (DIR_INGRESS, VN, 30, mover.ip)
        now = net.sim.now
        kept = server_edge.megaflow.lookup(to_stayer, now)
        assert kept is not None and kept.action == ACT_ENCAP
        assert server_edge.megaflow.lookup(to_mover, now).rloc \
            == station_edge.rloc
        home = (server_edge.megaflow, station_edge.megaflow,
                home_border.megaflow)
        flushes = [cache.flushes for cache in home]

        wifi.roam(mover, 2)          # across the transit, to site 1
        net.settle()
        exchange()
        exchange()
        assert mover.packets_received == 4 and stayer.packets_received == 4
        assert server.packets_received == 8
        now = net.sim.now
        # The stayer's decision was never retaken; the mover's was, and
        # now hairpins through the home border's cached transit leg.
        assert server_edge.megaflow.lookup(to_stayer, now) is kept
        assert server_edge.megaflow.lookup(to_mover, now).rloc \
            == home_border.rloc
        hairpin = home_border.megaflow.lookup((VN, 30, mover.ip), now)
        assert hairpin.action == ACT_TRANSIT
        assert hairpin.rloc == net.sites[1].borders[0].transit_rloc
        # Nothing in the site the mover left paid a flush for it.
        assert [cache.flushes for cache in home] == flushes

    def test_onward_move_repoints_the_cached_transit_leg(self):
        # Site 1 -> site 2 while away from home: the home border's away
        # entry changes but its synced record (EID -> itself) does not,
        # so no publish comes — the away verb alone must retire the
        # cached hairpin, or home traffic keeps crossing to site 1.
        net = MultiSiteNetwork(MultiSiteConfig(
            num_sites=3, edges_per_site=1, seed=13, megaflow=True))
        wifi = MultiSiteWireless(net, WirelessConfig(aps_per_edge=1))
        net.define_vn("wifi", VN, "10.96.0.0/14")
        net.define_group("stations", 10, VN)
        net.define_group("servers", 30, VN)
        net.allow("stations", "servers")
        server = net.create_endpoint("srv", "servers", VN)
        net.admit(server, 0, 0)
        station = wifi.create_station("sta", "stations", VN)
        net.settle()
        wifi.associate(station, 0)
        net.settle()
        home_border = net.sites[0].borders[0]
        key = (VN, 30, station.ip)
        for site in (1, 2):
            wifi.roam(station, site)
            net.settle()
            before = station.packets_received
            for _ in range(3):
                net.send(server, station.ip, size=600)
                net.settle()
            assert station.packets_received == before + 3
            hairpin = home_border.megaflow.lookup(key, net.sim.now)
            assert hairpin.action == ACT_TRANSIT
            assert hairpin.rloc == net.sites[site].borders[0].transit_rloc
        assert sum(b.counters.transit_drops
                   for s in net.sites for b in s.borders) == 0


class _NoProbes(dict):
    """A route memo that fails any lookup (clearing it still works)."""

    def get(self, *args):
        raise AssertionError("a megaflow hit probed the route memo")

    __getitem__ = get


class TestBorderTransitLeg:
    def _two_sites(self):
        net = MultiSiteNetwork(MultiSiteConfig(
            num_sites=2, edges_per_site=1, seed=3, megaflow=True))
        net.define_vn("corp", VN, "10.32.0.0/15")
        net.define_group("users", 10, VN)
        net.allow("users", "users")
        a = net.create_endpoint("a", "users", VN)
        b = net.create_endpoint("b", "users", VN)
        net.admit(a, 0)
        net.admit(b, 1)
        net.settle()
        return net, a, b, net.sites[0].borders[0]

    def test_aggregate_hit_is_cached_for_the_transit_entrys_lifetime(self):
        net, a, b, border = self._two_sites()
        key = (VN, 10, b.ip)
        net.send(a, b.ip, size=600)      # parks behind the transit request
        net.settle()
        assert border.megaflow.lookup(key, net.sim.now) is None
        net.send(a, b.ip, size=600)      # aggregate hit: decided and cached
        net.settle()
        entry = border.megaflow.lookup(key, net.sim.now)
        assert entry.action == ACT_TRANSIT
        assert entry.rloc == net.sites[1].borders[0].transit_rloc
        assert entry.expires_at \
            == border.transit_cache.lookup(VN, b.ip).expires_at
        cache_hits = border.transit_cache.hits
        net.send(a, b.ip, size=600)      # replayed from the megaflow
        net.settle()
        assert b.packets_received == 3
        assert border.counters.transit_reencapsulated == 3
        assert border.transit_cache.hits == cache_hits
        # Aged out with the aggregate it was read from.
        assert border.megaflow.lookup(key, entry.expires_at) is None

    def test_hits_never_probe_the_route_memo(self):
        # Every hit kind that sends: the edge's ingress encap, the
        # border's transit leg out of site 0 and its site leg into
        # site 1.  Each holds its underlay route; a probe of any memo
        # fails the test.
        net, a, b, border = self._two_sites()
        for _ in range(3):           # resolve, then cache every leg
            net.send(a, b.ip, size=600)
            net.settle()
        devices = (net.sites[0].edges[0], border, net.sites[1].borders[0])
        hits = [device.megaflow.hits for device in devices]
        underlays = [site.underlay for site in net.sites]
        underlays.append(net.transit_underlay)
        for underlay in underlays:
            underlay._routes = _NoProbes(underlay._routes)
        net.send(a, b.ip, size=600, count=16, as_train=True)
        net.send(a, b.ip, size=600, count=16, as_train=True)
        net.settle()
        assert b.packets_received == 35
        assert [device.megaflow.hits - before
                for device, before in zip(devices, hits)] == [2, 2, 2]

    def test_expiring_packet_installs_nothing(self):
        net, a, b, border = self._two_sites()
        net.send(a, b.ip, size=600)
        net.settle()                     # transit cache now holds the aggregate
        packet = make_udp_packet(a.ip, b.ip, 40000, 40000, size=600)
        packet.inner.ttl = 1
        a.send(packet)
        net.settle()
        assert border.counters.ttl_drops == 1
        assert border.megaflow.lookup((VN, 10, b.ip), net.sim.now) is None
