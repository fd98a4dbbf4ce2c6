"""Unit tests for the edge router (onboarding, pipelines, control plane)."""

import pytest

from repro import obs
from repro.core.errors import ConfigurationError
from repro.fabric import FabricConfig, FabricNetwork
from tests.conftest import admit_and_settle


class TestOnboarding:
    def test_successful_onboarding_fills_state(self, small_fabric):
        net = small_fabric
        alice = net.create_endpoint("alice", "employees", 4098)
        admit_and_settle(net, alice, 0)
        assert alice.onboarded
        assert int(alice.vn) == 4098
        assert int(alice.group) == 10
        edge = net.edges[0]
        assert edge.vrf.lookup_identity("alice") is not None
        assert edge.local_endpoint_count() == 1

    def test_onboarding_registers_three_eids(self, small_fabric):
        net = small_fabric
        alice = net.create_endpoint("alice", "employees", 4098)
        admit_and_settle(net, alice, 0)
        assert net.routing_server.route_count == 3   # v4 + v6 + mac

    def test_rejected_endpoint_detached(self, small_fabric):
        net = small_fabric
        mallory = net.create_endpoint("mallory", "employees", 4098, secret="right")
        mallory.secret = "wrong"
        outcome = []
        net.admit(mallory, 0, on_complete=lambda e, ok: outcome.append(ok))
        net.settle()
        assert outcome == [False]
        assert not mallory.attached
        assert net.edges[0].local_endpoint_count() == 0

    def test_port_collision_rejected(self, small_fabric):
        net = small_fabric
        a = net.create_endpoint("a", "employees", 4098)
        b = net.create_endpoint("b", "employees", 4098)
        net.admit(a, 0, on_complete=None)
        net.edges[0].attach_endpoint  # API exists
        with pytest.raises(ConfigurationError):
            net.edges[0].attach_endpoint(b, port=a.port)

    def test_acl_rules_downloaded_for_destination_group(self, small_fabric):
        net = small_fabric
        printer = net.create_endpoint("p", "printers", 4098)
        admit_and_settle(net, printer, 0)
        edge = net.edges[0]
        # employees -> printers allow is destination-side for printers.
        assert edge.acl.version_of(10, 20) is not None


class TestDataPlane:
    def test_local_delivery_same_edge(self, small_fabric):
        net = small_fabric
        a = net.create_endpoint("a", "employees", 4098)
        p = net.create_endpoint("p", "printers", 4098)
        admit_and_settle(net, a, 0)
        admit_and_settle(net, p, 0)
        net.send(a, p)
        net.settle()
        assert p.packets_received == 1
        assert net.edges[0].counters.local_deliveries == 1
        assert net.edges[0].counters.encapsulated == 0

    def test_first_packet_via_border_then_direct(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        edge0 = net.edges[0]
        net.send(alice, printer)
        net.settle()
        assert printer.packets_received == 1
        assert edge0.counters.to_border_default == 1
        assert net.borders[0].counters.relayed_to_edge == 1
        net.send(alice, printer)
        net.settle()
        assert printer.packets_received == 2
        assert edge0.counters.to_border_default == 1   # second went direct
        assert edge0.fib_occupancy() == 1

    def test_policy_drop_at_egress(self, small_fabric):
        net = small_fabric
        cam = net.create_endpoint("cam", "cameras", 4098)
        printer = net.create_endpoint("p", "printers", 4098)
        admit_and_settle(net, cam, 0)
        admit_and_settle(net, printer, 1)
        net.send(cam, printer)   # cameras -> printers has no allow rule
        net.settle()
        net.send(cam, printer)
        net.settle()
        assert printer.packets_received == 0
        assert net.total_policy_drops() >= 1

    def test_same_group_traffic_allowed(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        net.send(alice, bob)
        net.settle()
        assert bob.packets_received == 1

    def test_unknown_destination_negative_cache(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        from repro.net.addresses import IPv4Address
        ghost = IPv4Address.parse("10.1.99.99")
        net.send(alice, ghost)
        net.settle()
        edge0 = net.edges[0]
        assert net.routing_server.stats.negative_replies >= 1
        # Negative entry present, does not count as FIB occupancy.
        entry = edge0.map_cache.lookup(alice.vn, ghost)
        assert entry is not None and entry.negative
        assert edge0.fib_occupancy() == 0

    def test_local_delivery_lost_in_the_port_window_is_counted(
            self, small_fabric):
        net = small_fabric
        registry = obs.enable(net, tracing=False).metrics
        a = net.create_endpoint("a", "employees", 4098)
        p = net.create_endpoint("p", "printers", 4098)
        admit_and_settle(net, a, 0)
        admit_and_settle(net, p, 0)
        edge = net.edges[0]
        net.send(a, p, count=2)
        net.send(a, p, count=3, as_train=True)
        net.depart(p)                # leaves before PORT_DELAY_S is up
        net.settle()
        assert edge.counters.local_deliveries == 5
        assert p.packets_received == 0
        assert edge.port_drops == 5
        assert "port_drops" not in edge.counters.as_dict()
        gauges = registry.snapshot()["gauges"]
        assert gauges[edge.name + ".port_drops"] == 5


class TestMobility:
    def test_roam_updates_location(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        net.roam(alice, 3)
        net.settle()
        assert alice.edge is net.edges[3]
        record = net.routing_server.database.lookup(
            alice.vn, alice.ip
        )
        assert record.rloc == net.edges[3].rloc

    def test_roam_keeps_ip(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        ip_before = alice.ip
        net.roam(alice, 2)
        net.settle()
        assert alice.ip == ip_before

    def test_old_edge_learns_new_location(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        old_edge = alice.edge
        net.roam(alice, 3)
        net.settle()
        assert old_edge.counters.notifies_received >= 1
        entry = old_edge.map_cache.lookup(alice.vn, alice.ip)
        assert entry is not None and entry.rloc == net.edges[3].rloc

    def test_traffic_follows_after_roam(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        net.send(bob, alice)
        net.settle()
        assert alice.packets_received == 1
        net.roam(alice, 3)
        net.settle()
        net.send(bob, alice)
        net.settle()
        assert alice.packets_received == 2

    def test_packets_sent_before_reauthorization_are_counted(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        registry = obs.enable(net, tracing=False).metrics
        net.roam(alice, 3)           # attached, but onboarding has not run yet
        net.send(alice, bob, count=2)
        net.send(alice, bob, count=3, as_train=True)
        new_edge = net.edges[3]
        assert new_edge.pre_auth_drops == 5
        assert new_edge.counters.packets_in == 0
        net.settle()
        net.send(alice, bob, count=2)
        net.settle()
        # Conservation closes: every packet is delivered or has a reason.
        assert alice.packets_sent == 7
        assert bob.packets_received == 2
        assert sum(edge.pre_auth_drops for edge in net.edges) == 5
        assert "pre_auth_drops" not in new_edge.counters.as_dict()
        gauges = registry.snapshot()["gauges"]
        assert gauges[new_edge.name + ".pre_auth_drops"] == 5

    def test_packets_sent_into_a_rebooting_edge_are_counted(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        alice.edge.reboot(duration_s=5.0)
        net.send(alice, bob, count=4)
        assert alice.edge.pre_auth_drops == 4
        assert bob.packets_received == 0

    @pytest.mark.parametrize("megaflow", [False, True])
    def test_data_reaching_a_rebooting_edge_is_counted(self, megaflow):
        net = FabricNetwork(FabricConfig(num_edges=2, seed=7,
                                         megaflow=megaflow))
        net.define_vn("corp", 4098, "10.1.0.0/16")
        net.define_group("employees", 10, 4098)
        net.allow("employees", "employees")
        a = net.create_endpoint("a", "employees", 4098)
        b = net.create_endpoint("b", "employees", 4098)
        admit_and_settle(net, a, 0)
        admit_and_settle(net, b, 1)
        for _ in range(2):           # resolved, then (megaflow) cached
            net.send(a, b.ip)
            net.settle()
        source, target = net.edges
        encapsulated = source.counters.encapsulated
        # Still announced in the IGP, so edge 0 keeps encapsulating to it.
        target.reboot(silent_in_igp=False)
        net.send(a, b.ip, count=4)
        net.send(a, b.ip, count=3, as_train=True)
        net.run_for(1.0)
        assert source.counters.encapsulated - encapsulated == 7
        assert b.packets_received == 2
        assert target.pre_auth_drops == 7
        assert target.counters.packets_in == 0

    def test_smr_corrects_stale_sender(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        # Warm bob's edge cache towards alice.
        net.send(bob, alice)
        net.settle()
        bob_edge = bob.edge
        old_alice_edge = alice.edge
        net.roam(alice, 3)
        net.settle()
        # Bob's cache is stale; sending triggers old-edge redirect + SMR.
        net.send(bob, alice)
        net.settle()
        assert alice.packets_received == 2
        assert old_alice_edge.counters.smr_sent >= 1
        assert bob_edge.counters.smr_received >= 1
        # After the SMR round-trip the cache points at the new edge.
        entry = bob_edge.map_cache.lookup(alice.vn, alice.ip)
        assert entry is not None and entry.rloc == net.edges[3].rloc


class TestReauth:
    def test_reauth_updates_group(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        net.move_endpoint_group(alice, "printers")
        net.settle()
        assert int(alice.group) == 20
        entry = alice.edge.vrf.lookup_identity("alice")
        assert int(entry.group) == 20

    def test_reauth_detached_rejected(self, populated_fabric):
        net, alice, bob, printer = populated_fabric
        net.depart(alice)
        net.settle()
        with pytest.raises(ConfigurationError):
            net.edges[0].reauthenticate(alice)
