"""Unit tests for endpoints, DHCP, and VRF tables."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.types import GroupId, VNId
from repro.fabric import DhcpServer, Endpoint, VrfTable
from repro.fabric.vrf import LocalEndpointEntry
from repro.net.addresses import IPv4Address, IPv6Address, MacAddress

VN = VNId(100)


class TestEndpoint:
    def test_initial_state(self):
        endpoint = Endpoint("alice", MacAddress(1))
        assert not endpoint.attached and not endpoint.onboarded

    def test_send_detached_raises(self):
        endpoint = Endpoint("alice", MacAddress(1))
        with pytest.raises(ConfigurationError):
            endpoint.send(None)

    def test_receive_updates_stats_and_sink(self):
        seen = []
        endpoint = Endpoint("alice", MacAddress(1),
                            sink=lambda e, p, t: seen.append(t))
        from repro.net.packet import Packet
        endpoint.receive(Packet(size=500), now=4.2)
        assert endpoint.packets_received == 1
        assert endpoint.bytes_received == 500
        assert endpoint.last_received_at == 4.2
        assert seen == [4.2]


class TestDhcp:
    def test_lease_stable_per_identity(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/24")
        ip1, v6_1 = dhcp.lease(VN, "alice")
        ip2, v6_2 = dhcp.lease(VN, "alice")
        assert ip1 == ip2 and v6_1 == v6_2

    def test_distinct_identities_distinct_leases(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/24")
        a, _ = dhcp.lease(VN, "alice")
        b, _ = dhcp.lease(VN, "bob")
        assert a != b

    def test_release_and_reuse(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/24")
        a, _ = dhcp.lease(VN, "alice")
        dhcp.release(VN, "alice")
        b, _ = dhcp.lease(VN, "bob")
        assert b == a   # released address recycled

    def test_pool_exhaustion(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/29", first_offset=1)
        # /29 leaves 6 usable offsets (network and broadcast excluded).
        for index in range(6):
            dhcp.lease(VN, "ep-%d" % index)
        with pytest.raises(ConfigurationError):
            dhcp.lease(VN, "one-too-many")

    def test_duplicate_pool_rejected(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/24")
        with pytest.raises(ConfigurationError):
            dhcp.add_pool(VN, "10.2.0.0/24")

    def test_missing_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            DhcpServer().lease(VN, "alice")

    def test_ipv6_encodes_vn_and_host(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/24")
        ipv4, ipv6 = dhcp.lease(VN, "alice")
        assert (int(ipv6) >> 32) & 0xFFFFFF == int(VN)
        assert int(ipv6) & 0xFFFFFFFF == int(ipv4)

    def test_total_leases(self):
        dhcp = DhcpServer()
        dhcp.add_pool(VN, "10.1.0.0/24")
        dhcp.lease(VN, "a")
        dhcp.lease(VN, "b")
        assert dhcp.total_leases() == 2


def _entry(identity="alice", ip="10.1.0.5", mac=1, group=7, port=1):
    endpoint = Endpoint(identity, MacAddress(mac))
    return LocalEndpointEntry(
        endpoint, VN, GroupId(group), port,
        IPv4Address.parse(ip), mac=endpoint.mac,
    )


def _dual_stack_vrf():
    vrf = VrfTable()
    entries = []
    for index in (1, 2):
        endpoint = Endpoint("host%d" % index, MacAddress(index))
        entries.append(vrf.add(LocalEndpointEntry(
            endpoint, VN, GroupId(7), index, IPv4Address(0x0A010000 + index),
            ipv6=IPv6Address(index), mac=endpoint.mac)))
    return vrf, entries


class TestVrf:
    def test_add_and_lookup_ip(self):
        vrf = VrfTable()
        entry = _entry()
        vrf.add(entry)
        assert vrf.lookup_ip(VN, IPv4Address.parse("10.1.0.5")) is entry
        assert vrf.lookup_ip(VN, IPv4Address.parse("10.1.0.6")) is None

    def test_vn_isolation(self):
        vrf = VrfTable()
        vrf.add(_entry())
        assert vrf.lookup_ip(VNId(999), IPv4Address.parse("10.1.0.5")) is None

    def test_lookup_mac(self):
        vrf = VrfTable()
        entry = _entry(mac=42)
        vrf.add(entry)
        assert vrf.lookup_mac(VN, MacAddress(42)) is entry

    def test_lookup_identity(self):
        vrf = VrfTable()
        entry = _entry()
        vrf.add(entry)
        assert vrf.lookup_identity("alice") is entry

    def test_duplicate_identity_rejected(self):
        vrf = VrfTable()
        vrf.add(_entry())
        with pytest.raises(ConfigurationError):
            vrf.add(_entry(ip="10.1.0.6", mac=2))

    def test_remove(self):
        vrf = VrfTable()
        vrf.add(_entry())
        removed = vrf.remove("alice")
        assert removed is not None
        assert len(vrf) == 0
        assert vrf.lookup_ip(VN, IPv4Address.parse("10.1.0.5")) is None
        assert vrf.remove("alice") is None

    def test_duplicate_ip_last_add_wins_and_any_remove_clears(self):
        # Two identities leasing one address (a stale entry racing a new
        # one): the index follows the last add, and removing either
        # entry clears the address — same as when the index was a trie.
        vrf = VrfTable()
        first, second = _entry("a", mac=1), _entry("b", mac=2)
        vrf.add(first)
        vrf.add(second)
        address = IPv4Address.parse("10.1.0.5")
        assert vrf.lookup_ip(VN, address) is second
        assert vrf.remove("a") is first
        assert vrf.lookup_ip(VN, address) is None
        assert vrf.lookup_identity("b") is second and len(vrf) == 1
        assert vrf.remove("b") is second

    def test_ipv6_keys(self):
        vrf, (first, second) = _dual_stack_vrf()
        assert vrf.lookup_ip(VN, second.ipv6) is second
        assert vrf.lookup_ip(VN, first.ip) is first
        # An IPv4 value never matches the IPv6 table.
        assert vrf.lookup_ip(VN, IPv6Address(first.ip.value)) is None
        vrf.remove("host2")
        assert vrf.lookup_ip(VN, second.ipv6) is None

    def test_mac_eid_is_not_an_ip_lookup(self):
        # Every endpoint registers a MAC EID, and notifies for it reach
        # lookup_ip; that is a no-match, not a walk of the IPv6 table.
        vrf, (first, _second) = _dual_stack_vrf()
        assert vrf.lookup_ip(VN, first.mac) is None
        assert vrf.lookup_ip(VN, MacAddress(first.ipv6.value)) is None
        assert vrf.lookup_mac(VN, first.mac) is first

    def test_lookup_ip_allocates_no_keys(self, keys_built):
        vrf = VrfTable()
        entry = vrf.add(_entry())
        hit, miss = IPv4Address.parse("10.1.0.5"), IPv4Address.parse("10.1.0.6")
        del keys_built[:]
        assert vrf.lookup_ip(VN, hit) is entry
        assert vrf.lookup_ip(VN, miss) is None
        assert keys_built == []

    def test_groups_present(self):
        vrf = VrfTable()
        vrf.add(_entry("a", "10.1.0.1", 1, group=7))
        vrf.add(_entry("b", "10.1.0.2", 2, group=9))
        vrf.add(_entry("c", "10.1.0.3", 3, group=7))
        assert vrf.groups_present() == {7, 9}

    def test_update_group(self):
        vrf = VrfTable()
        vrf.add(_entry())
        updated = vrf.update_group("alice", GroupId(99))
        assert int(updated.group) == 99
        assert vrf.update_group("ghost", GroupId(1)) is None

    def test_entries_filter_by_vn(self):
        vrf = VrfTable()
        vrf.add(_entry())
        assert len(list(vrf.entries(vn=VN))) == 1
        assert len(list(vrf.entries(vn=VNId(999)))) == 0
