"""Unit tests for the Patricia trie."""

import pytest

from repro.core.errors import ConfigurationError
from repro.net.addresses import IPv4Address, IPv6Address, MacAddress, Prefix
from repro.net.trie import PatriciaTrie


@pytest.fixture
def trie():
    return PatriciaTrie()


def P(text):
    return Prefix.parse(text)


def A(text):
    return IPv4Address.parse(text)


class TestInsertLookup:
    def test_insert_and_exact(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.lookup_exact(P("10.0.0.0/8")) == "a"
        assert trie.lookup_exact(P("10.0.0.0/9")) is None

    def test_replace_value(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.0.0.0/8"), "b")
        assert trie.lookup_exact(P("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_insert_returns_the_displaced_value(self, trie):
        assert trie.insert(P("10.0.0.0/24"), "x") is None      # empty trie
        assert trie.insert(P("10.0.1.0/24"), "y") is None      # new leaf + split
        assert trie.insert(P("10.0.0.0/23"), "split") is None  # fills the split node
        assert trie.insert(P("10.0.0.0/16"), "up") is None     # new node above
        assert trie.insert(P("10.0.0.0/23"), "again") == "split"
        assert trie.insert(P("10.0.0.0/24"), "z") == "x"
        trie.delete(P("10.0.0.0/24"))
        assert trie.insert(P("10.0.0.0/24"), "back") is None
        assert len(trie) == 4

    def test_longest_prefix_match(self, trie):
        trie.insert(P("10.0.0.0/8"), "short")
        trie.insert(P("10.1.0.0/16"), "mid")
        trie.insert(P("10.1.2.0/24"), "long")
        assert trie.lookup_longest(A("10.1.2.3"))[1] == "long"
        assert trie.lookup_longest(A("10.1.9.3"))[1] == "mid"
        assert trie.lookup_longest(A("10.9.9.9"))[1] == "short"
        assert trie.lookup_longest(A("11.0.0.1")) is None

    def test_default_route_matches_everything(self, trie):
        trie.insert(P("0.0.0.0/0"), "default")
        assert trie.lookup_longest(A("203.0.113.9"))[1] == "default"

    def test_host_routes(self, trie):
        trie.insert(P("10.0.0.1/32"), "host1")
        trie.insert(P("10.0.0.2/32"), "host2")
        assert trie.lookup_longest(A("10.0.0.1"))[1] == "host1"
        assert trie.lookup_longest(A("10.0.0.2"))[1] == "host2"
        assert trie.lookup_longest(A("10.0.0.3")) is None

    def test_contains(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        assert P("10.0.0.0/8") in trie
        assert P("10.0.0.0/16") not in trie

    def test_intermediate_split_nodes_hold_no_value(self, trie):
        # 10.0.0.0/24 and 10.0.1.0/24 share a /23 split point.
        trie.insert(P("10.0.0.0/24"), "x")
        trie.insert(P("10.0.1.0/24"), "y")
        assert trie.lookup_exact(P("10.0.0.0/23")) is None
        assert len(trie) == 2

    def test_value_on_split_point_insert(self, trie):
        trie.insert(P("10.0.0.0/24"), "x")
        trie.insert(P("10.0.1.0/24"), "y")
        trie.insert(P("10.0.0.0/23"), "split")
        assert trie.lookup_exact(P("10.0.0.0/23")) == "split"
        assert trie.lookup_longest(A("10.0.0.5"))[1] == "x"
        assert len(trie) == 3


class TestDelete:
    def test_delete_present(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.delete(P("10.0.0.0/8"))
        assert len(trie) == 0
        assert trie.lookup_longest(A("10.0.0.1")) is None

    def test_delete_absent(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        assert not trie.delete(P("10.0.0.0/16"))
        assert not trie.delete(P("11.0.0.0/8"))
        assert len(trie) == 1

    def test_delete_keeps_covering_route(self, trie):
        trie.insert(P("10.0.0.0/8"), "short")
        trie.insert(P("10.1.0.0/16"), "long")
        trie.delete(P("10.1.0.0/16"))
        assert trie.lookup_longest(A("10.1.2.3"))[1] == "short"

    def test_delete_collapses_split_nodes(self, trie):
        trie.insert(P("10.0.0.0/24"), "x")
        trie.insert(P("10.0.1.0/24"), "y")
        trie.delete(P("10.0.1.0/24"))
        assert trie.lookup_longest(A("10.0.0.5"))[1] == "x"
        assert trie.lookup_longest(A("10.0.1.5")) is None

    def test_insert_delete_stress(self, trie):
        prefixes = [P("10.%d.%d.0/24" % (i, j)) for i in range(10) for j in range(10)]
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        assert len(trie) == 100
        for prefix in prefixes[::2]:
            assert trie.delete(prefix)
        assert len(trie) == 50
        for index, prefix in enumerate(prefixes):
            expected = None if index % 2 == 0 else index
            assert trie.lookup_exact(prefix) == expected

    def test_clear(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        trie.clear()
        assert len(trie) == 0 and not trie


class TestFamilies:
    def test_family_locked_on_first_insert(self, trie):
        trie.insert(P("10.0.0.0/8"), "a")
        mac_prefix = MacAddress.parse("aa:bb:cc:dd:ee:ff").to_prefix()
        with pytest.raises(ConfigurationError):
            trie.insert(mac_prefix, "nope")

    def test_mac_trie(self):
        trie = PatriciaTrie()
        mac = MacAddress.parse("aa:bb:cc:dd:ee:ff")
        trie.insert(mac.to_prefix(), "dev")
        assert trie.lookup_longest(mac)[1] == "dev"
        other = MacAddress.parse("aa:bb:cc:dd:ee:fe")
        assert trie.lookup_longest(other) is None

    def test_non_prefix_key_rejected(self, trie):
        with pytest.raises(ConfigurationError):
            trie.insert("10.0.0.0/8", "a")

    def test_other_width_keys_match_nothing(self, trie):
        # A v4 trie whose root is a /0, so an unchecked descent *would*
        # reach value nodes with a 48- or 128-bit key.
        trie.insert(P("0.0.0.0/0"), "default")
        trie.insert(P("10.0.0.1/32"), "host")
        probes = [IPv6Address.parse("2001:db8::1"), IPv6Address(0x0A000001),
                  MacAddress.parse("aa:bb:cc:dd:ee:ff"), MacAddress(0x0A000001)]
        for probe in probes:
            assert trie.lookup_longest(probe) is None
            assert trie.lookup_longest(probe.to_prefix()) is None
            assert trie.lookup_longest(Prefix(probe, 0)) is None
            assert trie.lookup_exact(Prefix(probe, 0)) is None
            assert Prefix(probe, 0) not in trie
            assert not trie.delete(Prefix(probe, 0))
            assert not trie.delete(Prefix(probe, 32))
        assert len(trie) == 2
        assert trie.lookup_longest(A("10.0.0.1"))[1] == "host"

    def test_host_table_ignores_colliding_ints_of_other_families(self, trie):
        # The host table is keyed by the address int alone; the family
        # check in front of it is what keeps MAC 5 and IPv6 ::5 out.
        trie.insert(P("0.0.0.5/32"), "v4 host")
        for probe in (MacAddress(5), IPv6Address(5)):
            host = probe.to_prefix()
            assert trie.lookup_longest(probe) is None
            assert trie.lookup_longest(host) is None
            assert trie.lookup_exact(host) is None
            assert host not in trie
            assert not trie.delete(host)
        assert list(trie.items()) == [(P("0.0.0.5/32"), "v4 host")]
        assert len(trie) == 1


def _nodes(trie):
    stack = [trie._root] if trie._root is not None else []
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in (node.zero, node.one) if child is not None)


class TestStructure:
    def test_delete_leaves_no_valueless_single_child_node(self, trie):
        prefixes = [P("10.%d.%d.0/%d" % (i, j, length))
                    for i in range(4) for j in (0, 1, 128) for length in (23, 24)]
        prefixes += [P("0.0.0.0/0"), P("10.0.0.0/8"), P("10.2.0.0/16"), P("10.0.0.7/32")]
        prefixes = list(dict.fromkeys(prefixes))    # /23s canonicalize onto each other
        for prefix in prefixes:
            trie.insert(prefix, str(prefix))
        for victim in prefixes[::2] + prefixes[1::2]:
            assert trie.delete(victim)
            for node in _nodes(trie):
                assert node.length < 32     # host routes never take a node
                if node.prefix is None:
                    assert node.zero is not None and node.one is not None
                for child in (node.zero, node.one):
                    assert child is None or child.length > node.length
        assert trie._root is None and len(trie) == 0

    def test_host_only_trie_has_no_nodes(self, trie):
        assert not trie
        for index in range(1, 6):
            trie.insert(Prefix(IPv4Address(0x0A000000 + index), 32), index)
        assert trie._root is None
        assert len(trie) == 5 and trie
        for index in range(1, 6):
            assert trie.delete(Prefix(IPv4Address(0x0A000000 + index), 32))
        assert trie._root is None
        assert len(trie) == 0 and not trie

    def test_host_replace_keeps_the_first_prefix_object(self, trie):
        first, second = P("10.0.0.1/32"), P("10.0.0.1/32")
        assert first is not second
        trie.insert(P("10.0.0.0/8"), "aggregate")
        assert trie.insert(first, "a") is None
        assert trie.insert(second, "b") == "a"
        assert len(trie) == 2
        stored = [prefix for prefix, _ in trie.items() if prefix.is_host]
        assert len(stored) == 1 and stored[0] is first
        assert trie.lookup_longest(A("10.0.0.1"))[0] is first
        assert trie.lookup_exact(second) == "b"

    def test_split_node_is_never_exposed(self, trie):
        trie.insert(P("10.0.0.0/24"), "a")
        trie.insert(P("10.0.1.0/24"), "b")      # splits at 10.0.0.0/23
        assert P("10.0.0.0/23") not in trie
        assert trie.lookup_exact(P("10.0.0.0/23")) is None
        assert trie.lookup_longest(P("10.0.0.0/23")) is None
        assert not trie.delete(P("10.0.0.0/23"))
        assert [str(prefix) for prefix in trie.keys()] == ["10.0.0.0/24", "10.0.1.0/24"]

    def test_lookup_longest_allocates_no_keys(self, trie, keys_built):
        for index in range(64):
            trie.insert(Prefix(IPv4Address(0x0A000000 + index * 4), 30), index)
        targets = [IPv4Address(0x0A000000 + index) for index in range(256)]
        del keys_built[:]
        for target in targets:
            assert trie.lookup_longest(target)[1] == (target.value - 0x0A000000) // 4
        assert keys_built == []


class TestIteration:
    def test_items_yields_all(self, trie):
        inserted = {P("10.0.0.0/8"): "a", P("10.1.0.0/16"): "b", P("192.168.0.0/16"): "c"}
        for prefix, value in inserted.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == inserted
        assert set(trie.keys()) == set(inserted)
        assert sorted(trie.values()) == ["a", "b", "c"]

    def test_host_routes_merge_in_ascending_value_then_length(self, trie):
        order = ["9.255.255.255/32", "10.0.0.0/8", "10.0.0.0/24", "10.0.0.0/32",
                 "10.0.0.1/32", "10.0.1.0/24", "10.0.1.0/32", "11.0.0.0/32"]
        for text in reversed(order):
            trie.insert(P(text), text)
        assert [str(prefix) for prefix in trie.keys()] == order
        assert list(trie.values()) == order

    def test_empty_iteration(self, trie):
        assert list(trie.items()) == []
