"""Model-based test: the Patricia trie against a brute-force prefix list.

One hypothesis state machine per address family interleaves insert /
replace / delete / ``lookup_longest`` (address and ``Prefix`` keys) /
``lookup_exact`` / ``in`` and, after every step, checks ``len`` and the
``items()`` order.  That order is load-bearing: the map-cache sweep and
``invalidate_rloc`` delete victims in it, which feeds simulated event
order and therefore every determinism digest.  It also checks that no
host route sits in a trie node: hosts live in the exact-match table.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.addresses import IPv4Address, IPv6Address, MacAddress, Prefix
from repro.net.trie import PatriciaTrie


def _values(bits):
    """Address ints: anywhere, or crowded at both ends of the key so
    that splits, ancestors and siblings actually happen."""
    crowded = st.builds(
        lambda top, low: (top << (bits - 3)) | low,
        st.integers(0, 7), st.integers(0, 7),
    )
    return st.one_of(st.integers(0, (1 << bits) - 1), crowded)


def _lengths(bits):
    return st.one_of(st.integers(0, bits),
                     st.sampled_from([0, 1, 2, 3, bits - 3, bits - 1, bits]))


class TrieOracle(RuleBasedStateMachine):
    address_cls = IPv4Address

    def __init__(self):
        super().__init__()
        self.trie = PatriciaTrie()
        self.model = []   # [(Prefix, value)], no two with equal prefixes

    # -- the oracle: linear scans over plain ints --------------------------------
    def _index(self, prefix):
        for index, (known, _value) in enumerate(self.model):
            if (known.length == prefix.length
                    and known.address.value == prefix.address.value):
                return index
        return None

    def _longest(self, value, length):
        bits = self.address_cls.bits
        best = None
        for known, stored in self.model:
            shift = bits - known.length
            if (known.length <= length
                    and known.address.value >> shift == value >> shift
                    and (best is None or known.length > best[0].length)):
                best = (known, stored)
        return best

    # -- rules ------------------------------------------------------------------------
    @rule(data=st.data(), stored=st.integers())
    def insert(self, data, stored):
        prefix = self._draw_prefix(data)
        displaced = self.trie.insert(prefix, stored)
        index = self._index(prefix)
        if index is None:
            assert displaced is None
            self.model.append((prefix, stored))
        else:
            assert displaced == self.model[index][1]
            self.model[index] = (self.model[index][0], stored)

    @rule(data=st.data())
    def delete_any(self, data):
        prefix = self._draw_prefix(data)
        index = self._index(prefix)
        assert self.trie.delete(prefix) == (index is not None)
        if index is not None:
            del self.model[index]

    @rule(data=st.data())
    def delete_present(self, data):
        if not self.model:
            return
        prefix, _stored = self.model.pop(
            data.draw(st.integers(0, len(self.model) - 1)))
        assert self.trie.delete(prefix)
        assert not self.trie.delete(prefix)

    @rule(data=st.data())
    def longest_by_address(self, data):
        address = self.address_cls(data.draw(_values(self.address_cls.bits)))
        expected = self._longest(address.value, address.bits)
        assert self.trie.lookup_longest(address) == expected
        assert self.trie.lookup_longest(address.to_prefix()) == expected

    @rule(data=st.data())
    def longest_by_prefix(self, data):
        prefix = self._draw_prefix(data)
        assert self.trie.lookup_longest(prefix) == self._longest(
            prefix.address.value, prefix.length)

    @rule(data=st.data())
    def exact(self, data):
        prefix = self._draw_prefix(data)
        index = self._index(prefix)
        assert (prefix in self.trie) == (index is not None)
        assert self.trie.lookup_exact(prefix) == (
            None if index is None else self.model[index][1])

    def _draw_prefix(self, data):
        bits = self.address_cls.bits
        return Prefix(self.address_cls(data.draw(_values(bits))),
                      data.draw(_lengths(bits)))

    # -- checked after every step --------------------------------------------------
    @invariant()
    def same_contents_in_depth_first_order(self):
        assert len(self.trie) == len(self.model)
        assert bool(self.trie) == bool(self.model)
        # Depth-first, zero branch first == ascending (network, length).
        expected = sorted(
            self.model, key=lambda item: (item[0].address.value, item[0].length))
        assert list(self.trie.items()) == expected
        assert list(self.trie.keys()) == [prefix for prefix, _ in expected]
        assert list(self.trie.values()) == [stored for _, stored in expected]

    @invariant()
    def host_routes_stay_out_of_the_descent(self):
        bits = self.address_cls.bits
        stack = [self.trie._root] if self.trie._root is not None else []
        while stack:
            node = stack.pop()
            assert node.length < bits
            stack.extend(child for child in (node.zero, node.one) if child is not None)


class Ipv6TrieOracle(TrieOracle):
    address_cls = IPv6Address


class MacTrieOracle(TrieOracle):
    address_cls = MacAddress


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)

TestIpv4TrieOracle = TrieOracle.TestCase
TestIpv4TrieOracle.settings = _SETTINGS
TestIpv6TrieOracle = Ipv6TrieOracle.TestCase
TestIpv6TrieOracle.settings = _SETTINGS
TestMacTrieOracle = MacTrieOracle.TestCase
TestMacTrieOracle.settings = _SETTINGS
