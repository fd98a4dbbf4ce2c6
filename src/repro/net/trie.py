"""Patricia (radix) trie for longest-prefix matching.

The paper explains why the routing server's delay is flat in the number of
routes (sec. 4.1): "this architecture is designed to store network state
hierarchically, it makes it easy to implement the routing server with a
Patricia Trie.  The delay of this data structure depends on the number of
bits of the keys, not the number of elements."

This module implements that structure: a path-compressed binary trie keyed
by :class:`repro.net.addresses.Prefix`.  Lookup cost is O(key bits)
regardless of occupancy, which is exactly the property Fig. 7a/7b measure.

Full-length prefixes (every endpoint EID) sit beside the nodes in an
exact-match dict keyed by the address value, as a switch ASIC splits its
host table from its LPM table; nodes hold only shorter prefixes.  Both
sides stay occupancy-independent: a fixed-width key hashes in constant
time, and the descent, rid of the host leaves and their split nodes, is
still at most one step per key bit.

The trie is family-specific — one trie per (VN, address family) in the
routing server — because mixing 32/48/128-bit keys in one tree would break
prefix semantics.  The family check runs before the host-table probe, so
a colliding int of another family matches nothing.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.net.addresses import Prefix


class _Node:
    """Internal trie node.

    ``key`` is the canonical address value (host bits zero) of the path
    from the root down to this node and ``length`` its bit count, always
    short of a host route — plain ints, so a descent is shifts and
    compares.  ``prefix`` is the caller's :class:`Prefix`, set only while
    a route is stored here; a split node has none.  ``zero``/``one`` are
    the children selected by the first bit after ``length``.
    """

    __slots__ = ("key", "length", "prefix", "value", "zero", "one")

    def __init__(self, key, length, prefix=None, value=None):
        self.key = key
        self.length = length
        self.prefix = prefix
        self.value = value
        self.zero = None
        self.one = None


class PatriciaTrie:
    """A path-compressed binary trie mapping prefixes to values.

    Supports exact insert/delete and longest-prefix-match lookup.  All keys
    must belong to the same address family (enforced on first insert); a
    query with a key of another family (another width) matches nothing.
    """

    #: ``_hosts``: address value -> ``(prefix, value)``; ``_size``: node routes
    __slots__ = ("_root", "_family", "_size", "_hosts")

    def __init__(self, family=None):
        self._root = None
        self._family = family
        self._size = 0
        self._hosts = {}

    def __len__(self):
        return self._size + len(self._hosts)

    def __bool__(self):
        return self._size > 0 or bool(self._hosts)

    @property
    def family(self):
        return self._family

    # -- mutation -------------------------------------------------------------
    def insert(self, prefix, value):
        """Insert or replace the value stored at exactly ``prefix``.

        Returns the value it displaced, ``None`` when the prefix is new.
        A replace keeps the first stored :class:`Prefix` object.
        """
        if not isinstance(prefix, Prefix):
            raise ConfigurationError("trie keys must be Prefix, got %r" % (prefix,))
        address = prefix.address
        if self._family is None:
            self._family = address.family
        elif address.family != self._family:
            raise ConfigurationError(
                "trie holds %s keys, got %s" % (self._family, address.family)
            )
        bits = address.bits
        key = address.value
        length = prefix.length
        if length == bits:
            hosts = self._hosts
            stored = hosts.get(key)
            if stored is None:
                hosts[key] = (prefix, value)
                return None
            hosts[key] = (stored[0], value)
            return stored[1]
        node = self._root
        if node is None:
            self._root = _Node(key, length, prefix, value)
            self._size = 1
            return None
        parent = None
        while True:
            node_length = node.length
            shared = node_length if node_length < length else length
            diff = (key ^ node.key) >> (bits - shared)
            if diff:
                shared -= diff.bit_length()
            elif node_length == length:
                displaced = node.value
                if node.prefix is None:
                    node.prefix = prefix
                    self._size += 1
                node.value = value
                return displaced
            elif node_length < length:
                # Descend into the child selected by the next key bit.
                parent = node
                branch = (key >> (bits - 1 - node_length)) & 1
                node = node.one if branch else node.zero
                if node is None:
                    node = _Node(key, length, prefix, value)
                    break
                continue
            # Split: an intermediate node at the divergence point adopts
            # the old node; it holds the new route itself when the new
            # key ends there, else a second leaf does.
            host_bits = bits - shared
            split = _Node((key >> host_bits) << host_bits, shared)
            if (node.key >> (host_bits - 1)) & 1:
                split.one = node
            else:
                split.zero = node
            if shared == length:
                split.prefix, split.value = prefix, value
            elif (key >> (host_bits - 1)) & 1:
                split.one = _Node(key, length, prefix, value)
            else:
                split.zero = _Node(key, length, prefix, value)
            node = split
            break
        if parent is None:
            self._root = node
        elif branch:
            parent.one = node
        else:
            parent.zero = node
        self._size += 1
        return None

    def delete(self, prefix):
        """Remove the exact ``prefix``; returns True if it was present."""
        address = prefix.address
        if address.family != self._family:
            return False
        bits = address.bits
        key = address.value
        length = prefix.length
        if length == bits:
            return self._hosts.pop(key, None) is not None
        grand = parent = None
        node = self._root
        if node is None:
            return False
        while True:
            node_length = node.length
            if node_length > length or (key ^ node.key) >> (bits - node_length):
                return False
            if node_length == length:
                break
            child = node.one if (key >> (bits - 1 - node_length)) & 1 else node.zero
            if child is None:
                return False
            grand, parent, node = parent, node, child
        if node.prefix is None:
            return False
        node.prefix = node.value = None
        self._size -= 1
        # Restore path compression: a valueless node keeps two children.
        if node.zero is None or node.one is None:
            child = node.zero or node.one
            self._replace(parent, node, child)
            if child is None and parent is not None and parent.prefix is None:
                # A leaf went away, so its valueless parent is left with
                # one child: splice that one up.
                self._replace(grand, parent, parent.zero or parent.one)
        return True

    def _replace(self, parent, node, successor):
        """Put ``successor`` (maybe ``None``) where ``node`` hangs."""
        if parent is None:
            self._root = successor
        elif parent.one is node:
            parent.one = successor
        else:
            parent.zero = successor

    def clear(self):
        self._root = None
        self._size = 0
        self._hosts = {}

    # -- queries ---------------------------------------------------------------
    def lookup_exact(self, prefix):
        """Return the value at exactly ``prefix`` or ``None``."""
        stored = self._find(prefix)
        return stored[1] if stored is not None else None

    def __contains__(self, prefix):
        return self._find(prefix) is not None

    def _find(self, prefix):
        """The stored ``(prefix, value)`` for exactly ``prefix``, or ``None``."""
        address = prefix.address
        if address.family != self._family:
            return None
        bits = address.bits
        key = address.value
        length = prefix.length
        if length == bits:
            return self._hosts.get(key)
        node = self._root
        while node is not None:
            node_length = node.length
            if node_length > length or (key ^ node.key) >> (bits - node_length):
                return None
            if node_length == length:
                return (node.prefix, node.value) if node.prefix is not None else None
            node = node.one if (key >> (bits - 1 - node_length)) & 1 else node.zero
        return None

    def lookup_longest(self, address):
        """Longest-prefix match for an address (or a prefix).

        Returns ``(prefix, value)`` of the most specific covering route, or
        ``None`` when nothing matches (not even a default route).
        """
        if isinstance(address, Prefix):
            length = address.length
            address = address.address
            bits = address.bits
        else:
            length = bits = address.bits
        if address.family != self._family:
            return None
        key = address.value
        if length == bits:
            stored = self._hosts.get(key)
            if stored is not None:
                return stored
        best = None
        node = self._root
        while node is not None:
            node_length = node.length
            if node_length > length or (key ^ node.key) >> (bits - node_length):
                break
            if node.prefix is not None:
                best = node
            if node_length == length:
                break
            node = node.one if (key >> (bits - 1 - node_length)) & 1 else node.zero
        if best is None:
            return None
        return best.prefix, best.value

    def items(self):
        """Yield ``(prefix, value)`` pairs, ascending by (value, length)."""
        hosts = self._hosts
        host_keys = sorted(hosts)
        next_host = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node.prefix is not None:
                # Merge the sorted hosts into the walk: a host goes first iff
                # its value is smaller (at equal values the node is shorter).
                while next_host < len(host_keys) and host_keys[next_host] < node.key:
                    yield hosts[host_keys[next_host]]
                    next_host += 1
                yield node.prefix, node.value
            if node.one is not None:
                stack.append(node.one)
            if node.zero is not None:
                stack.append(node.zero)
        for key in host_keys[next_host:]:
            yield hosts[key]

    def keys(self):
        for prefix, _ in self.items():
            yield prefix

    def values(self):
        for _, value in self.items():
            yield value
