"""DHCP: per-VN overlay address pools.

Step 3 of host onboarding (fig. 3): after authentication the edge obtains
an overlay IP for the endpoint from a DHCP server.  Address stability
across roams matters — L3 mobility means the endpoint *keeps* its IP when
it moves, so leases are keyed by client identity, and a re-attach returns
the existing lease.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.net.addresses import IPv6Address, Prefix


class DhcpPool:
    """One VN's address pool carved from an overlay prefix."""

    def __init__(self, vn, prefix, first_offset=10):
        self.vn = vn
        if not isinstance(prefix, Prefix):
            prefix = Prefix.parse(prefix)
        self.prefix = prefix
        self._next = first_offset
        self._space = 1 << (prefix.bits - prefix.length)
        self._leases = {}      # identity -> address
        self._released = []    # free list from released leases

    def __len__(self):
        return len(self._leases)

    def lease(self, identity):
        """Allocate (or return the existing) address for an identity."""
        existing = self._leases.get(identity)
        if existing is not None:
            return existing
        if self._released:
            address = self._released.pop()
        else:
            if self._next >= self._space - 1:
                raise ConfigurationError(
                    "DHCP pool %s exhausted (%d leases)" % (self.prefix, len(self._leases))
                )
            address = next(self.prefix.hosts(1, offset=self._next))
            self._next += 1
        self._leases[identity] = address
        return address

    def release(self, identity):
        address = self._leases.pop(identity, None)
        if address is not None:
            self._released.append(address)
        return address

class DhcpServer:
    """All pools, keyed by VN; also hands out derived IPv6 addresses.

    The IPv6 address is synthesized from a per-fabric prefix plus the v4
    host bits — endpoints register three EIDs (v4, v6, MAC) with the
    routing server, and this keeps the three trivially correlated for
    debugging while exercising the 128-bit trie paths.
    """

    def __init__(self, ipv6_base="2001:db8::", ipv6_prefix_len=64):
        self._pools = {}
        self._ipv6_base = IPv6Address.parse(ipv6_base)
        self._ipv6_prefix_len = ipv6_prefix_len

    def add_pool(self, vn, prefix, first_offset=10):
        key = int(vn)
        if key in self._pools:
            raise ConfigurationError("duplicate DHCP pool for VN %d" % key)
        pool = DhcpPool(vn, prefix, first_offset=first_offset)
        self._pools[key] = pool
        return pool

    def pool(self, vn):
        try:
            return self._pools[int(vn)]
        except KeyError:
            raise ConfigurationError("no DHCP pool for VN %r" % vn)

    def lease(self, vn, identity):
        """Allocate a (v4, v6) pair for an identity in a VN."""
        ipv4 = self.pool(vn).lease(identity)
        ipv6 = IPv6Address(
            (int(self._ipv6_base) & ~((1 << 64) - 1))
            | (int(vn) << 32)
            | int(ipv4)
        )
        return ipv4, ipv6

    def release(self, vn, identity):
        return self.pool(vn).release(identity)

    def total_leases(self):
        return sum(len(pool) for pool in self._pools.values())
