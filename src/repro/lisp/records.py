"""Mapping records and the routing server's mapping database.

The database is organized exactly as the paper describes (sec. 4.1):
hierarchical state in Patricia tries, one per (VN, address family), keyed
by EID prefix.  Endpoints register three EIDs each — IPv4, IPv6 and MAC —
which is why the paper divides its 10k-route measurement by 3 to estimate
~3k endpoints per server.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.core.types import VNId
from repro.net.addresses import Prefix
from repro.net.trie import PatriciaTrie


class MappingRecord:
    """One EID-to-RLOC mapping held by the routing server.

    Attributes
    ----------
    vn / eid:
        The lookup key: a :class:`VNId` plus an EID :class:`Prefix`
        (host prefixes for endpoints; shorter prefixes are legal and used
        for aggregates like the border's external routes).
    rloc:
        Underlay address of the edge router currently serving the EID.
    group:
        The endpoint's GroupId (stored at registration, from onboarding).
    version:
        Bumped on every update; lets caches discard out-of-order refreshes.
    registered_at:
        Simulated time of the last register (0 when used outside a sim).
    ttl:
        Advisory cache lifetime in seconds for Map-Reply consumers.
    """

    __slots__ = ("vn", "eid", "rloc", "group", "mac", "version", "registered_at", "ttl")

    DEFAULT_TTL = 24 * 3600.0

    def __init__(self, vn, eid, rloc, group=None, mac=None, version=1,
                 registered_at=0.0, ttl=None):
        self.vn = vn if isinstance(vn, VNId) else VNId(vn)
        if not isinstance(eid, Prefix):
            raise ConfigurationError("EID must be a Prefix, got %r" % (eid,))
        self.eid = eid
        self.rloc = rloc
        self.group = group
        #: MAC of the endpoint owning an IP EID — the "overlay IP to MAC
        #: pairs in the routing server" of sec. 3.5 (L2/ARP services).
        self.mac = mac
        self.version = version
        self.registered_at = registered_at
        self.ttl = self.DEFAULT_TTL if ttl is None else ttl

    def copy(self):
        return MappingRecord(
            self.vn, self.eid, self.rloc, group=self.group, mac=self.mac,
            version=self.version, registered_at=self.registered_at, ttl=self.ttl,
        )

    def __repr__(self):
        return "MappingRecord(vn=%d, %s -> %s, v%d)" % (
            int(self.vn), self.eid, self.rloc, self.version
        )


class MappingDatabase:
    """Per-(VN, family) Patricia tries holding :class:`MappingRecord`.

    Endpoint EIDs are host prefixes: registering, unregistering or looking
    one up is a dict operation on its trie's host table (:mod:`repro.net.trie`).

    Pure data structure — no simulation, no messaging — so it can be
    benchmarked directly (fig. 7's object of study) and reused by both the
    routing server and the proactive BGP baseline's RIB.
    """

    def __init__(self):
        self._tries = {}   # (int(vn), family) -> PatriciaTrie
        #: version tombstones: last version ever issued per (vn, eid).
        #: Versions must stay monotonic across unregister/re-register
        #: cycles, or caches holding the pre-departure version reject
        #: the fresh mapping as stale (map-versioning semantics).
        self._versions = {}

    def __len__(self):
        return self.count()

    def _trie(self, vn, family, create=False):
        key = (int(vn), family)
        trie = self._tries.get(key)
        if trie is None and create:
            trie = PatriciaTrie(family)
            self._tries[key] = trie
        return trie

    def register(self, record):
        """Insert or update; returns the previous record or ``None``.

        The stored version is strictly greater than any version this
        database ever issued for the same (VN, EID) — including through
        unregister/re-register cycles.
        """
        trie = self._trie(record.vn, record.eid.family, create=True)
        key = (int(record.vn), record.eid)
        record.version = max(record.version,
                             self._versions.get(key, 0) + 1)
        previous = trie.insert(record.eid, record)
        self._versions[key] = record.version
        return previous

    def unregister(self, vn, eid, rloc=None):
        """Remove the exact mapping.

        When ``rloc`` is given, removal only happens if the stored record
        still points at that RLOC — protecting against an old edge
        deregistering an endpoint that already moved elsewhere.
        Returns the removed record or ``None``.
        """
        trie = self._trie(vn, eid.family)
        if trie is None:
            return None
        record = trie.lookup_exact(eid)
        if record is None:
            return None
        if rloc is not None and record.rloc != rloc:
            return None
        trie.delete(eid)
        return record

    def lookup(self, vn, eid_or_address):
        """Longest-prefix match inside a VN; returns a record or ``None``."""
        trie = self._trie(vn, eid_or_address.family)
        if trie is None:
            return None
        hit = trie.lookup_longest(eid_or_address)
        return hit[1] if hit else None

    def lookup_exact(self, vn, eid):
        trie = self._trie(vn, eid.family)
        if trie is None:
            return None
        return trie.lookup_exact(eid)

    def records(self, vn=None, family=None):
        """Yield all records, optionally filtered by VN and/or family."""
        for (trie_vn, trie_family), trie in self._tries.items():
            if vn is not None and trie_vn != int(vn):
                continue
            if family is not None and trie_family != family:
                continue
            for _prefix, record in trie.items():
                yield record

    def count(self, vn=None, family=None):
        """Records held, optionally per VN and/or family: O(#tries)."""
        return sum(len(trie) for (trie_vn, trie_family), trie in self._tries.items()
                   if (vn is None or trie_vn == int(vn))
                   and (family is None or trie_family == family))

    def adopt_versions(self, other):
        """Carry another database's version floor into this one.

        Used on a routing-server cold restart: records are volatile but
        the version counters must survive (stable-storage epoch), or
        post-restart registrations would re-issue versions that caches
        already hold and discard as stale.
        """
        for key, version in other._versions.items():
            if version > self._versions.get(key, 0):
                self._versions[key] = version

    def clear(self):
        self._tries = {}
        self._versions = {}
