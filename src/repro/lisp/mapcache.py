"""The edge router's map-cache: reactively learned EID-to-RLOC state.

This *is* the edge router's overlay FIB: the number of live entries here
is what fig. 9 / table 5 count on edge routers.  Entries appear on demand
(Map-Reply), expire by TTL, and are invalidated by SMRs and Map-Notifies.

Negative entries cache "no such destination" replies with a short TTL —
the mechanism the paper invokes to explain nighttime FIB shrinkage in
building B (sec. 4.2: a resolution "with a negative result ... thereby
deleting that FIB entry").

Fast path
---------
``lookup`` runs once per data packet.  The per-(VN, family) trie
resolution is memoized — repeated lookups in the same VN/family skip the
dict probe and key-tuple allocation — and a host EID then resolves in the
trie's exact-match host table: one family check plus one dict probe.

``sweep`` and ``invalidate_rloc`` keep cheap per-trie indices — the
soonest expiry per trie (a lower bound, recomputed on sweep) and a live
count per RLOC — so periodic sweeps and IGP down-events short-circuit
tries that cannot contain a victim instead of walking every entry.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.net.addresses import Prefix
from repro.net.trie import PatriciaTrie


class MapCacheEntry:
    """One cached mapping (positive or negative)."""

    __slots__ = ("vn", "eid", "rloc", "group", "mac", "version", "expires_at",
                 "negative", "last_used")

    def __init__(self, vn, eid, rloc, group, version, expires_at, negative=False,
                 mac=None, last_used=0.0):
        self.vn = vn
        self.eid = eid
        self.rloc = rloc
        self.group = group
        self.mac = mac
        self.version = version
        self.expires_at = expires_at
        self.negative = negative
        self.last_used = last_used

    def __repr__(self):
        if self.negative:
            return "MapCacheEntry(vn=%d, %s, NEGATIVE)" % (self.vn, self.eid)
        return "MapCacheEntry(vn=%d, %s -> %s)" % (self.vn, self.eid, self.rloc)


class MapCache:
    """TTL-bound reactive cache keyed by (VN, EID prefix).

    Expiry is lazy (checked on access) plus a sweep hook the owner calls
    periodically — the same pattern real data planes use, and it keeps the
    event queue free of per-entry timers at 16k-endpoint scale.
    """

    __slots__ = ("sim", "default_ttl", "negative_ttl", "serve_stale_s",
                 "stale_hits", "_tries",
                 "hits", "misses", "expirations", "invalidations",
                 "_soonest", "_rloc_counts")

    def __init__(self, sim, default_ttl=1200.0, negative_ttl=15.0,
                 serve_stale_s=None):
        self.sim = sim
        self.default_ttl = default_ttl
        self.negative_ttl = negative_ttl
        #: stale-while-revalidate window (overload armor, default off):
        #: an expired *positive* entry is still returned for this many
        #: seconds past its TTL — flagged stale via ``expires_at`` so
        #: the caller re-resolves — instead of being deleted on access.
        #: Negative entries never outlive their TTL.
        self.serve_stale_s = serve_stale_s
        self.stale_hits = 0
        self._tries = {}   # (vn, family) -> PatriciaTrie of MapCacheEntry
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.invalidations = 0
        #: per-trie soonest expiry (lower bound; refreshed on sweep)
        self._soonest = {}
        #: per-trie {rloc: live positive entries} for invalidate_rloc
        self._rloc_counts = {}

    def __len__(self):
        """Live (unexpired) positive entries — the FIB occupancy metric."""
        return self.occupancy()

    def _trie(self, vn, family, create=False):
        key = (vn, family)
        trie = self._tries.get(key)
        if trie is None and create:
            trie = self._tries[key] = PatriciaTrie(family)
        return trie

    # -- index bookkeeping ---------------------------------------------------------------
    def _note_added(self, key, entry, replaced):
        if replaced is not None:
            self._note_removed(key, replaced)
        if not entry.negative and entry.rloc is not None:
            counts = self._rloc_counts.get(key)
            if counts is None:
                counts = self._rloc_counts[key] = {}
            counts[entry.rloc] = counts.get(entry.rloc, 0) + 1
        soonest = self._soonest.get(key)
        if soonest is None or entry.expires_at < soonest:
            self._soonest[key] = entry.expires_at

    def _note_removed(self, key, entry):
        # _soonest is a lower bound: a removal can only make the true
        # soonest later, which costs at most one wasted sweep walk.
        if not entry.negative and entry.rloc is not None:
            counts = self._rloc_counts.get(key)
            if counts is not None:
                remaining = counts.get(entry.rloc, 0) - 1
                if remaining <= 0:
                    counts.pop(entry.rloc, None)
                else:
                    counts[entry.rloc] = remaining

    # -- population ----------------------------------------------------------------------
    def install(self, vn, eid, rloc, group=None, version=1, ttl=None, mac=None):
        """Install a positive mapping learned from a Map-Reply or Notify.

        Stale versions (lower than what is cached) are ignored, so an
        out-of-order reply cannot overwrite a newer mobility update.
        Returns True if the entry was installed.
        """
        if not isinstance(eid, Prefix):
            raise ConfigurationError("map-cache EID must be a Prefix")
        trie = self._trie(vn, eid.family, create=True)
        existing = trie.lookup_exact(eid)
        if existing is not None and not existing.negative and existing.version > version:
            return False
        expires = self.sim.now + (self.default_ttl if ttl is None else ttl)
        entry = MapCacheEntry(vn, eid, rloc, group, version, expires, mac=mac,
                              last_used=self.sim.now)
        trie.insert(eid, entry)
        self._note_added((vn, eid.family), entry, existing)
        return True

    def install_negative(self, vn, eid, ttl=None):
        """Cache a negative reply (destination unknown)."""
        trie = self._trie(vn, eid.family, create=True)
        expires = self.sim.now + (self.negative_ttl if ttl is None else ttl)
        entry = MapCacheEntry(vn, eid, None, None, 0, expires, negative=True,
                              last_used=self.sim.now)
        existing = trie.insert(eid, entry)
        self._note_added((vn, eid.family), entry, existing)

    # -- lookup ---------------------------------------------------------------------------
    def lookup(self, vn, address):
        """Longest-prefix match; returns a live entry or ``None``.

        Expired entries encountered on the path are deleted.  Negative
        entries are returned (callers check ``entry.negative``) so the
        data plane can distinguish "miss, resolve it" from "known absent,
        use default route without re-querying".
        """
        now = self.sim.now
        family = address.family
        # _trie without its frame: ids hash in C, so the probe is one
        # dict lookup on a (vn, family) tuple
        trie = self._tries.get((vn, family))
        if trie is None:
            self.misses += 1
            return None
        hit = trie.lookup_longest(address)
        if hit is None:
            self.misses += 1
            return None
        prefix, entry = hit
        if entry.expires_at <= now:
            if (self.serve_stale_s is not None and not entry.negative
                    and entry.expires_at + self.serve_stale_s > now):
                # Degraded mode: serve the expired mapping (the caller
                # sees expires_at <= now and re-resolves) rather than
                # blackholing while the map server is drowning.
                entry.last_used = now
                self.hits += 1
                self.stale_hits += 1
                return entry
            trie.delete(prefix)
            self._note_removed((vn, family), entry)
            self.expirations += 1
            self.misses += 1
            return None
        entry.last_used = now
        self.hits += 1
        return entry

    def invalidate(self, vn, eid):
        """Drop the exact entry (SMR handling); returns True if present."""
        trie = self._trie(vn, eid.family)
        if trie is None:
            return False
        entry = trie.lookup_exact(eid)
        if entry is None:
            return False
        trie.delete(eid)
        self._note_removed((vn, eid.family), entry)
        self.invalidations += 1
        return True

    def invalidate_rloc(self, rloc):
        """Drop every entry pointing at an RLOC (underlay outage, sec. 5.1).

        Returns the number of entries removed.  Tries whose RLOC index
        shows no entry for ``rloc`` are skipped without a walk — the
        common case when an IGP down-event fans out to every edge.
        """
        removed = 0
        for key, trie in self._tries.items():
            counts = self._rloc_counts.get(key)
            if not counts or rloc not in counts:
                continue
            victims = [
                (prefix, entry) for prefix, entry in trie.items()
                if not entry.negative and entry.rloc == rloc
            ]
            for prefix, entry in victims:
                trie.delete(prefix)
                self._note_removed(key, entry)
                removed += 1
        self.invalidations += removed
        return removed

    def sweep(self):
        """Remove every expired entry; returns how many were dropped.

        Called periodically by the owning router (and by the FIB samplers
        before counting, mirroring how the paper's CLI collection read
        current state).  Tries whose soonest-expiry bound lies in the
        future are skipped entirely.
        """
        now = self.sim.now
        grace = self.serve_stale_s if self.serve_stale_s is not None else 0.0
        removed = 0
        for key, trie in self._tries.items():
            soonest = self._soonest.get(key)
            if soonest is None or soonest > now:
                continue
            victims = []
            next_soonest = None
            for prefix, entry in trie.items():
                # Positive entries get the stale-while-revalidate grace
                # before a sweep may purge them (zero when the knob is
                # off); negative entries never outlive their TTL.
                deadline = entry.expires_at
                if grace and not entry.negative:
                    deadline += grace
                if deadline <= now:
                    victims.append((prefix, entry))
                elif next_soonest is None or deadline < next_soonest:
                    next_soonest = deadline
            for prefix, entry in victims:
                trie.delete(prefix)
                self._note_removed(key, entry)
                removed += 1
            if next_soonest is None:
                self._soonest.pop(key, None)
            else:
                self._soonest[key] = next_soonest
        self.expirations += removed
        return removed

    def entries(self, include_negative=False):
        """Yield live entries (positive only unless asked otherwise)."""
        now = self.sim.now
        for trie in self._tries.values():
            for _prefix, entry in trie.items():
                if entry.expires_at <= now:
                    continue
                if entry.negative and not include_negative:
                    continue
                yield entry

    def occupancy(self, family=None, vn=None):
        """Count live positive entries, optionally per family/VN."""
        now = self.sim.now
        total = 0
        for (trie_vn, trie_family), trie in self._tries.items():
            if family is not None and trie_family != family:
                continue
            if vn is not None and trie_vn != vn:
                continue
            for _prefix, entry in trie.items():
                if not entry.negative and entry.expires_at > now:
                    total += 1
        return total
