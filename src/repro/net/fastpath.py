"""The data-plane fast path: an OVS-style megaflow cache.

Production VXLAN data planes do not run the full pipeline for every
packet: the first packet of a flow takes the slow path (trie resolution,
policy walk, header construction) and the complete forwarding decision
is memoized in a flow cache — Open vSwitch calls these *megaflows* —
that subsequent packets hit with a single table probe.  This module
reproduces that architecture for the simulated fabric.

A megaflow is keyed on ``(direction, VN, source GroupId, destination
EID)`` — the tuple that fully determines a forwarding decision in the
SDA pipeline (fig. 4): the VNI selects the VRF, the source group and the
destination's group decide policy, and the destination EID resolves the
RLOC.  The cached entry carries the decision's *outputs*: the action
kind, the resolved local entry or RLOC, the pre-built
:class:`~repro.net.vxlan.EncapTemplate`, and the policy verdict (so ACL
hit/drop ledgers can be replayed per packet-equivalent without
re-walking the table).

Correctness contract
--------------------
The cache is a pure memo: a hit must produce exactly what the slow path
would.  An entry records the destination address it was decided for
(``dst``), and the owning router tells the cache which state a
control-plane event touched, the way the OVS revalidator only revisits
the flows that depend on what changed.  A mobility update is selective
(sec. 3.4, fig. 5/6): it names one EID, so it costs that EID's entries
and nothing else.  :meth:`MegaflowCache.invalidate` is the scoped verb:
a prefix drops the entries of the destinations it covers, in every VN —
one address for a host EID, a site's worth for an aggregate.  That is
enough because every decision depends only on the longest match of its
own ``dst``, and a prefix moves the longest match of no address outside
it.

====================================  ==============  ==========================================
event                                 invalidates     why that is sufficient
====================================  ==============  ==========================================
endpoint/station installed, removed   its EIDs        the VRF holds host routes only, so only
or evicted locally (onboarding,                       decisions *for* those addresses read the
detach, wireless install/remove,                      entry; every add and remove invalidates,
the VRF eviction a Map-Notify does)                   so a cached ``local`` is always current
Map-Notify record, SMR, Map-Reply     that prefix's   an install moves the longest match of
(edge, positive or negative, host     destinations    exactly the addresses under its prefix;
or aggregate); ``PublishUpdate``                      the map-server answers a miss with the
(border, host or aggregate);                          requested host EID, so a negative reply
transit Map-Reply (border)                            costs one destination; stale-version
                                                      installs change nothing
external-route edit (border)          that prefix's   consulted only for a destination under
                                      destinations    the route's prefix
away register / unregister /          that EID        the away table is exact-match per
TTL release / adoption (border)                       (VN, host EID)
map-cache or transit-cache entry      nothing         the entry inherited ``expires_at``; the
ages out                                              slow path re-detects the expiry
endpoint's radio left, RLOC           nothing         re-checked on every hit: ``endpoint.edge``
unreachable without a message here                    identity; the entry's ``route.live``, a
                                                      dead route re-resolved, then its
                                                      ``reachable``
underlay or IGP change (attach,       every held      ``UnderlayNetwork`` ends the route epoch;
detach, announcement, link or node    ``Route`` dead  no entry goes, each hit re-resolves its
state, any IGP reachable-stub set)                    own route once
rule download (auth result, SXP)      nothing         ``GroupAcl.program`` reports no change;
that repeats the verdicts held                        verdicts are all an entry keeps of a rule
------------------------------------  --------------  ------------------------------------------
rule download that changes a verdict  **everything**  any source group's entry towards the
                                                      rule's destination group may hold it
group change on re-auth               **everything**  rewrites the VRF entry in place under
                                                      every verdict taken towards it, along
                                                      with another group's rule rows: an
                                                      operator action, not a mobility event
RLOC lost in the IGP, unreachable     **everything**  names an RLOC, not an EID: every entry
fallback, border failover                             resolved to it, or defaulting through it
reboot, border crash                  **everything**  all forwarding state is gone
capacity overflow                     **everything**  cheap, self-corrects key churn
====================================  ==============  ==========================================

The rows above the rule are scoped; ``flush`` survives only below it,
for events that name no prefix.  Entries installed without a ``dst``
are outside the index: only their TTL or a flush removes them.
"""

from __future__ import annotations

#: Megaflow action kinds.
ACT_LOCAL = 0    #: deliver to a locally attached endpoint (egress stage)
ACT_ENCAP = 1    #: VXLAN-encapsulate to a resolved RLOC via template
ACT_DROP = 2     #: policy drop decided at this router (ingress mode)
ACT_TRANSIT = 3  #: border only: re-encapsulate onto the inter-site transit

#: Key-space direction tags.
DIR_INGRESS = 0  #: decision for traffic entering the overlay here
DIR_EGRESS = 1   #: decision for decapsulated traffic arriving here


class MegaflowEntry:
    """One memoized forwarding decision."""

    __slots__ = ("action", "local", "rloc", "route", "template", "acl_key",
                 "acl_action", "expires_at", "dst")

    def __init__(self, action, local=None, rloc=None, route=None,
                 template=None, acl_key=None, acl_action=None,
                 expires_at=None, dst=None):
        self.action = action
        #: the VRF LocalEndpointEntry for ACT_LOCAL
        self.local = local
        #: target RLOC for ACT_ENCAP / ACT_TRANSIT
        self.rloc = rloc
        #: the underlay :class:`~repro.underlay.network.Route` to ``rloc``
        #: (the OVS output port): a hit re-resolves it once it is not
        #: ``live`` and never looks it up otherwise
        self.route = route
        #: EncapTemplate for ACT_ENCAP / ACT_TRANSIT
        self.template = template
        #: (src group int, dst group int) pair the verdict was taken on
        self.acl_key = acl_key
        #: PolicyAction this key resolved to when the entry was built
        self.acl_action = acl_action
        #: inherited map-cache / transit-cache expiry (None = no TTL applies)
        self.expires_at = expires_at
        #: destination address the decision was taken for — what
        #: :meth:`MegaflowCache.invalidate` finds the entry by
        self.dst = dst

    def __repr__(self):
        kind = {ACT_LOCAL: "local", ACT_ENCAP: "encap", ACT_DROP: "drop",
                ACT_TRANSIT: "transit"}
        return "MegaflowEntry(%s)" % kind.get(self.action, self.action)


class MegaflowCache:
    """Bounded decision memo with per-destination invalidation."""

    __slots__ = ("max_entries", "hits", "misses", "flushes", "invalidations",
                 "_entries", "_by_dst")

    def __init__(self, max_entries=4096):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.invalidations = 0
        self._entries = {}
        self._by_dst = {}     # entry.dst -> [keys of the live entries for it]

    def __len__(self):
        return len(self._entries)

    def lookup(self, key, now):
        """Return the live entry for ``key`` or ``None`` (counts stats)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        expires = entry.expires_at
        if expires is not None and expires <= now:
            # The underlying map-cache entry aged out; the slow path
            # must re-detect the expiry (it deletes the trie entry).
            self.drop(key)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def install(self, key, entry):
        if len(self._entries) >= self.max_entries:
            self.flush()
        else:
            self.drop(key)     # a re-decided key leaves the index first
        self._entries[key] = entry
        if entry.dst is not None:
            self._by_dst.setdefault(entry.dst, []).append(key)
        return entry

    def drop(self, key):
        """Forget one entry (a hit-time liveness re-check failed)."""
        entry = self._entries.pop(key, None)
        if entry is not None and entry.dst is not None:
            keys = self._by_dst[entry.dst]
            keys.remove(key)
            if not keys:
                del self._by_dst[entry.dst]

    def invalidate(self, eid):
        """Forget the decisions taken for the addresses ``eid`` covers.

        ``eid`` is a :class:`Prefix`.  A host EID drops its own
        destination's entries; a shorter prefix drops every indexed
        destination under it, in every VN.  Nothing else can move: a
        decision depends only on the longest match of its own ``dst``,
        and a prefix changes the longest match of no address outside it.
        """
        self.invalidations += 1
        by_dst = self._by_dst
        if not by_dst:
            return
        address = eid.address
        entries = self._entries
        if eid.length == address.bits:
            for key in by_dst.pop(address, ()):
                del entries[key]
            return
        family = address.family
        shift = address.bits - eid.length
        base = address.value >> shift
        covered = [dst for dst in by_dst
                   if dst.family == family and dst.value >> shift == base]
        for dst in covered:
            for key in by_dst.pop(dst):
                del entries[key]

    def invalidate_hosts(self, addresses):
        """:meth:`invalidate` for the host EID of each address in
        ``addresses`` (``None`` skipped), without building one."""
        by_dst = self._by_dst
        entries = self._entries
        for address in addresses:
            # ``is not None``, not ``==``: an address compares in Python
            if address is not None:
                self.invalidations += 1
                if by_dst:
                    for key in by_dst.pop(address, ()):
                        del entries[key]

    def flush(self):
        """Invalidate everything (the event named no prefix)."""
        if self._entries:
            self._entries.clear()
            self._by_dst.clear()
        self.flushes += 1

    def stats_dict(self):
        """Hit/miss/invalidation stats for the metric registry.

        ``invalidations`` counts scoped events (one prefix's entries
        dropped, the rest kept); ``flushes`` counts the events after
        which every decision is recomputed once.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }
