"""The SDA border router.

Same functions as an edge with two differences (sec. 3.3):

* its FIB is **synchronized** with the routing server via pub/sub — it
  does not resolve reactively, so it can absorb traffic for destinations
  edges have not resolved yet (the default-route design of sec. 3.2.2);
* it holds routes to external networks (Internet, data center) and is the
  fabric's exit.

The border is deliberately "more powerful" in the paper; here that shows
up as the FIB occupancy the fig. 9 experiment counts on the border side.

In a multi-site fabric the border additionally faces the **transit**
(:mod:`repro.multisite`): it registers the site's EID aggregates with the
transit control plane, resolves remote destinations to *site* borders
(aggregate granularity only), and re-encapsulates traffic onto the
transit underlay, preserving the VXLAN-GPO group tag so the destination
site's edge can enforce policy.  It also anchors endpoints that roamed to
other sites via an away-table (home-border hairpin, like the WLC anchor
the paper compares against — but with per-site state only).
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.lisp.mapcache import MapCache
from repro.lisp.messages import (
    AwayRegister,
    AwayUnregister,
    MapRegister,
    MapReply,
    MapRequest,
    MapUnregister,
    PublishUpdate,
    SolicitMapRequest,
    SubscribeRequest,
    control_packet,
)
from repro.lisp.records import MappingDatabase
from repro.net.fastpath import (
    ACT_ENCAP,
    ACT_TRANSIT,
    MegaflowCache,
    MegaflowEntry,
)
from repro.sim.rng import SeededRng
from repro.net.packet import IpHeader
from repro.net.trie import PatriciaTrie
from repro.net.vxlan import (
    EncapTemplate,
    decapsulate,
    encapsulate,
    flow_entropy_port,
)
from repro.policy.acl import GroupAcl


class BorderRouterCounters(Counters):
    """Border data/control plane statistics (site side + transit side)."""

    FIELDS = (
        "packets_in",
        "relayed_to_edge",
        "sent_external",
        "no_route_drops",
        "ttl_drops",
        "policy_drops",
        "publishes_received",
        # -- transit path (multi-site) --
        "transit_in",
        "transit_reencapsulated",
        "transit_drops",
        "transit_requests_sent",
        "away_announcements_sent",
        "away_registers_received",
        "away_unregisters_received",
        # -- chaos suite (crash/recovery, soft state) --
        "crashes",
        "recoveries",
        "transit_resolve_retries_sent",
        "transit_resolve_timeouts",
        "away_refreshes_sent",
        "away_anchors_expired",
        "away_anchors_adopted",
    )

    # Normalized metric-registry spellings (legacy names stay real
    # attributes; see repro.core.counters.Counters.METRIC_NAMES).
    METRIC_NAMES = {
        "transit_in": "transit_packets_in",
        "relayed_to_edge": "packets_relayed_to_edge",
        "transit_reencapsulated": "transit_packets_reencapsulated",
    }


class BorderRouter:
    """Pubsub-synced fabric border with external routes."""

    def __init__(self, sim, name, rloc, node, underlay, routing_server_rloc,
                 config):
        self.sim = sim
        self.name = name
        self.rloc = rloc
        self.node = node
        self.underlay = underlay
        self.routing_server_rloc = routing_server_rloc
        #: callable (vn, packet) for traffic leaving the fabric
        self.external_sink = None
        #: synchronized copy of the routing server's mappings
        self.synced = MappingDatabase()
        self._external = {}     # vn -> PatriciaTrie of external prefixes
        self.acl = GroupAcl()
        self.counters = BorderRouterCounters()
        #: data-plane fast path: memoized relay decisions (synced-FIB
        #: resolution, for the transit leg also the away table or the
        #: transit cache, + encap template) keyed (VN, src group, dst
        #: EID); a publish or away change costs only its own EID's
        #: entries (see :mod:`repro.net.fastpath`).  Off by default.
        self.megaflow = MegaflowCache() if config.megaflow else None
        # -- transit side (populated by connect_transit) --
        self.transit = None           # transit UnderlayNetwork
        self.transit_rloc = None
        self.transit_node = None
        self.transit_map_server_rloc = None
        self.transit_pending_limit = 16
        self._site_register_rlocs = ()
        self.transit_cache = None     # MapCache of EID aggregate -> site rloc
        self._transit_pending = {}    # (vn int, eid prefix) -> [thunk(rloc or None)]
        self._away = {}               # (vn int, eid prefix) -> away transit rloc
        #: (vn int, eid prefix) -> initiated_at of the away state (the
        #: ordering guard against late cross-transit announcements)
        self._away_initiated = {}
        # -- chaos suite (all knobs default off) --
        #: process-down flag: while failed, the border answers nothing.
        self.failed = False
        # transit-side soft-state knobs; see connect_transit
        self.transit_retry = self.away_refresh_s = self.away_anchor_ttl_s = None
        #: (vn int, eid prefix) -> (vn, eid, group, mac, initiated_at)
        #: of away announcements this border made (foreign side).
        self._served_away = {}
        #: home side: last time each away anchor was (re)announced.
        self._away_refreshed_at = {}
        #: away anchor group/mac (needed to re-register adopted anchors).
        self._away_meta = {}
        self._rng = SeededRng(31).spawn(name)
        underlay.attach(rloc, node, self._on_packet)

    def subscribe(self):
        """Subscribe to all route updates (call once after control plane up)."""
        message = SubscribeRequest(self.rloc)
        self._send_site(self.routing_server_rloc, message)

    # -- transit attachment (multi-site) -------------------------------------------
    def connect_transit(self, transit, transit_rloc, transit_node,
                        transit_map_server_rloc, config,
                        site_register_rlocs=()):
        """Attach this border to the inter-site transit underlay.

        ``config`` is the deployment's MultiSiteConfig (transit-side
        knobs).  ``site_register_rlocs`` are this site's routing servers
        — the away anchor registers roamed-out endpoints there so
        intra-site traffic reaches the border for hairpinning.
        """
        if self.transit is not None:
            raise ConfigurationError("%s already transit-connected" % self.name)
        self.transit = transit
        self.transit_rloc = transit_rloc
        self.transit_node = transit_node
        self.transit_map_server_rloc = transit_map_server_rloc
        self._site_register_rlocs = tuple(site_register_rlocs)
        self.transit_pending_limit = config.transit_pending_limit
        #: retry policy for transit map-requests.  Without it a lost
        #: request wedges ``_transit_pending`` forever (thunks queue to
        #: the limit, then drop) — the latent bug the chaos suite found.
        self.transit_retry = config.transit_retry
        #: foreign-side soft state: re-announce our roamed-in endpoints
        #: to their home borders on this period, so a home border that
        #: lost its away table (crash, partition) re-learns it.
        self.away_refresh_s = config.away_refresh_s
        #: home-side TTL: release away anchors not refreshed this long —
        #: a foreign site that silently died stops hairpinning traffic
        #: into a black hole.
        self.away_anchor_ttl_s = config.away_anchor_ttl_s
        # Site aggregates are long-lived (the reply's TTL governs);
        # negative results get the same short TTL edges use, so traffic
        # to unassigned space cannot turn into per-packet transit load.
        self.transit_cache = MapCache(
            self.sim, negative_ttl=config.site.negative_ttl)
        transit.attach(transit_rloc, transit_node, self._on_transit_packet)
        if self.away_refresh_s is not None:
            self.sim.schedule_daemon(self.away_refresh_s,
                                     self._away_refresh_tick)
        if self.away_anchor_ttl_s is not None:
            self.sim.schedule_daemon(self.away_anchor_ttl_s / 2.0,
                                     self._away_sweep_tick)

    def register_transit_aggregate(self, vn, prefix):
        """Register one of the site's coarse EID aggregates at the transit."""
        if self.transit is None:
            raise ConfigurationError("%s is not transit-connected" % self.name)
        register = MapRegister(vn, prefix, self.transit_rloc, group=None)
        self._send_transit(self.transit_map_server_rloc, register)

    def announce_away(self, vn, eid, group=None, mac=None, trace_parent=None):
        """Tell the EID's home border the endpoint now lives in this site.

        The home border's transit RLOC comes from transit resolution of
        the EID itself (its covering aggregate names the home site), so
        no side-channel site directory is needed.  The announcement is
        stamped with *now* — the roam event's time — not with the (much
        later) time transit resolution lets it leave, which is what the
        home border's ordering guard compares registrations against.
        ``mac`` rides along so the home anchor's registration keeps the
        IP-to-MAC binding the routing server's ARP service answers from
        (wireless stations roam with their MAC; losing the binding for
        the whole away period would be a silent regression).
        """
        initiated_at = self.sim.now
        self._served_away[(int(vn), eid)] = (vn, eid, group, mac, initiated_at)
        self._send_away_register(vn, eid, group, mac, initiated_at,
                                 trace_parent)

    def _send_away_register(self, vn, eid, group, mac, initiated_at,
                            trace_parent=None):
        self._announce_home("border_announce_away", vn, eid, trace_parent,
                            lambda: AwayRegister(
                                vn, eid, self.transit_rloc, group=group,
                                mac=mac, initiated_at=initiated_at))

    def announce_return(self, vn, eid, trace_parent=None):
        """Tell the EID's home border the endpoint left this site again."""
        initiated_at = self.sim.now
        self._served_away.pop((int(vn), eid), None)
        self._announce_home("border_announce_return", vn, eid, trace_parent,
                            lambda: AwayUnregister(
                                vn, eid, self.transit_rloc,
                                initiated_at=initiated_at))

    def _announce_home(self, span_name, vn, eid, trace_parent, message):
        """Send ``message()`` to the EID's home border once transit
        resolution names it."""
        span = self.sim.tracer.span(span_name, device=self,
                                    parent=trace_parent, eid=eid)
        def deliver(home_rloc, expires_at=None):
            if home_rloc is None or home_rloc == self.transit_rloc:
                span.finish(outcome="no_home")
                return
            self.counters.away_announcements_sent += 1
            announcement = message()
            announcement.trace_ctx = span.ctx
            self._send_transit(home_rloc, announcement)
            span.finish(outcome="sent")
        self._transit_resolve(vn, eid.address, deliver)

    def away_count(self):
        return len(self._away)

    # -- chaos: crash / recovery ----------------------------------------------------
    def fail(self):
        """The border process dies: synced FIB and away state are gone.

        Returns a snapshot of the away anchors held at death —
        ``{key: (away_rloc, initiated_at, group, mac)}`` — so a
        surviving peer border can adopt them
        (:meth:`adopt_away_anchors`).
        """
        if self.failed:
            return {}
        snapshot = {
            key: (
                rloc,
                self._away_initiated.get(key),
                self._away_meta.get(key, (None, None))[0],
                self._away_meta.get(key, (None, None))[1],
            )
            for key, rloc in self._away.items()
        }
        self.failed = True
        self.counters.crashes += 1
        self.synced = MappingDatabase()
        self._transit_pending = {}
        self._away = {}
        self._away_initiated = {}
        self._away_refreshed_at = {}
        self._away_meta = {}
        self._served_away = {}
        if self.transit_cache is not None:
            self.transit_cache = MapCache(
                self.sim, negative_ttl=self.transit_cache.negative_ttl)
        self._mf_flush()
        self.underlay.set_announced(self.rloc, False)
        if self.transit is not None \
                and self.transit.attachment_node(self.transit_rloc) is not None:
            self.transit.set_announced(self.transit_rloc, False)
        return snapshot

    def recover(self):
        """Cold restart: rejoin both underlays and re-sync the FIB.

        The synced database comes back through the pub/sub full-state
        push the re-subscription triggers; away state comes back from
        the foreign borders' periodic away refresh.
        """
        if not self.failed:
            return
        self.failed = False
        self.counters.recoveries += 1
        self.underlay.set_announced(self.rloc, True)
        if self.transit is not None:
            if self.transit.attachment_node(self.transit_rloc) is None:
                # A takeover peer released our transit address (or it was
                # detached at failover time) — claim it back.
                self.transit.attach(self.transit_rloc, self.transit_node,
                                    self._on_transit_packet)
            else:
                self.transit.set_announced(self.transit_rloc, True)
        self.subscribe()

    def adopt_away_anchors(self, anchors):
        """Take over a dead peer border's away anchors (home side).

        ``anchors`` is the snapshot :meth:`fail` returned.  Each adopted
        anchor is re-registered against *this* border in the site's
        routing servers, so hairpin traffic shifts to the survivor.
        """
        for key, (away_rloc, initiated_at, group, mac) in anchors.items():
            if key in self._away:
                continue
            vn, eid = key
            self._away[key] = away_rloc
            self._mf_invalidate(eid)
            if initiated_at is not None:
                self._away_initiated[key] = initiated_at
            self._away_meta[key] = (group, mac)
            self._away_refreshed_at[key] = self.sim.now
            self.counters.away_anchors_adopted += 1
            for server_rloc in self._site_register_rlocs:
                register = MapRegister(vn, eid, self.rloc, group, mac=mac,
                                       mobility=True)
                self._send_site(server_rloc, register)

    def adopt_transit_rloc(self, rloc):
        """VRRP-style takeover: answer for a failed peer's transit address.

        Remote sites' transit caches and the transit map-server keep
        pointing at the dead border's RLOC; attaching it here (at our
        own transit node) makes that state valid again without touching
        any remote cache.
        """
        self.transit.attach(rloc, self.transit_node, self._on_transit_packet)

    def release_transit_rloc(self, rloc):
        """Give a taken-over transit address back (peer recovered)."""
        if rloc == self.transit_rloc:
            raise ConfigurationError("cannot release own transit RLOC")
        self.transit.detach(rloc)

    # -- chaos: away soft state -----------------------------------------------------
    def _away_refresh_tick(self):
        """Foreign side: periodically re-announce roamed-in endpoints.

        Refreshes carry the ORIGINAL ``initiated_at`` — a refresh is not
        a new roam event, and bumping the timestamp would let it defeat
        the home border's ordering guard against genuinely fresher
        state.
        """
        if not self.failed:
            for vn, eid, group, mac, initiated_at in list(
                    self._served_away.values()):
                self.counters.away_refreshes_sent += 1
                self._send_away_register(vn, eid, group, mac, initiated_at)
        self.sim.schedule_daemon(self.away_refresh_s,
                                 self._away_refresh_tick)

    def _away_sweep_tick(self):
        """Home side: drop away anchors the foreign site stopped refreshing."""
        if not self.failed:
            now = self.sim.now
            ttl = self.away_anchor_ttl_s
            expired = [
                key for key, refreshed in self._away_refreshed_at.items()
                if key in self._away and refreshed + ttl <= now
            ]
            for key in expired:
                self.counters.away_anchors_expired += 1
                self._release_anchor(key)
        self.sim.schedule_daemon(self.away_anchor_ttl_s / 2.0,
                                 self._away_sweep_tick)

    def _release_anchor(self, key):
        """Withdraw one away anchor (TTL expiry path)."""
        vn, eid = key
        self._away.pop(key, None)
        self._away_initiated.pop(key, None)
        self._away_refreshed_at.pop(key, None)
        self._away_meta.pop(key, None)
        self._mf_invalidate(eid)
        for server_rloc in self._site_register_rlocs:
            # RLOC-guarded: a fresh local re-registration is never torn
            # down by the sweep.
            unregister = MapUnregister(vn, eid, self.rloc)
            self._send_site(server_rloc, unregister)

    # -- external routes -----------------------------------------------------------
    def add_external_route(self, vn, prefix, label="internet"):
        self._mf_invalidate(prefix)
        trie = self._external.get(vn)
        if trie is None:
            trie = PatriciaTrie(prefix.family)
            self._external[vn] = trie
        trie.insert(prefix, label)

    def external_route_for(self, vn, address):
        trie = self._external.get(vn)
        if trie is None:
            return None
        hit = trie.lookup_longest(address)
        return hit[1] if hit else None

    # -- data plane ---------------------------------------------------------------------
    def _on_packet(self, packet):
        if self.failed:
            return  # in flight when the process died
        if packet.encap is not None:
            self._handle_data(packet)
        else:
            self._handle_control(packet.payload)

    # Which event invalidates what, and why that is enough, is the
    # table in :mod:`repro.net.fastpath`.
    def _mf_flush(self):
        if self.megaflow is not None:
            self.megaflow.flush()

    def _mf_invalidate(self, eid):
        if self.megaflow is not None:
            self.megaflow.invalidate(eid)

    def _relay(self, action, rloc, vn, group, packet, inner, key=None,
               expires_at=None, entry=None):
        """Relay onto one leg, carrying the GPO group tag: ``ACT_ENCAP``
        into the site, ``ACT_TRANSIT`` onto the transit.  A hit passes
        its megaflow ``entry`` (template and underlay route, the route
        re-resolved only once it is dead); the slow path encapsulates
        and resolves afresh and memoizes under ``key`` until
        ``expires_at``, if given.
        """
        train = packet.train
        if inner.ttl <= 1:
            self.counters.ttl_drops += train
            return
        inner.ttl -= 1
        if action == ACT_ENCAP:
            leg, src = self.underlay, self.rloc
        else:
            leg, src = self.transit, self.transit_rloc
        if entry is not None:
            entry.template.apply(packet)
            route = entry.route
            if not route.live:
                route = entry.route = leg.route(src, rloc)
        else:
            route = leg.route(src, rloc)
            if key is not None:
                self.megaflow.install(key, MegaflowEntry(
                    action, rloc=rloc, route=route,
                    template=EncapTemplate(
                        src, rloc, vn, group,
                        src_port=flow_entropy_port(inner.src, inner.dst),
                    ),
                    expires_at=expires_at, dst=inner.dst,
                ))
            encapsulate(packet, src, rloc, vn, group)
        if action == ACT_ENCAP:
            self.counters.relayed_to_edge += train
        else:
            self.counters.transit_reencapsulated += train
        leg.forward(route, packet)

    def _handle_data(self, packet):
        self.counters.packets_in += packet.train
        vxlan = decapsulate(packet)
        vn, src_group = vxlan.vni, vxlan.group
        inner = packet.inner
        if type(inner) is not IpHeader:
            self.counters.no_route_drops += packet.train
            return
        dst = inner.dst
        key = None
        if self.megaflow is not None:
            key = (vn, src_group, dst)
            entry = self.megaflow.lookup(key, self.sim.now)
            if entry is not None:
                self._relay(entry.action, entry.rloc, vn, src_group, packet,
                            inner, entry=entry)
                return
        record = self.synced.lookup(vn, dst)
        if record is not None and record.rloc != self.rloc:
            self._relay(ACT_ENCAP, record.rloc, vn, src_group, packet, inner,
                        key)
            return
        if record is not None and record.rloc == self.rloc and self.transit is not None:
            # A record pointing at ourselves is either a delegated
            # aggregate (destination lives in another site) or an away
            # anchor (our endpoint roamed out) — both exit via the transit.
            self._transit_forward(vn, src_group, packet, inner, key)
            return
        label = self.external_route_for(vn, dst)
        if label is not None:
            self.counters.sent_external += packet.train
            if self.external_sink is not None:
                self.external_sink(vn, packet)
            return
        self.counters.no_route_drops += packet.train

    def inject_external(self, vn, group, packet):
        """Return traffic entering the fabric from outside (Internet side).

        The border classifies it (``group`` would come from an SXP binding
        in a deployment), then forwards like any fabric-bound packet.
        """
        inner = packet.inner
        if type(inner) is not IpHeader:
            raise ConfigurationError("external injection needs an IP packet")
        record = self.synced.lookup(vn, inner.dst)
        if record is None or record.rloc == self.rloc:
            self.counters.no_route_drops += packet.train
            return False
        self._relay(ACT_ENCAP, record.rloc, vn, group, packet, inner)
        return True

    # -- transit data plane ---------------------------------------------------------------
    def _transit_forward(self, vn, src_group, packet, inner, key=None):
        """Send an overlay packet towards the site currently serving ``dst``.

        The away-table (per-endpoint, this site's own roamers only) wins
        over aggregate resolution; unresolved destinations buffer a
        bounded number of packets while the transit map-request runs.
        An away hit or a transit-cache answer is memoized under ``key``;
        a packet that waited for resolution is not.
        """
        away = self._away.get((vn, inner.dst.to_prefix()))
        if away is not None:
            self._relay(ACT_TRANSIT, away, vn, src_group, packet, inner, key)
            return

        def relay(rloc, expires_at=None):
            if rloc is None or rloc == self.transit_rloc:
                # Known-unassigned space, or our own aggregate with no
                # local registration: unreachable either way.
                self.counters.transit_drops += packet.train
            else:
                self._relay(ACT_TRANSIT, rloc, vn, src_group, packet, inner,
                            None if expires_at is None else key, expires_at)
        self._transit_resolve(vn, inner.dst, relay)

    def _on_transit_packet(self, packet):
        if self.failed:
            return  # in flight when the process died
        if packet.encap is not None:
            self._handle_transit_data(packet)
        else:
            self._handle_transit_control(packet.payload)

    def _handle_transit_data(self, packet):
        """Traffic arriving from another site: relay into the fabric.

        The group tag decapsulated here is the *source* endpoint's — it is
        re-carried on the site leg so the destination edge's egress stage
        enforces the connectivity matrix exactly as for local traffic.
        """
        self.counters.transit_in += packet.train
        vxlan = decapsulate(packet)
        vn, src_group = vxlan.vni, vxlan.group
        inner = packet.inner
        if type(inner) is not IpHeader:
            self.counters.transit_drops += packet.train
            return
        key = None
        if self.megaflow is not None:
            # The site-leg relay decision is the same whether the packet
            # came from an edge or over the transit, so both paths share
            # one megaflow key space.
            key = (vn, src_group, inner.dst)
            entry = self.megaflow.lookup(key, self.sim.now)
            # A transit-leg decision was taken for site-side arrivals
            # (it may rest on an aggregate, which is no reason to bounce
            # a packet back onto the transit): re-decide below.
            if entry is not None and entry.action == ACT_ENCAP:
                self._relay(ACT_ENCAP, entry.rloc, vn, src_group, packet,
                            inner, entry=entry)
                return
        record = self.synced.lookup(vn, inner.dst)
        if record is not None and record.rloc != self.rloc:
            self._relay(ACT_ENCAP, record.rloc, vn, src_group, packet, inner,
                        key)
            return
        # Not here: the endpoint may have roamed onward to a third site.
        away = self._away.get((vn, inner.dst.to_prefix()))
        if away is not None and away != self.transit_rloc:
            self._relay(ACT_TRANSIT, away, vn, src_group, packet, inner)
            return
        self.counters.transit_drops += packet.train

    # -- transit resolution ---------------------------------------------------------------
    def _transit_resolve(self, vn, address, thunk):
        """Resolve ``address``'s site via the transit; run ``thunk(rloc)``.

        Resolution is aggregate-granular: the reply's EID is the covering
        site prefix, so one round trip resolves a whole site.  Thunks
        queue (bounded; when full, ``thunk(None)``) while a request for
        the same EID is in flight.  A transit-cache answer also passes
        the entry's expiry: ``thunk(rloc, expires_at)``.
        """
        cached = self.transit_cache.lookup(vn, address)
        if cached is not None:
            thunk(None if cached.negative else cached.rloc, cached.expires_at)
            return
        key = (int(vn), address.to_prefix())
        pending = self._transit_pending.get(key)
        if pending is not None:
            if len(pending) < self.transit_pending_limit:
                pending.append(thunk)
            else:
                thunk(None)
            return
        self._transit_pending[key] = [thunk]
        self.counters.transit_requests_sent += 1
        request = MapRequest(vn, address.to_prefix(), reply_to=self.transit_rloc)
        self._send_transit(self.transit_map_server_rloc, request)
        if self.transit_retry is not None:
            self.sim.post(self.transit_retry.delay_s(0, self._rng),
                          self._check_transit_resolve, key, 0)

    def _check_transit_resolve(self, key, attempt):
        """Retry an unanswered transit map-request (chaos suite).

        Without this, a single lost request wedges ``_transit_pending``
        for the EID forever: thunks pile up to the limit and every
        later packet for the destination is dropped.
        """
        if key not in self._transit_pending or self.failed:
            return  # answered (or our state died with us)
        if self.transit_retry.exhausted(attempt):
            self.counters.transit_resolve_timeouts += 1
            for thunk in self._transit_pending.pop(key):
                thunk(None)
            return
        self.counters.transit_resolve_retries_sent += 1
        self.counters.transit_requests_sent += 1
        request = MapRequest(key[0], key[1], reply_to=self.transit_rloc)
        self._send_transit(self.transit_map_server_rloc, request)
        self.sim.post(
            self.transit_retry.delay_s(attempt + 1, self._rng),
            self._check_transit_resolve, key, attempt + 1,
        )

    def _handle_transit_reply(self, reply):
        if reply.is_negative:
            self.transit_cache.install_negative(reply.vn, reply.eid,
                                                ttl=reply.negative_ttl)
        else:
            record = reply.record
            self.transit_cache.install(reply.vn, record.eid, record.rloc,
                                       version=record.version, ttl=record.ttl)
        # Site-granular either way: the longest match under it moved.
        covering = reply.eid if reply.is_negative else reply.record.eid
        self._mf_invalidate(covering)
        resolved = [
            key for key in self._transit_pending
            if key[0] == int(reply.vn)
            and key[1].family == covering.family
            and covering.contains(key[1])
        ]
        target = None if reply.is_negative else reply.record.rloc
        for key in resolved:
            for thunk in self._transit_pending.pop(key):
                thunk(target)

    def _handle_transit_control(self, message):
        if message.kind == MapReply.kind:
            self._handle_transit_reply(message)
        elif message.kind == AwayRegister.kind:
            self._handle_away_register(message)
        elif message.kind == AwayUnregister.kind:
            self._handle_away_unregister(message)
        # Unknown kinds are ignored (forward compatibility).

    def _handle_away_register(self, message):
        """Home-side anchor install (the fig. 5 notify, stretched inter-site).

        Registering the EID against *ourselves* in the site's routing
        servers steers intra-site senders (and the pub/sub-synced borders)
        to this border, which hairpins over the transit — per-endpoint
        roaming state stays inside the two sites involved.

        **Ordering guard** (ROADMAP race (a)): an AwayRegister can be
        delayed by transit resolution long enough for the endpoint to
        roam *back home* and re-register at a local edge first.  Without
        a guard the late anchor overwrites that fresher registration and
        the follow-up AwayUnregister then deletes the record outright —
        a quick away-and-back roam blackholes the endpoint.  The guard
        compares the announcement's ``initiated_at`` (stamped when the
        roam happened, before transit delays) against the pub/sub-synced
        record: a local registration *newer* than the away event wins,
        and the stale announcement is dropped.  A second timestamp check
        discards announcements older than the away state already held.
        """
        self.counters.away_registers_received += 1
        span = self.sim.tracer.span("border_away_anchor", device=self,
                                    parent=message.trace_ctx, eid=message.eid)
        key = (int(message.vn), message.eid)
        if message.initiated_at is not None:
            held = self._away_initiated.get(key)
            if held is not None and message.initiated_at < held:
                span.finish(outcome="stale")
                return  # older than the away state we already track
            current = self.synced.lookup_exact(message.vn, message.eid)
            if current is not None and current.rloc != self.rloc \
                    and current.registered_at > message.initiated_at:
                span.finish(outcome="stale")
                return  # a fresher home re-registration exists
            if self._away.get(key) == message.away_rloc \
                    and held == message.initiated_at:
                # Pure soft-state refresh: nothing changed, so skip the
                # site-server re-registration storm and just re-arm the
                # anchor's TTL.
                self._away_refreshed_at[key] = self.sim.now
                span.finish(outcome="refreshed")
                return
            self._away_initiated[key] = message.initiated_at
        self._away[key] = message.away_rloc
        self._away_meta[key] = (message.group, message.mac)
        self._away_refreshed_at[key] = self.sim.now
        self._mf_invalidate(message.eid)
        for server_rloc in self._site_register_rlocs:
            register = MapRegister(message.vn, message.eid, self.rloc,
                                   message.group, mac=message.mac,
                                   mobility=True)
            register.trace_ctx = span.ctx
            self._send_site(server_rloc, register)
        span.finish(outcome="anchored")

    def _handle_away_unregister(self, message):
        self.counters.away_unregisters_received += 1
        span = self.sim.tracer.span("border_away_release", device=self,
                                    parent=message.trace_ctx, eid=message.eid)
        key = (int(message.vn), message.eid)
        current = self._away.get(key)
        if current != message.away_rloc:
            span.finish(outcome="superseded")
            return  # superseded by a move to a third site
        if message.initiated_at is not None:
            held = self._away_initiated.get(key)
            if held is not None and message.initiated_at < held:
                span.finish(outcome="stale")
                return  # stale return announcement lost a race
        del self._away[key]
        self._away_initiated.pop(key, None)
        self._away_refreshed_at.pop(key, None)
        self._away_meta.pop(key, None)
        self._mf_invalidate(message.eid)
        for server_rloc in self._site_register_rlocs:
            # Guarded by our own RLOC: a racing home re-attach (the edge's
            # fresh registration) is never torn down.
            unregister = MapUnregister(message.vn, message.eid, self.rloc)
            unregister.trace_ctx = span.ctx
            self._send_site(server_rloc, unregister)
        span.finish(outcome="released")

    def _send_site(self, dst_rloc, message):
        self.underlay.send(
            self.rloc, dst_rloc, control_packet(self.rloc, dst_rloc, message)
        )

    def _send_transit(self, dst_rloc, message):
        self.transit.send(
            self.transit_rloc, dst_rloc,
            control_packet(self.transit_rloc, dst_rloc, message),
        )

    # -- control plane --------------------------------------------------------------------
    def _handle_control(self, message):
        if message.kind == PublishUpdate.kind:
            self.counters.publishes_received += 1
            self._mf_invalidate(message.eid)
            if message.record is None:
                self.synced.unregister(message.vn, message.eid)
            else:
                self.synced.register(message.record)
        elif message.kind == SolicitMapRequest.kind:
            # Border keeps a synced table; SMRs carry no new information.
            pass

    # -- metrics ------------------------------------------------------------------------------
    def fib_occupancy(self, family="ipv4"):
        """Synced mappings held right now (fig. 9's border-side metric)."""
        return self.synced.count(family=family)

    def __repr__(self):
        return "BorderRouter(%s, synced=%d)" % (self.name, len(self.synced))
