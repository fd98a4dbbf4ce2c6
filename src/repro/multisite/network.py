"""MultiSiteNetwork: several fabric sites federated over a LISP transit.

The distributed-campus deployment of the paper: every building/campus is
a full SDA fabric site (its own underlay, routing servers, policy server,
borders, edges), stitched together by a transit underlay and a
:class:`~repro.multisite.transit.TransitControlPlane`.  The facade
mirrors the :class:`~repro.fabric.network.FabricNetwork` verbs
(``define_vn`` / ``define_group`` / ``allow`` / ``create_endpoint`` /
``admit`` / ``roam`` / ``send`` / ``settle``), so examples and
experiments written against one site compose unchanged against many.

Design decisions (documented per the deployment-experience spirit):

* **Address plan.**  ``define_vn`` splits the VN prefix into equal
  per-site aggregates; each site's DHCP pool draws from its own slice.
  The aggregates are exactly what the site border registers with the
  transit — the transit never sees more specific state.
* **Map-server delegation.**  Each site's routing servers carry one
  delegate record per VN — the whole VN prefix pointing at the site
  border — so any destination without a local registration resolves to
  the border, which owns transit-side (aggregate-granular) resolution.
  This extends the paper's default-route-to-border design (sec. 3.2.2)
  across sites: first packets of inter-site flows are buffered briefly at
  the border instead of lost.
* **Inter-site policy: group tag in the data plane.**  Of the two
  options — SXP sessions exporting per-endpoint bindings between site
  policy servers, or carrying the source GroupId in the VXLAN-GPO header
  across the transit with destination-side enforcement — this facade
  uses the **tag-in-dataplane** model: the border re-encapsulates with
  the original group tag, and the destination site's edge runs the same
  egress enforcement as for local traffic (sec. 5.3's enforcement point).
  It needs zero per-endpoint signaling between sites; only the intent
  (groups + connectivity matrix) is replicated to every site's policy
  server by the facade, which is a configuration-time operation.
  Operator-published SXP *bindings* still propagate between sites via
  :meth:`~repro.policy.sxp.SxpSpeaker.connect_export` for border
  classification use-cases.
* **Inter-site roaming: home-border anchoring.**  An endpoint keeps its
  IP when it roams to another site (L3 mobility, sessions survive).  The
  foreign border announces the move to the home border over the transit
  (``AwayRegister``); the home border anchors the EID — registers it
  against itself in the home site's routing servers and hairpins traffic
  over the transit — so per-endpoint roaming state lives only in the two
  sites involved, never in the transit.  IPv4 EIDs anchor this mechanism
  (v6/MAC EIDs re-register site-locally), matching how deployments pin
  roaming to the routed family.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.fabric.endpoint import Endpoint
from repro.fabric.network import FabricConfig, FabricNetwork, inject_burst
from repro.multisite.transit import TransitControlPlane
from repro.net.addresses import IPv4Address, Prefix
from repro.sim.simulator import Simulator
from repro.underlay.network import UnderlayNetwork
from repro.underlay.topology import Topology

#: Transit RLOC plan: 172.16/12 is the inter-site space.
_TRANSIT_CP_RLOC = "172.16.255.1"
_TRANSIT_SITE_BASE = 0xAC100001   # 172.16.0.1, site i at 172.16.i.1


def split_prefix(prefix, count):
    """Split a prefix into ``count`` equal site aggregates (power-of-two).

    Returns a list of ``count`` sub-prefixes; with ``count == 1`` the
    prefix itself.  The split width is ``ceil(log2(count))`` bits.
    """
    if count < 1:
        raise ConfigurationError("cannot split %s into %d parts" % (prefix, count))
    extra = (count - 1).bit_length()
    length = prefix.length + extra
    if length > prefix.bits:
        raise ConfigurationError(
            "prefix %s too small for %d site aggregates" % (prefix, count)
        )
    step = 1 << (prefix.bits - length)
    family_cls = type(prefix.address)
    base = int(prefix.address)
    return [Prefix(family_cls(base + i * step), length) for i in range(count)]


class MultiSiteConfig:
    """Knobs for a federated deployment: site count + transit shape.

    Everything about what one site looks like is a
    :class:`~repro.fabric.network.FabricConfig` knob: keywords not
    listed here are forwarded into the embedded ``site`` config (the
    same for every site, apart from its seed and MAC block), so the two
    classes cannot drift and an unknown keyword is a ``TypeError``.
    """

    def __init__(self, num_sites=3, edges_per_site=4, borders_per_site=1,
                 routing_servers_per_site=1, transit_delay_s=2e-3,
                 transit_bandwidth_bps=10e9, transit_jitter_s=20e-6,
                 transit_pending_limit=16, transit_retry=None,
                 away_refresh_s=None, away_anchor_ttl_s=None, **site):
        if num_sites < 1:
            raise ConfigurationError("a multi-site fabric needs at least one site")
        self.num_sites = num_sites
        self.transit_delay_s = transit_delay_s
        self.transit_bandwidth_bps = transit_bandwidth_bps
        self.transit_jitter_s = transit_jitter_s
        self.transit_pending_limit = transit_pending_limit
        #: transit-side soft state (chaos-suite recovery, default off):
        #: ``transit_retry`` re-resolves lost transit Map-Requests,
        #: ``away_refresh_s`` makes foreign borders re-announce
        #: roamed-in endpoints, ``away_anchor_ttl_s`` expires home
        #: anchors the foreign site stopped refreshing.
        self.transit_retry = transit_retry
        self.away_refresh_s = away_refresh_s
        self.away_anchor_ttl_s = away_anchor_ttl_s
        self.site = FabricConfig(
            num_borders=borders_per_site, num_edges=edges_per_site,
            num_routing_servers=routing_servers_per_site, **site)

    def site_config(self, index):
        return self.site._replace(seed=self.site.seed + 97 * index,
                                  mac_block=index)


class MultiSiteNetwork:
    """N fabric sites + transit underlay + transit control plane."""

    def __init__(self, config=None, sim=None):
        self.config = config or MultiSiteConfig()
        self.sim = sim or Simulator()
        cfg = self.config

        self.sites = [
            FabricNetwork(cfg.site_config(index), sim=self.sim)
            for index in range(cfg.num_sites)
        ]

        transit_topology, _cores, access = Topology.transit_hub(
            cfg.num_sites, delay_s=cfg.transit_delay_s,
            bandwidth_bps=cfg.transit_bandwidth_bps,
        )
        self.transit_topology = transit_topology
        self._transit_cores = list(_cores)
        self._transit_access = list(access)
        self.transit_underlay = UnderlayNetwork(
            self.sim, transit_topology,
            extra_delay_jitter_s=cfg.transit_jitter_s, seed=cfg.site.seed + 5,
        )
        self.transit = TransitControlPlane(
            self.sim, self.transit_underlay,
            rloc=IPv4Address.parse(_TRANSIT_CP_RLOC), node=_cores[0],
            seed=cfg.site.seed + 6,
        )

        #: site index -> the site's transit-facing border (border 0).
        #: With more than one border per site, border 1 also attaches to
        #: the transit as a warm standby — the chaos suite's
        #: :meth:`fail_transit_border` takeover target.
        self.transit_borders = []
        self.standby_borders = []
        for index, site in enumerate(self.sites):
            candidates = site.borders[:2] if len(site.borders) > 1 \
                else site.borders[:1]
            for order, border in enumerate(candidates):
                border.connect_transit(
                    self.transit_underlay,
                    IPv4Address(_TRANSIT_SITE_BASE + (index << 8) + order),
                    access[index],
                    self.transit.rloc,
                    cfg,
                    site_register_rlocs=[s.rloc for s in site.routing_servers],
                )
            self.transit_borders.append(candidates[0])
            self.standby_borders.append(
                candidates[1] if len(candidates) > 1 else None)

        # Inter-site SXP: full-mesh binding export between site speakers.
        for a in self.sites:
            for b in self.sites:
                if a is not b:
                    a.sxp.connect_export(b.sxp)

        self._endpoints = {}
        self._vn_site_prefixes = {}   # vn int -> [per-site Prefix]
        self._vn_prefix = {}          # vn int -> whole-VN Prefix (delegates)
        self._location = {}           # identity -> site index
        self._foreign_site = {}       # identity -> foreign site index (away)

    # ------------------------------------------------------------------ site addressing
    def site_index(self, site):
        if isinstance(site, int):
            if not 0 <= site < len(self.sites):
                raise ConfigurationError("no site %d" % site)
            return site
        try:
            return self.sites.index(site)
        except ValueError:
            raise ConfigurationError("unknown site %r" % (site,))

    def site_of_endpoint(self, endpoint):
        """Site currently hosting the endpoint (``None`` when detached)."""
        index = self._location.get(endpoint.identity)
        return None if index is None else self.sites[index]

    def location_index(self, endpoint):
        """Index of the site currently hosting ``endpoint`` (or ``None``).

        The facade's own bookkeeping — updated when onboarding completes,
        not when the radio/port moves — which is exactly what cross-site
        handoff orchestration (wired roam and
        :class:`repro.wireless.deployment.MultiSiteWireless`) needs.
        """
        return self._location.get(endpoint.identity)

    def foreign_site_index(self, endpoint):
        """Index of the foreign site an endpoint roamed out to (``None``
        when it is home or detached)."""
        return self._foreign_site.get(endpoint.identity)

    def home_site_index(self, endpoint):
        """The site whose aggregate leased the endpoint's IP."""
        if endpoint.ip is None or endpoint.vn is None:
            raise ConfigurationError(
                "endpoint %s not onboarded yet" % endpoint.identity
            )
        prefixes = self._vn_site_prefixes.get(int(endpoint.vn), ())
        for index, prefix in enumerate(prefixes):
            if prefix.contains(endpoint.ip):
                return index
        raise ConfigurationError(
            "endpoint %s IP %s outside every site aggregate"
            % (endpoint.identity, endpoint.ip)
        )

    def site_aggregates(self, vn):
        return list(self._vn_site_prefixes.get(int(vn), ()))

    # ------------------------------------------------------------------ operator verbs
    def define_vn(self, name, vn_id, prefix):
        """Create a VN fabric-wide: per-site pools + transit aggregates."""
        if not isinstance(prefix, Prefix):
            prefix = Prefix.parse(prefix)
        key = int(vn_id)
        if key in self._vn_site_prefixes:
            raise ConfigurationError("VN %d already defined" % key)
        site_prefixes = split_prefix(prefix, len(self.sites))
        self._vn_site_prefixes[key] = site_prefixes
        self._vn_prefix[key] = prefix
        vns = []
        for index, site in enumerate(self.sites):
            vns.append(site.define_vn(name, vn_id, site_prefixes[index]))
            border = self.transit_borders[index]
            border.register_transit_aggregate(vn_id, site_prefixes[index])
            # Delegation: anything in the VN without a local registration
            # resolves to the site border (which resolves the site over
            # the transit) — sec. 3.2.2's default route, stretched.
            for server in site.routing_servers:
                server.install_delegate(vn_id, prefix, border.rloc)
        return vns[0]

    def define_group(self, name, group_id, vn_id):
        groups = [site.define_group(name, group_id, vn_id) for site in self.sites]
        return groups[0]

    def allow(self, src_group, dst_group, symmetric=True):
        for site in self.sites:
            site.allow(src_group, dst_group, symmetric=symmetric)

    def deny(self, src_group, dst_group, symmetric=True):
        for site in self.sites:
            site.deny(src_group, dst_group, symmetric=symmetric)

    def create_endpoint(self, identity, group, vn, secret="secret", sink=None,
                        factory=Endpoint):
        """Enroll an identity fabric-wide (every site's policy server).

        ``factory`` selects the device class — the wireless subsystem
        passes :class:`repro.wireless.Station`, mirroring
        :meth:`FabricNetwork.create_endpoint`.
        """
        if identity in self._endpoints:
            raise ConfigurationError("duplicate endpoint identity %r" % identity)
        endpoint = self.sites[0].create_endpoint(identity, group, vn,
                                                 secret=secret, sink=sink,
                                                 factory=factory)
        for site in self.sites[1:]:
            site.adopt_endpoint(endpoint, group, vn)
        self._endpoints[identity] = endpoint
        return endpoint

    def endpoint(self, identity):
        try:
            return self._endpoints[identity]
        except KeyError:
            raise ConfigurationError("unknown endpoint %r" % identity)

    def endpoints(self):
        return list(self._endpoints.values())

    # ------------------------------------------------------------------ runtime verbs
    def attach_completion(self, site, on_complete=None):
        """Completion callback updating the facade's location bookkeeping
        (attach) or rolling it back (reject) before notifying the caller.

        Public because it is the integration point for alternate access
        layers: wireless onboarding runs through the per-site WLC, and
        :class:`repro.wireless.deployment.MultiSiteWireless` passes this
        wrapper as the WLC's ``on_complete`` so stations get exactly the
        wired verbs' away-announce / return-announce plumbing.
        """
        site_index = self.site_index(site)

        def wrapped(endpoint, accepted):
            if accepted:
                self._after_attach(endpoint, site_index)
            else:
                self.withdraw_location(endpoint)
            if on_complete is not None:
                on_complete(endpoint, accepted)
        return wrapped

    def admit(self, endpoint, site, edge=0, on_complete=None):
        """Attach an endpoint to an edge of a site and run onboarding."""
        index = self.site_index(site)
        self.sites[index].admit(
            endpoint, edge,
            on_complete=self.attach_completion(index, on_complete))

    def roam(self, endpoint, site, edge=0, on_complete=None):
        """Move an endpoint to (possibly) another site, keeping its IP."""
        index = self.site_index(site)
        old_index = self._location.get(endpoint.identity)
        if old_index == index:
            self.sites[index].roam(
                endpoint, edge,
                on_complete=self.attach_completion(index, on_complete))
            return
        # Cross-site: the new site's registration cannot Map-Notify the
        # old site's edge (separate control planes), so the old site sees
        # an explicit departure; the away anchor re-routes afterwards.
        if endpoint.edge is not None:
            endpoint.edge.detach_endpoint(endpoint, deregister=True)
        self.admit(endpoint, index, edge, on_complete=on_complete)

    def depart(self, endpoint):
        """Endpoint leaves the deployment entirely."""
        if endpoint.edge is not None:
            endpoint.edge.detach_endpoint(endpoint, deregister=True)
        self.withdraw_location(endpoint)

    def send(self, src_endpoint, dst, size=1500, payload=None,
             count=1, as_train=False):
        """Inject overlay packet(s) (same contract as FabricNetwork)."""
        dst_ip = dst.ip if isinstance(dst, Endpoint) else dst
        return inject_burst(src_endpoint, dst_ip, size=size, payload=payload,
                            count=count, as_train=as_train)

    # ------------------------------------------------------------------ roaming plumbing
    def withdraw_location(self, endpoint):
        """Clear the facade's location claim and any stale home anchor.

        Two callers share this mirror of :meth:`FabricWlc._withdraw`:

        * a rejected (re-)attach — ROADMAP race (b): the endpoint was
          already deregistered from its previous site, so the facade
          must not keep claiming a location, and if the endpoint was
          roamed out, the home anchor still hairpins into a site that no
          longer serves it;
        * an explicit departure (wired ``depart``, wireless
          disassociation): the serving site withdraws its own
          registration, but the home-border anchor of a roamed-out
          endpoint is facade state and must be withdrawn here.
        """
        self._location.pop(endpoint.identity, None)
        foreign = self._foreign_site.pop(endpoint.identity, None)
        if foreign is not None and endpoint.ip is not None:
            self.transit_borders[foreign].announce_return(
                endpoint.vn, endpoint.ip.to_prefix(),
                trace_parent=endpoint.trace_ctx,
            )

    def _after_attach(self, endpoint, site_index):
        """Post-onboarding bookkeeping: away announce / return announce."""
        self._location[endpoint.identity] = site_index
        home = self.home_site_index(endpoint)
        previous_foreign = self._foreign_site.get(endpoint.identity)
        eid = endpoint.ip.to_prefix()
        if site_index != home:
            if previous_foreign == site_index:
                # Intra-site roam of an already-roamed-out endpoint: the
                # home anchor already hairpins to this site's border, so
                # re-announcing would only inflate transit signaling
                # (ROADMAP race (c)); the edge-to-edge move is entirely
                # the foreign site's local business.
                return
            # Foreign attach: this site's border tells the home border.
            self._foreign_site[endpoint.identity] = site_index
            self.transit_borders[site_index].announce_away(
                endpoint.vn, eid, group=endpoint.group, mac=endpoint.mac,
                trace_parent=endpoint.trace_ctx,
            )
        elif previous_foreign is not None:
            # Home again: the site it just left withdraws the anchor.
            del self._foreign_site[endpoint.identity]
            self.transit_borders[previous_foreign].announce_return(
                endpoint.vn, eid, trace_parent=endpoint.trace_ctx,
            )

    # ------------------------------------------------------------------ chaos scenario verbs
    def partition_site(self, site):
        """Cut a site off the transit: both redundant access links down.

        The site keeps working internally; inter-site traffic and away
        signaling involving it blackhole until :meth:`heal_site`.  With
        ``away_anchor_ttl_s`` set, home borders sweep the partitioned
        site's stale anchors, and the foreign side's periodic refresh
        re-creates them after the heal — the split-brain reconciliation
        the chaos suite's healing oracle checks.
        """
        index = self.site_index(site)
        node = self._transit_access[index]
        for core in self._transit_cores:
            self.transit_topology.set_link_state(node, core, False)

    def heal_site(self, site):
        """Restore a partitioned site's transit access links."""
        index = self.site_index(site)
        node = self._transit_access[index]
        for core in self._transit_cores:
            self.transit_topology.set_link_state(node, core, True)

    def overload_server(self, site, index=0, rate_per_s=8000.0):
        """Storm a site's routing server (delegates to the site fabric)."""
        self.sites[self.site_index(site)].overload_server(
            index=index, rate_per_s=rate_per_s)

    def relieve_server(self, site, index=0, rate_per_s=None):
        """Stop a site's request storm (heal verb for ``overload``)."""
        self.sites[self.site_index(site)].relieve_server(
            index=index, rate_per_s=rate_per_s)

    def fail_transit_border(self, site):
        """Kill a site's transit border; the standby takes over.

        VRRP-style: the survivor answers for the dead border's transit
        RLOC (remote caches and the transit map-server stay valid),
        adopts its away anchors, and takes over the site's delegate
        default route.  Requires ``borders_per_site >= 2``.
        """
        index = self.site_index(site)
        survivor = self.standby_borders[index]
        if survivor is None:
            raise ConfigurationError(
                "site %d has no standby border (borders_per_site < 2)" % index
            )
        dead = self.transit_borders[index]
        snapshot = dead.fail()
        self.transit_underlay.detach(dead.transit_rloc)
        survivor.adopt_transit_rloc(dead.transit_rloc)
        survivor.adopt_away_anchors(snapshot)
        for key, prefix in self._vn_prefix.items():
            for server in self.sites[index].routing_servers:
                server.install_delegate(key, prefix, survivor.rloc)
        return snapshot

    def heal_transit_border(self, site):
        """Cold-restart a failed transit border and hand its role back."""
        index = self.site_index(site)
        dead = self.transit_borders[index]
        if not dead.failed:
            return
        survivor = self.standby_borders[index]
        if survivor is not None and self.transit_underlay.attachment_node(
                dead.transit_rloc) is not None:
            survivor.release_transit_rloc(dead.transit_rloc)
        dead.recover()
        for key, prefix in self._vn_prefix.items():
            for server in self.sites[index].routing_servers:
                server.install_delegate(key, prefix, dead.rloc)

    # ------------------------------------------------------------------ simulation control
    def settle(self, max_time=60.0):
        """Run until the event queue drains (bounded by ``max_time``)."""
        deadline = self.sim.now + max_time
        while self.sim.pending:
            if self.sim.now >= deadline:
                break
            self.sim.run(until=min(deadline, self.sim.now + 1.0))

    def run_for(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    # ------------------------------------------------------------------ metrics
    def fib_snapshot(self, family="ipv4"):
        return {site_index: site.fib_snapshot(family)
                for site_index, site in enumerate(self.sites)}

    def total_policy_drops(self):
        return sum(site.total_policy_drops() for site in self.sites)

    def transit_message_count(self):
        """Transit map-server load plus border-side transit signaling."""
        total = self.transit.stats.total_messages()
        for border in self.transit_borders:
            total += (border.counters.transit_requests_sent
                      + border.counters.away_announcements_sent)
        return total

    def __repr__(self):
        return "MultiSiteNetwork(sites=%d, endpoints=%d, aggregates=%d)" % (
            len(self.sites), len(self._endpoints), self.transit.aggregate_count
        )
