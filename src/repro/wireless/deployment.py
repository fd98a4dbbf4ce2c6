"""WirelessFabric: fabric-enabled wireless over a FabricNetwork.

Assembles the wireless subsystem onto an existing fabric: one
control-plane-only WLC attached to the underlay, plus fabric APs hung
off the edge routers.  Exposes the operator verbs the workloads and
experiments drive (``create_station`` / ``associate`` / ``roam`` /
``disassociate``), mirroring :class:`repro.fabric.FabricNetwork`'s
wired verbs (``create_endpoint`` / ``admit`` / ``roam`` / ``depart``).
"""

from __future__ import annotations

from collections import namedtuple

from repro.core.errors import ConfigurationError
from repro.net.addresses import IPv4Address
from repro.wireless.ap import AIR_DELAY_S, UPLINK_DELAY_S, FabricAp
from repro.wireless.station import Station
from repro.wireless.wlc import FabricWlc

#: RLOC numbering: the WLC joins the infra service block, APs get
#: uplink addresses in 192.168.128.0/17 (disjoint from edges/borders).
_RLOC_WLC = "192.168.255.30"
_AP_ADDRESS_BASE = 0xC0A88001


def _finish_root(span, on_complete):
    """Close a roam/associate root span when the onboarding completes.

    Root spans are finished through the completion callback (not a
    context manager) because onboarding is asynchronous: the verb
    returns immediately and the flow ends events later at the WLC.
    Superseded onboardings whose callback never fires leave the span
    open; export marks it ``unfinished``.
    """

    def _done(station, accepted):
        span.finish(accepted=accepted)
        if on_complete is not None:
            on_complete(station, accepted)

    return _done


_WIRELESS_DEFAULTS = dict(
    aps_per_edge=1,
    wlc_service_s=150e-6,
    air_delay_s=AIR_DELAY_S,
    uplink_delay_s=UPLINK_DELAY_S,
    register_families=("ipv4", "mac"),
)


class WirelessConfig(namedtuple("WirelessConfig", _WIRELESS_DEFAULTS,
                                defaults=_WIRELESS_DEFAULTS.values())):
    """Knobs for the wireless overlay (paper-flavoured defaults).

    Only what is wireless: how the WLC batches, retries and protects its
    registrations is the fabric's :class:`~repro.fabric.FabricConfig`,
    which the WLC reads like every edge does.
    """

    __slots__ = ()

    def __new__(cls, **knobs):
        self = super().__new__(cls, **knobs)
        if self.aps_per_edge < 1:
            raise ConfigurationError("need at least one AP per edge")
        return self


class WirelessFabric:
    """The wireless overlay: one WLC + APs on every edge."""

    def __init__(self, net, config=None):
        self.net = net
        self.config = config or WirelessConfig()
        cfg = self.config
        self.wlc = FabricWlc(
            net.sim, net.underlay,
            rloc=IPv4Address.parse(_RLOC_WLC),
            node=net.spine_nodes[-1],
            config=net.config,
            wireless_config=cfg,
            register_rlocs=[server.rloc for server in net.routing_servers],
            policy_server_rloc=net.policy_server.rloc,
            dhcp=net.dhcp,
        )
        self.aps = []
        for edge in net.edges:
            for radio in range(cfg.aps_per_edge):
                ap = FabricAp(
                    net.sim, "%s-ap%d" % (edge.name, radio), edge, self.wlc,
                    address=IPv4Address(_AP_ADDRESS_BASE + len(self.aps)),
                    air_delay_s=cfg.air_delay_s,
                    uplink_delay_s=cfg.uplink_delay_s,
                )
                self.aps.append(ap)

    # ------------------------------------------------------------------ operator verbs
    def create_station(self, identity, group, vn, secret="secret", sink=None):
        """Enroll a wireless identity and mint its Station object."""
        return self.net.create_endpoint(identity, group, vn, secret=secret,
                                        sink=sink, factory=Station)

    def _resolve_ap(self, ap):
        return self.aps[ap] if isinstance(ap, int) else ap

    def associate(self, station, ap, on_complete=None):
        """Bring a station onto an AP's radio (onboarding runs async)."""
        ap = self._resolve_ap(ap)
        tracer = self.net.sim.tracer
        if tracer.enabled:
            span = tracer.span("wireless_associate", device="wireless",
                               station=station.identity, ap=ap.name)
            station.trace_ctx = span.ctx
            on_complete = _finish_root(span, on_complete)
        ap.associate(station, on_complete=on_complete)

    def roam(self, station, new_ap, on_complete=None):
        """Move a station to another AP — the same verb as associate;
        the WLC works out whether location state must move."""
        self.associate(station, new_ap, on_complete=on_complete)

    def disassociate(self, station):
        """Radio off: the WLC withdraws the station's registration."""
        self.wlc.disassociate(station)

    # ------------------------------------------------------------------ metrics
    def station_count(self):
        return sum(len(ap.stations) for ap in self.aps)

    def __repr__(self):
        return "WirelessFabric(aps=%d, stations=%d)" % (
            len(self.aps), self.station_count()
        )


class MultiSiteWireless:
    """Wireless overlays on every site of a multi-site fabric.

    One :class:`WirelessFabric` (WLC + APs) per site, plus the glue that
    makes a station roam *between* sites with control-plane signaling
    only — the composition the paper's fabric story culminates in:

    * the radio handoff is the ordinary AP-to-AP associate; the foreign
      site's WLC runs 802.1X against its own policy server (every site
      enrolled the identity), keeps the home-leased IP (L3 mobility) and
      registers the station at the foreign edge in the *foreign* site's
      routing servers;
    * the departed site's WLC cannot be reached by the foreign fig. 5
      notify (separate control planes), so the facade asks it for an
      explicit :meth:`FabricWlc.handoff_out` withdrawal;
    * the foreign border announces the move to the home border
      (``AwayRegister`` with the PR 4 ``initiated_at`` ordering guard),
      which anchors the EID and hairpins home-site traffic over the
      transit; roaming back home (or disassociating while away)
      withdraws the anchor via the ``withdraw_location`` /
      ``_withdraw`` mirror paths.

    Per-endpoint roaming state stays inside the two sites involved; the
    transit map-server still only ever sees aggregates.
    """

    def __init__(self, net, config=None):
        self.net = net                      # a MultiSiteNetwork
        self.config = config or WirelessConfig()
        #: one WirelessFabric per site (same knobs everywhere)
        self.site_wireless = [
            WirelessFabric(site, self.config) for site in net.sites
        ]
        #: global AP numbering: site-major, matching ``site_wireless``
        self.aps = []
        self._ap_site = {}                  # FabricAp -> site index
        self._ap_index = {}                 # FabricAp -> global AP index
        for index, wireless in enumerate(self.site_wireless):
            for ap in wireless.aps:
                self._ap_site[ap] = index
                self._ap_index[ap] = len(self.aps)
                self.aps.append(ap)

    # ------------------------------------------------------------------ lookups
    def site_of_ap(self, ap):
        """Site index serving an AP (accepts a global AP index too)."""
        return self._ap_site[self._resolve_ap(ap)]

    def ap_index(self, ap):
        """Global index of an AP (O(1); the walk workloads' hot lookup)."""
        return self._ap_index[ap]

    def wlc(self, site):
        return self.site_wireless[self.net.site_index(site)].wlc

    @property
    def wlcs(self):
        return [wireless.wlc for wireless in self.site_wireless]

    def _resolve_ap(self, ap):
        return self.aps[ap] if isinstance(ap, int) else ap

    # ------------------------------------------------------------------ operator verbs
    def create_station(self, identity, group, vn, secret="secret", sink=None):
        """Enroll a wireless identity fabric-wide and mint its Station."""
        return self.net.create_endpoint(identity, group, vn, secret=secret,
                                        sink=sink, factory=Station)

    def associate(self, station, ap, on_complete=None):
        """Bring a station onto any AP's radio, in any site.

        A cross-site move first asks the currently-registered site's WLC
        to withdraw (see :meth:`FabricWlc.handoff_out`); the facade's
        location bookkeeping — and with it the away-announce /
        return-announce flow — rides the onboarding completion exactly
        like a wired ``admit``/``roam``.
        """
        ap = self._resolve_ap(ap)
        site_index = self._ap_site[ap]
        # Root the whole flow — departed-site withdrawal, foreign-site
        # onboarding, away signaling — in one span *before* the
        # handoff_out loop, so every leg parents on the same trace.
        tracer = self.net.sim.tracer
        on_complete = self.net.attach_completion(site_index, on_complete)
        if tracer.enabled:
            span = tracer.span("wireless_roam", device="fabric",
                               station=station.identity, ap=ap.name,
                               target_site=site_index)
            station.trace_ctx = span.ctx
            on_complete = _finish_root(span, on_complete)
        # Withdraw from every *other* site whose control plane still has
        # the station registered.  This is keyed on the WLCs' own
        # records, not the facade's location bookkeeping: a disassociate
        # whose queued withdrawal was cancelled by this very association
        # ("association wins") leaves a registration alive in a site the
        # facade no longer claims — and a foreign-site association can
        # never withdraw it via fig. 5.
        for index, wireless in enumerate(self.site_wireless):
            if index == site_index:
                continue
            if wireless.wlc.registered_edge(station) is not None:
                wireless.wlc.handoff_out(station)
        ap.associate(station, on_complete=on_complete)

    def roam(self, station, new_ap, on_complete=None):
        """Same verb as associate — the facade and the WLCs work out
        whether the move is intra-edge, inter-edge or inter-site."""
        self.associate(station, new_ap, on_complete=on_complete)

    def disassociate(self, station):
        """Radio off: the serving site withdraws the registration and the
        facade withdraws the location claim (incl. a stale home anchor)."""
        ap = station.ap
        if ap is not None:
            self.site_wireless[self._ap_site[ap]].wlc.disassociate(station)
        self.net.withdraw_location(station)

    # ------------------------------------------------------------------ metrics
    def station_count(self):
        return sum(w.station_count() for w in self.site_wireless)

    def __repr__(self):
        return "MultiSiteWireless(sites=%d, aps=%d, stations=%d)" % (
            len(self.site_wireless), len(self.aps), self.station_count()
        )
