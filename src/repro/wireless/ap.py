"""Fabric-enabled access point: VXLAN-GPO encapsulation at the AP.

The design point the paper folds wireless into the fabric with: the AP
is a *data-plane* device only.  Station traffic is encapsulated locally
— VXLAN-GPO with the station's VN and GroupId, exactly the header an
edge would build for a wired endpoint — and tunneled one wired hop to
the edge the AP hangs off.  Nothing transits the WLC; the controller
participates purely in the control plane (see
:class:`repro.wireless.wlc.FabricWlc`).

Roaming at the radio layer is an AP-to-AP handoff: the new AP takes the
station immediately (traffic can flow upstream at once) and informs the
WLC, which re-runs onboarding and re-registers the station's location.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.fabric.endpoint import Endpoint
from repro.net.vxlan import encapsulate

#: 802.11 air-interface cost charged to association signaling.
AIR_DELAY_S = 100e-6

#: Wired AP-to-edge uplink hop (one access-layer cable).
UPLINK_DELAY_S = 10e-6


class FabricApCounters(Counters):
    """Per-AP data/control statistics."""

    FIELDS = (
        "associations",
        "disassociations",
        "roams_in",
        "packets_encapsulated",
        "packets_delivered",
        "not_onboarded_drops",
    )


class FabricAp:
    """One fabric AP, attached to an edge router's access layer."""

    def __init__(self, sim, name, edge, wlc, address,
                 air_delay_s=AIR_DELAY_S, uplink_delay_s=UPLINK_DELAY_S):
        self.sim = sim
        self.name = name
        self.edge = edge
        self.wlc = wlc
        #: the AP's own uplink address (outer source of its VXLAN tunnel)
        self.address = address
        self.air_delay_s = air_delay_s
        self.uplink_delay_s = uplink_delay_s
        self.stations = {}   # identity -> Station
        self.counters = FabricApCounters()
        edge.attach_ap(self)
        wlc.register_ap(self)

    # ------------------------------------------------------------------ radio layer
    def associate(self, station, on_complete=None):
        """A station (re)appears on this AP's radio.

        The radio handoff is immediate; the WLC hears about it one air
        round later and drives authentication + location registration.
        ``on_complete(station, accepted)`` fires when onboarding ends
        (immediately for an intra-edge fast roam).
        """
        if station.ap is self:
            if self.edge.vrf.lookup_identity(station.identity) is not None:
                # Already fully onboarded here: nothing to redo.
                if on_complete is not None:
                    on_complete(station, True)
                return
            # Re-associate while the original onboarding is still in
            # flight: re-run the control-plane flow (idempotent) so the
            # caller gets an honest completion instead of a blind "ok".
            self.sim.post(self.air_delay_s, self.wlc.on_associate,
                          station, self, None, on_complete)
            return
        previous = station.ap
        if previous is not None:
            previous.drop_station(station)
            station.roams += 1
            self.counters.roams_in += 1
            if previous.edge is not self.edge:
                # The old edge cannot deliver over a radio that left; its
                # VRF entry is cleaned up by the fig. 5 Map-Notify once
                # the WLC re-registers the station.
                station.edge = None
        self.stations[station.identity] = station
        station.ap = self
        station.associations += 1
        self.counters.associations += 1
        self.sim.post(self.air_delay_s, self.wlc.on_associate,
                      station, self, previous, on_complete)

    def drop_station(self, station):
        """Radio-layer detach (roam-away or disassociation)."""
        self.stations.pop(station.identity, None)
        self.counters.disassociations += 1

    # ------------------------------------------------------------------ data plane
    def deliver_to_station(self, station, packet):
        """Downstream delivery: the edge hands the packet to the AP,
        which forwards it over the radio — the same one-hop cost the
        upstream direction pays, so the data-plane accounting is
        symmetric."""
        self.counters.packets_delivered += packet.train
        self.sim.post(self.uplink_delay_s, self._radio_deliver,
                      station, packet)

    def _radio_deliver(self, station, packet):
        if self.stations.get(station.identity) is station:
            Endpoint.receive(station, packet, self.sim.now)

    def inject_from_station(self, station, packet):
        """Station traffic: VXLAN-GPO encap *here*, no controller hairpin."""
        if self.stations.get(station.identity) is not station:
            return  # raced a roam-away
        if station.vn is None or station.group is None:
            self.counters.not_onboarded_drops += packet.train
            return
        encapsulate(packet, self.address, self.edge.rloc,
                    station.vn, station.group)
        self.counters.packets_encapsulated += packet.train
        self.sim.post(self.uplink_delay_s, self.edge.receive_from_ap, packet)

    def __repr__(self):
        return "FabricAp(%s, edge=%s, stations=%d)" % (
            self.name, self.edge.name, len(self.stations)
        )
