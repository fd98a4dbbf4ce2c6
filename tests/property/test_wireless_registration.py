"""Property: wireless location state always matches a trivial oracle.

The wireless control plane is a chain of asynchronous steps (radio
handoff -> WLC queue -> auth -> DHCP -> VRF install -> registrar
Map-Register -> fig. 5 notify -> roam-chain relay).  Whatever sequence
of associate / roam / disassociate operations runs, once the event
queue drains the fabric must agree with a dict that just remembers each
station's current AP:

* the routing server's RLOC for every associated station is its current
  AP's edge (disassociated stations resolve to nothing);
* exactly the serving edge holds a VRF (local) entry for it;
* no edge anywhere holds a *stale* positive map-cache entry: every
  cached location for a station points at its current edge (the
  roam-chain relay is what makes this hold beyond the immediately
  previous edge).

Mirrors the oracle-vs-implementation structure of
``test_transit_resolution.py``, but runs the real simulated subsystem.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric import FabricConfig, FabricNetwork
from repro.wireless import WirelessConfig, WirelessFabric

VN = 600
NUM_EDGES = 3
APS_PER_EDGE = 2
NUM_APS = NUM_EDGES * APS_PER_EDGE
NUM_STATIONS = 3

#: one operation: (station index, AP index or None-for-disassociate,
#: drain-the-event-queue-afterwards?).  Leaving the queue undrained
#: interleaves the *next* operation with in-flight auth/registration —
#: the races (roam-then-disassociate, roam-during-auth, re-associate
#: mid-onboarding) the control plane must converge out of.
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_STATIONS - 1),
        st.one_of(st.none(),
                  st.integers(min_value=0, max_value=NUM_APS - 1)),
        st.booleans(),
    ),
    max_size=10,
)


def _build():
    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=NUM_EDGES,
                                     seed=13))
    wireless = WirelessFabric(net, WirelessConfig(aps_per_edge=APS_PER_EDGE))
    net.define_vn("wifi", VN, "10.0.0.0/16")
    net.define_group("stations", 1, VN)
    net.allow("stations", "stations")
    stations = [
        wireless.create_station("sta-%d" % index, "stations", VN)
        for index in range(NUM_STATIONS)
    ]
    return net, wireless, stations


@given(operations)
# The radio leaves the serving edge (AP 2 -> AP 0) and comes back to
# another AP of it (-> AP 2 -> AP 3) before the WLC processes any of the
# moves: the last one is not an intra-edge fast roam, since the first
# one already cut the station off its edge.
@example([(0, 2, True), (0, 0, False), (0, 2, False), (0, 3, False)])
@settings(max_examples=40, deadline=None)
def test_location_state_matches_oracle(ops):
    net, wireless, stations = _build()
    oracle = {}   # station index -> AP index, absent = disassociated

    for station_index, ap_index, drain in ops:
        station = stations[station_index]
        if ap_index is None:
            wireless.disassociate(station)
            oracle.pop(station_index, None)
        else:
            wireless.associate(station, ap_index)
            oracle[station_index] = ap_index
        if drain:
            net.settle()
    net.settle(max_time=120.0)

    server = net.routing_server
    for index, station in enumerate(stations):
        if station.ip is None:
            assert index not in oracle
            continue
        record = server.database.lookup(VN, station.ip)
        if index in oracle:
            serving_ap = wireless.aps[oracle[index]]
            serving_edge = serving_ap.edge
            # The implementation agrees with the oracle end to end.
            assert station.ap is serving_ap
            assert station.edge is serving_edge
            assert record is not None
            assert record.rloc == serving_edge.rloc
            mac_record = server.database.lookup(VN, station.mac)
            assert mac_record is not None
            assert mac_record.rloc == serving_edge.rloc
            for edge in net.edges:
                entry = edge.vrf.lookup_ip(VN, station.ip)
                if edge is serving_edge:
                    assert entry is not None
                    assert entry.endpoint is station
                else:
                    # Stale edges hold no local entry ...
                    assert entry is None
                    # ... and any positive map-cache entry they kept
                    # from the roam history points at the live edge —
                    # for every registered family, not just IPv4.
                    for key in (station.ip, station.mac):
                        cached = edge.map_cache.lookup(VN, key)
                        if cached is not None and not cached.negative:
                            assert cached.rloc == serving_edge.rloc
        else:
            # Disassociated: fully withdrawn from server and edges.
            assert station.ap is None and station.edge is None
            assert record is None
            assert server.database.lookup(VN, station.mac) is None
            for edge in net.edges:
                assert edge.vrf.lookup_ip(VN, station.ip) is None
