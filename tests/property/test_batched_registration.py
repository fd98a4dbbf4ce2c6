"""Property: the batched register pipeline is invisible to state.

The control-plane fast path coalesces per-family Map-Registers (and
in-band withdrawals) into multi-record messages behind a flush window,
and lets the policy server resume authentication sessions.  None of
that may change *what* the control plane converges to — only how fast.

The oracle is the unbatched pipeline itself: the same interleaved
associate / roam / disassociate storm is driven through two identical
fabrics, one with ``batching`` + ``session_cache`` on and one with
everything off.  Once both event queues drain:

* the routing server's mapping database is identical record for record
  (vn, EID, RLOC, group — and version, since the batch applies exactly
  one bump per record like the unbatched message stream does);
* every edge holds the same VRF (local endpoint) table;
* both fabrics agree with the trivial location oracle (each station's
  record points at its current AP's edge), the invariant of
  ``test_wireless_registration.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import FabricConfig, FabricNetwork
from repro.wireless import WirelessConfig, WirelessFabric

VN = 700
NUM_EDGES = 3
APS_PER_EDGE = 2
NUM_APS = NUM_EDGES * APS_PER_EDGE
NUM_STATIONS = 3

operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_STATIONS - 1),
        st.one_of(st.none(),
                  st.integers(min_value=0, max_value=NUM_APS - 1)),
        st.booleans(),
    ),
    max_size=10,
)


def _build(fastpath):
    net = FabricNetwork(FabricConfig(
        num_borders=1, num_edges=NUM_EDGES, seed=13,
        batching=fastpath, register_flush_s=2e-3,
        session_cache=fastpath,
    ))
    wireless = WirelessFabric(net, WirelessConfig(aps_per_edge=APS_PER_EDGE))
    net.define_vn("wifi", VN, "10.0.0.0/16")
    net.define_group("stations", 1, VN)
    net.allow("stations", "stations")
    stations = [
        wireless.create_station("sta-%d" % index, "stations", VN)
        for index in range(NUM_STATIONS)
    ]
    return net, wireless, stations


def _drive(net, wireless, stations, ops):
    for station_index, ap_index, drain in ops:
        station = stations[station_index]
        if ap_index is None:
            wireless.disassociate(station)
        else:
            wireless.associate(station, ap_index)
        if drain:
            net.settle()
    net.settle(max_time=120.0)


def _database_image(net):
    return sorted(
        (int(r.vn), str(r.eid), str(r.rloc),
         None if r.group is None else int(r.group), r.version)
        for r in net.routing_server.database.records()
    )


def _vrf_image(net):
    image = []
    for index, edge in enumerate(net.edges):
        for entry in edge.vrf.entries():
            image.append((index, str(entry.endpoint.identity),
                          int(entry.vn), int(entry.group), str(entry.ip)))
    return sorted(image)


def _assert_location_oracle(net, wireless, stations, oracle):
    server = net.routing_server
    for index, station in enumerate(stations):
        if station.ip is None:
            assert index not in oracle
            continue
        record = server.database.lookup(VN, station.ip)
        if index in oracle:
            serving_edge = wireless.aps[oracle[index]].edge
            assert record is not None and record.rloc == serving_edge.rloc
            for edge in net.edges:
                cached = edge.map_cache.lookup(VN, station.ip)
                if edge is not serving_edge and cached is not None \
                        and not cached.negative:
                    assert cached.rloc == serving_edge.rloc
        else:
            assert record is None


@given(operations)
@settings(max_examples=25, deadline=None)
def test_batched_end_state_identical_to_unbatched_oracle(ops):
    slow = _build(fastpath=False)
    fast = _build(fastpath=True)
    _drive(*slow, ops)
    _drive(*fast, ops)

    oracle = {}
    for station_index, ap_index, _drain in ops:
        if ap_index is None:
            oracle.pop(station_index, None)
        else:
            oracle[station_index] = ap_index

    assert _database_image(fast[0]) == _database_image(slow[0])
    assert _vrf_image(fast[0]) == _vrf_image(slow[0])
    for net, wireless, stations in (slow, fast):
        _assert_location_oracle(net, wireless, stations, oracle)
    # The flag-off fabric must not have paid for the fast path ...
    assert slow[0].policy_server.auth_cache_hits == 0
    wlc_slow, wlc_fast = slow[1].wlc, fast[1].wlc
    assert wlc_slow.stats.register_batches_sent == 0
    # ... and when registrations happened at all, the fast fabric really
    # sent them batched.
    if wlc_fast.stats.register_records_sent:
        assert wlc_fast.stats.register_batches_sent > 0
        assert wlc_fast.stats.registers_sent == \
            wlc_fast.stats.register_batches_sent
