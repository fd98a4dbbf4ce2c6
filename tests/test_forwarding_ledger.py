"""Literal forwarding ledgers, read identically with megaflow off and on.

The megaflow property tests compare the cached data plane against the
slow path.  Both end in the same execution steps (local delivery,
ingress deny, encapsulation), so a change to one of those steps moves
both sides alike and passes the comparison.  These scenarios pin the
ledger itself, with the numbers written out, on both settings — and
they reach the two hit-time liveness re-checks (underlay reachability,
a station whose radio left) that the property tests seldom hit.
"""

import pytest

from repro.fabric import FabricConfig, FabricNetwork
from repro.net.fastpath import DIR_INGRESS
from repro.wireless import WirelessConfig, WirelessFabric

VN = 900


def _acl_ledger(edge):
    counters = edge.counters
    return {
        "acl_hits": edge.acl.hits,
        "acl_drops": edge.acl.drops,
        "policy_drops": counters.policy_drops,
        "ingress_policy_drops": counters.ingress_policy_drops,
        "unreachable_fallbacks": counters.unreachable_fallbacks,
        "to_border_default": counters.to_border_default,
    }


@pytest.mark.parametrize("megaflow", [False, True])
def test_ingress_enforcement_charges_the_acl_once(megaflow):
    net = FabricNetwork(FabricConfig(
        num_edges=3, seed=11, enforcement="ingress", use_igp=False,
        megaflow=megaflow,
    ))
    net.define_vn("campus", VN, "10.0.0.0/16")
    net.define_group("users", 10, VN)
    net.define_group("servers", 30, VN)
    net.define_group("iot", 20, VN)
    net.allow("users", "servers")
    net.deny("users", "iot")
    user, server, iot = (
        net.create_endpoint(name, name, VN)
        for name in ("users", "servers", "iot"))
    for index, endpoint in enumerate((user, server, iot)):
        net.admit(endpoint, index)
    net.settle()
    source, server_edge, iot_edge = net.edges
    # The first packet of each flow resolves via the border; the next
    # two are decided (and, with megaflow, replayed) at the source.
    for _ in range(3):
        net.send(user, server)
        net.settle()
        net.send(user, iot)
        net.settle()
    # The server edge drops out of the underlay without a message
    # reaching the source: the charged packet falls back to the border.
    net.underlay.set_announced(server_edge.rloc, False)
    net.send(user, server, count=2)
    net.settle()

    assert _acl_ledger(source) == {
        "acl_hits": 5, "acl_drops": 2, "policy_drops": 2,
        "ingress_policy_drops": 2, "unreachable_fallbacks": 1,
        "to_border_default": 4,
    }
    # Only the border-relayed first packet is checked again at egress:
    # every later one carries the "policy applied" bit.
    assert server_edge.acl.hits == 1
    assert server.packets_received == 3
    assert iot_edge.counters.policy_drops == 1
    assert iot.packets_received == 0


@pytest.mark.parametrize("megaflow", [False, True])
def test_station_whose_radio_left_is_not_local_anymore(megaflow):
    net = FabricNetwork(FabricConfig(num_edges=3, seed=11, megaflow=megaflow))
    wifi = WirelessFabric(net, WirelessConfig(aps_per_edge=2))
    net.define_vn("wifi", VN, "10.0.0.0/16")
    net.define_group("stations", 1, VN)
    net.allow("stations", "stations")
    a = wifi.create_station("a", "stations", VN)
    b = wifi.create_station("b", "stations", VN)
    wifi.associate(a, 0)
    wifi.associate(b, 1)         # both APs hang off edge 0
    net.settle()
    edge0 = net.edges[0]
    net.send(a, b)               # warm: a local delivery at edge 0
    net.settle()
    key = (DIR_INGRESS, VN, 1, b.ip)
    if megaflow:
        assert edge0.megaflow.lookup(key, net.sim.now) is not None

    wifi.associate(b, 2)         # radio moves to an AP on edge 1
    net.send(a, b, count=3)
    net.run_for(0.0005)
    # b's VRF entry lingers at edge 0 until the WLC re-registers it, but
    # the packets no longer treat it as local: the cached decision was
    # dropped by the per-packet re-check, not by an invalidation.
    lingering = edge0.vrf.lookup_ip(VN, b.ip)
    assert lingering is not None and lingering.endpoint.edge is None
    if megaflow:
        assert edge0.megaflow.lookup(key, net.sim.now) is None
    net.settle()

    assert b.packets_received == 4
    # Sec. 5.2's transient loop: edge 0 and the border bounce the three
    # packets until the new registration lands.
    assert edge0.counters.local_deliveries == 1
    assert edge0.counters.stale_deliveries == 90
    assert edge0.counters.to_border_default == 93
