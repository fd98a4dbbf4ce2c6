"""Property: megaflow stays invisible on a multi-site *wireless* fabric.

``test_dataplane_fastpath.py`` holds the megaflow cache to the
per-packet slow path on a wired single-site fabric, which never reaches
the border relay, the transit leg or the away table.  This lifts the
same oracle — an identical fabric with the flag off, identical
randomness — to the deployment the per-EID invalidation exists for:
stations roaming between APs of one edge, between edges and between
sites (including A→B→A bounces that land while the first move's
notify, handoff withdrawal and away anchor are still in flight), while
packets flow locally and hairpinned across both border legs and group
rules flip.  Two sites is the benchmark's shape; the third adds the
onward move that re-points an away anchor without any publish.

Nothing is settled between operations.  Whatever the interleaving, the
two runs must be indistinguishable: every endpoint's delivered-packet
sequence (content and timestamps) and every edge, border, AP, WLC, ACL
and underlay ledger.  A cached decision that outlives the state it was
taken from — an entry a scoped invalidation should have dropped and did
not — shows up as a packet delivered elsewhere, later, or not at all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multisite import MultiSiteConfig, MultiSiteNetwork
from repro.wireless import MultiSiteWireless, WirelessConfig

VN = 640
EDGES_PER_SITE = 2
APS_PER_EDGE = 2
APS_PER_SITE = EDGES_PER_SITE * APS_PER_EDGE
NUM_STATIONS = 3
#: AP operands are drawn from this range and wrapped to the fabric's size
AP_DRAWS = 3 * APS_PER_SITE
GROUPS = ("stations", "servers")

#: how long the fabric runs after an operation before the next one: a
#: fraction of an air delay, of a WLC/transit round trip, of a whole roam
gaps = st.sampled_from((0.0002, 0.003, 0.03))

# ("traffic", count): every endpoint sends to every other one — local,
# cross-edge and hairpinned flows at once — so each edge and both borders
# hold a decision for every destination that a later move can leave stale
# | ("roam", station, ap) | ("bounce", station, ap, gap before coming back)
# | ("leave", station) | ("policy", src group, dst group, allow)
operations = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("traffic"), st.integers(1, 2)),
            st.tuples(st.just("roam"),
                      st.integers(0, NUM_STATIONS - 1),
                      st.integers(0, AP_DRAWS - 1)),
            st.tuples(st.just("bounce"),
                      st.integers(0, NUM_STATIONS - 1),
                      st.integers(0, AP_DRAWS - 1),
                      gaps),
            st.tuples(st.just("leave"), st.integers(0, NUM_STATIONS - 1)),
            st.tuples(st.just("policy"),
                      st.sampled_from(GROUPS),
                      st.sampled_from(GROUPS),
                      st.booleans()),
        ),
        gaps,
    ),
    min_size=1, max_size=16,
)


def _build(megaflow, enforcement, num_sites):
    net = MultiSiteNetwork(MultiSiteConfig(
        num_sites=num_sites, edges_per_site=EDGES_PER_SITE, seed=41,
        megaflow=megaflow, enforcement=enforcement,
    ))
    wifi = MultiSiteWireless(net, WirelessConfig(aps_per_edge=APS_PER_EDGE))
    net.define_vn("wifi", VN, "10.64.0.0/15")
    net.define_group("stations", 10, VN)
    net.define_group("servers", 30, VN)
    net.allow("stations", "servers")
    deliveries = []

    def sink(endpoint, packet, now):
        inner = packet.inner
        deliveries.append((endpoint.identity, str(inner.src), str(inner.dst),
                           inner.ttl, packet.size, packet.train, now))

    stations = [
        wifi.create_station("sta-%d" % index, "stations", VN, sink=sink)
        for index in range(NUM_STATIONS)
    ]
    servers = []
    for site in range(num_sites):
        server = net.create_endpoint("srv-%d" % site, "servers", VN, sink=sink)
        net.admit(server, site, 0)
        servers.append(server)
    net.settle()
    for index, station in enumerate(stations):
        # homes: site 0 edge 0, site 1 edge 0, then site 0's second edge
        wifi.associate(station, (0, APS_PER_SITE, APS_PER_EDGE)[index])
    net.settle()
    return net, wifi, stations + servers, deliveries


def _can_send(endpoint):
    associated = getattr(endpoint, "associated", None)
    return endpoint.attached if associated is None else associated


def _drive(net, wifi, endpoints, ops):
    for op, gap in ops:
        if op[0] == "traffic":
            for src in endpoints:
                for dst in endpoints:
                    if _can_send(src) and dst is not src:
                        net.send(src, dst.ip, size=600, count=op[1])
        elif op[0] == "roam":
            wifi.roam(endpoints[op[1]], op[2] % len(wifi.aps))
        elif op[0] == "bounce":
            _, index, ap, away_for = op
            origin = endpoints[index].ap
            wifi.roam(endpoints[index], ap % len(wifi.aps))
            net.run_for(away_for)
            if origin is not None:
                wifi.roam(endpoints[index], origin)
        elif op[0] == "leave":
            wifi.disassociate(endpoints[op[1]])
        else:
            _, src_group, dst_group, allow = op
            verb = net.allow if allow else net.deny
            verb(src_group, dst_group, symmetric=False)
        net.run_for(gap)      # packets race the control plane
    net.settle(max_time=300.0)


def _ledgers(net, wifi):
    edges = [edge for site in net.sites for edge in site.edges]
    borders = [border for site in net.sites for border in site.borders]
    underlays = [site.underlay for site in net.sites] + [net.transit_underlay]
    return {
        "edges": [edge.counters.as_dict() for edge in edges],
        "pre_auth": [edge.pre_auth_drops for edge in edges],
        "acl": [(edge.acl.hits, edge.acl.drops,
                 sorted(edge.acl.rule_hits.items())) for edge in edges],
        "borders": [border.counters.as_dict() for border in borders],
        "aps": [ap.counters.as_dict() for ap in wifi.aps],
        "wlcs": [wlc.stats.as_dict() for wlc in wifi.wlcs],
        "underlays": [underlay.counters.as_dict() for underlay in underlays],
    }


@pytest.mark.parametrize("num_sites", [2, 3])
@given(operations, st.sampled_from(("egress", "ingress")))
@settings(max_examples=25, deadline=None)
def test_megaflow_is_bit_identical_across_wireless_roams(num_sites, ops,
                                                         enforcement):
    slow = _build(False, enforcement, num_sites)
    fast = _build(True, enforcement, num_sites)
    _drive(slow[0], slow[1], slow[2], ops)
    _drive(fast[0], fast[1], fast[2], ops)

    # Exact delivered sequences: same packets, same bits, same times.
    assert fast[3] == slow[3]
    assert _ledgers(fast[0], fast[1]) == _ledgers(slow[0], slow[1])
    # The comparison compared something: the flag-off fabric ran
    # without the cache, the flag-on one consulted it.
    assert all(edge.megaflow is None
               for site in slow[0].sites for edge in site.edges)
    sent = sum(endpoint.packets_sent for endpoint in fast[2])
    lookups = sum(device.megaflow.hits + device.megaflow.misses
                  for site in fast[0].sites
                  for device in site.edges + site.borders)
    assert lookups >= sent
