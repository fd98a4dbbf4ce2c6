"""Property: the data-plane fast path is invisible to everything but time.

The megaflow cache memoizes complete forwarding decisions and packet
trains collapse bursts into single events — neither may change *what*
the data plane does: which packets arrive where, which are dropped, and
what the policy ledgers record.  The oracle is the per-packet slow path
itself, driven through an identical fabric with identical randomness.

Two strengths of the claim:

* **megaflow alone** (trains off) adds and removes no events, so the two
  runs must be indistinguishable — every endpoint's delivered-packet
  *sequence* (content and timestamps) and every edge counter, including
  control-plane ones, is compared under arbitrarily racy interleavings
  of sends, roams and policy flips (no settling: packets are in flight
  while mappings move, SMRs fire, SXP updates land — precisely the
  invalidation paths that must not go stale);
* **megaflow + trains** changes event timing (a burst is one event), so
  ops are driven settled and the comparison is per-packet-equivalent:
  delivered multisets (train-expanded) plus every data-plane and
  enforcement counter.  Control-plane message counts (SMRs,
  Map-Requests) are legitimately coalesced by trains and excluded.

The ops also depart and re-admit endpoints, send to an in-VN address
nobody holds, crash and restart one of the two routing servers and let
sim time pass, so negative Map-Replies reach the edges.  One pinned
example walks the one race in which a negative reply meets a cached
decision for its own address: a Map-Request lost with a crashed server,
a Map-Notify installing the mapping meanwhile, the endpoint departing,
and the retry answered negative by the surviving server.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric.network import FabricConfig, FabricNetwork
from repro.net.addresses import IPv4Address

VN = 900
NUM_EDGES = 3
NUM_ENDPOINTS = 6
GROUPS = ("users", "servers", "iot")

NUM_SERVERS = 2
#: in the VN's prefix, above every DHCP lease the fabric hands out
UNHELD = [IPv4Address.parse("10.0.250.%d" % host) for host in (1, 2)]

# op encodings: ("send", src, dst, count) | ("roam", ep, edge)
#             | ("policy", src_group, dst_group, allow)
#             | ("depart", ep, edge): depart if attached, else re-admit
#             | ("unheld", src, index): send to an address nobody holds
#             | ("server", index): crash the server, or restart it
#             | ("wait", seconds)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("send"),
                  st.integers(0, NUM_ENDPOINTS - 1),
                  st.integers(0, NUM_ENDPOINTS - 1),
                  st.integers(1, 5)),
        st.tuples(st.just("roam"),
                  st.integers(0, NUM_ENDPOINTS - 1),
                  st.integers(0, NUM_EDGES - 1)),
        st.tuples(st.just("policy"),
                  st.sampled_from(GROUPS),
                  st.sampled_from(GROUPS),
                  st.booleans()),
        st.tuples(st.just("depart"),
                  st.integers(0, NUM_ENDPOINTS - 1),
                  st.integers(0, NUM_EDGES - 1)),
        st.tuples(st.just("unheld"),
                  st.integers(0, NUM_ENDPOINTS - 1),
                  st.integers(0, len(UNHELD) - 1)),
        st.tuples(st.just("server"), st.integers(0, NUM_SERVERS - 1)),
        st.tuples(st.just("wait"), st.sampled_from((0.05, 1.5))),
    ),
    min_size=1, max_size=14,
)

#: ep-3 leaves edge-0 while server 0, edge-0's, is down, so ep-0's
#: Map-Request for it is lost; server 1's Map-Notify to edge-0 (the
#: previous edge) installs the mapping a second send caches.  ep-3 then
#: departs, and the retry, which goes to server 1, comes back negative:
#: the last send must not hit the decision cached for ep-3.
NEGATIVE_REPLY_RACE = [
    ("server", 0), ("roam", 3, 1), ("send", 0, 3, 1), ("wait", 0.05),
    ("send", 0, 3, 1), ("depart", 3, 0), ("wait", 1.5), ("send", 0, 3, 1),
]


def _build(megaflow, enforcement="egress"):
    net = FabricNetwork(FabricConfig(
        num_edges=NUM_EDGES, num_routing_servers=NUM_SERVERS, seed=11,
        enforcement=enforcement, megaflow=megaflow,
    ))
    net.define_vn("campus", VN, "10.0.0.0/16")
    net.define_group("users", 10, VN)
    net.define_group("servers", 30, VN)
    net.define_group("iot", 20, VN)
    net.allow("users", "servers")
    net.deny("users", "iot")
    deliveries = []

    def sink(endpoint, packet, now):
        inner = packet.inner
        deliveries.append((endpoint.identity, str(inner.src), str(inner.dst),
                           inner.ttl, packet.size, packet.train, now))

    endpoints = []
    for index in range(NUM_ENDPOINTS):
        endpoint = net.create_endpoint(
            "ep-%d" % index, GROUPS[index % len(GROUPS)], VN, sink=sink)
        net.admit(endpoint, index % NUM_EDGES)
        endpoints.append(endpoint)
    net.settle()
    return net, endpoints, deliveries


def _drive(net, endpoints, ops, as_train, settle_each):
    for op in ops:
        if op[0] == "send":
            _, src, dst, count = op
            if endpoints[src].attached and endpoints[dst].ip is not None:
                net.send(endpoints[src], endpoints[dst].ip, size=600,
                         count=count, as_train=as_train)
        elif op[0] == "roam":
            _, index, edge = op
            if endpoints[index].attached:
                net.roam(endpoints[index], edge)
        elif op[0] == "depart":
            _, index, edge = op
            if endpoints[index].attached:
                net.depart(endpoints[index])
            else:
                net.admit(endpoints[index], edge)
        elif op[0] == "unheld":
            _, src, index = op
            if endpoints[src].attached:
                net.send(endpoints[src], UNHELD[index], size=600,
                         as_train=as_train)
        elif op[0] == "server":
            if net.routing_servers[op[1]].crashed:
                net.restart_routing_server(op[1])
            else:
                net.crash_routing_server(op[1])
        elif op[0] == "wait":
            net.run_for(op[1])
        else:
            _, src_group, dst_group, allow = op
            if allow:
                net.allow(src_group, dst_group, symmetric=False)
            else:
                net.deny(src_group, dst_group, symmetric=False)
        if settle_each:
            net.settle()
        else:
            net.run_for(0.0004)   # let packets race the control plane
    net.settle(max_time=120.0)


def _edge_counters(net):
    return [edge.counters.as_dict() for edge in net.edges]


#: data-plane + enforcement ledger (train-accounted, so comparable across
#: train modes); control-plane message counts are per-event and excluded.
_DATA_KEYS = ("packets_in", "packets_out", "local_deliveries",
              "encapsulated", "to_border_default", "policy_drops",
              "ingress_policy_drops", "ttl_drops", "stale_deliveries",
              "reforwarded", "miss_drops", "wireless_in")


def _data_counters(net):
    return [{key: edge.counters.as_dict()[key] for key in _DATA_KEYS}
            for edge in net.edges]


def _acl_image(net):
    return [(edge.acl.hits, edge.acl.drops, sorted(edge.acl.rule_hits.items()))
            for edge in net.edges]


def _expand(deliveries):
    """Per-packet-equivalent multiset: train entries count ``train`` times."""
    expanded = {}
    for identity, src, dst, ttl, size, train, _now in deliveries:
        key = (identity, src, dst, ttl, size)
        expanded[key] = expanded.get(key, 0) + train
    return expanded


@given(ops_strategy, st.booleans())
@example(NEGATIVE_REPLY_RACE, False)
@settings(max_examples=20, deadline=None)
def test_megaflow_is_bit_identical_to_oracle(ops, ingress):
    """Megaflow on/off, trains off: full equality under racy interleaving."""
    enforcement = "ingress" if ingress else "egress"
    slow = _build(megaflow=False, enforcement=enforcement)
    fast = _build(megaflow=True, enforcement=enforcement)
    _drive(slow[0], slow[1], ops, as_train=False, settle_each=False)
    _drive(fast[0], fast[1], ops, as_train=False, settle_each=False)

    # Exact delivered sequences: same packets, same bits, same times.
    assert fast[2] == slow[2]
    # Every counter on every edge — control plane included: the fast
    # path may not add, drop or reorder a single message.
    assert _edge_counters(fast[0]) == _edge_counters(slow[0])
    assert _acl_image(fast[0]) == _acl_image(slow[0])
    assert [b.counters.as_dict() for b in fast[0].borders] == \
           [b.counters.as_dict() for b in slow[0].borders]
    # And the flag-off fabric really ran without the cache.
    assert all(edge.megaflow is None for edge in slow[0].edges)


@given(ops_strategy)
@settings(max_examples=20, deadline=None)
def test_packet_trains_match_oracle_per_packet_equivalent(ops):
    """Megaflow + trains vs oracle: identical deliveries and ledgers."""
    slow = _build(megaflow=False)
    fast = _build(megaflow=True)
    _drive(slow[0], slow[1], ops, as_train=False, settle_each=True)
    _drive(fast[0], fast[1], ops, as_train=True, settle_each=True)

    assert _expand(fast[2]) == _expand(slow[2])
    assert _data_counters(fast[0]) == _data_counters(slow[0])
    assert _acl_image(fast[0]) == _acl_image(slow[0])
    delivered_slow = [ep.packets_received for ep in slow[1]]
    delivered_fast = [ep.packets_received for ep in fast[1]]
    assert delivered_fast == delivered_slow
