"""Isolated layer micro-probes (source P): public functions in tight loops.

Each probe times one operation of one layer with nothing else running,
so a change to that layer shows here first and undiluted; the workloads
then say whether it matters end to end.  A probe reports the *fastest*
of several batches — the floor is what the code costs, the rest is the
host.  Folds ``benchmarks/test_bench_core_micro.py``.
"""

from __future__ import annotations

import time

from repro.core.batching import Batcher
from repro.core.queueing import SerialQueue
from repro.core.types import EndpointId, GroupId, VNId
from repro.lisp import wire
from repro.lisp.mapcache import MapCache
from repro.lisp.records import MappingDatabase, MappingRecord
from repro.net.addresses import IPv4Address, Prefix
from repro.net.fastpath import ACT_ENCAP, MegaflowCache, MegaflowEntry
from repro.net.packet import make_udp_packet
from repro.net.trie import PatriciaTrie
from repro.net.vxlan import EncapTemplate, decapsulate, encapsulate
from repro.policy.acl import GroupAcl
from repro.policy.groups import SegmentationPlan
from repro.policy.matrix import PolicyRule
from repro.policy.server import PolicyServer
from repro.sim.simulator import Simulator
from repro.underlay.linkstate import IgpDomain
from repro.underlay.network import UnderlayNetwork
from repro.underlay.topology import Topology

BATCHES = 5
BATCH_SECONDS = 0.03

_BASE = 0x0A000000


def _host(index):
    return IPv4Address(_BASE + index)


def fastest(operation, per_call=1, batch_seconds=BATCH_SECONDS):
    """Seconds per operation: best of ``BATCHES`` timed batches."""
    def batch(calls):
        started = time.perf_counter()
        for _ in range(calls):
            operation()
        return time.perf_counter() - started

    operation()     # first call pays lazy set-up
    calls = 1
    while batch(calls) < batch_seconds / 4 and calls < 1 << 20:
        calls *= 4
    best = min(batch(calls) for _ in range(BATCHES))
    return best / (calls * per_call)


# ---------------------------------------------------------------------- sim
def probe_sim_event():
    def chain_of_events():
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.schedule(0.001, chain, remaining - 1)

        chain(2000)
        sim.run()

    return fastest(chain_of_events, per_call=2000) * 1e9


# ---------------------------------------------------------------------- net
def _filled_trie(count):
    trie = PatriciaTrie()
    for index in range(count):
        trie.insert(Prefix(_host(index), 32), index)
    return trie


def probe_trie_lookup():
    trie = _filled_trie(10000)
    targets = [_host(index * 37 % 10000) for index in range(64)]

    def lookups():
        for target in targets:
            trie.lookup_longest(target)

    return fastest(lookups, per_call=len(targets)) * 1e9


def probe_trie_update():
    trie = _filled_trie(1000)
    prefix = Prefix(IPv4Address(0x0B000000), 32)

    def cycle():
        trie.insert(prefix, "x")
        trie.delete(prefix)

    return fastest(cycle, per_call=2) * 1e9


def _packet():
    return make_udp_packet(_host(1), _host(2), 40000, 40000, size=600)


def probe_vxlan_encap():
    src, dst = IPv4Address(0xC0A80001), IPv4Address(0xC0A80002)
    vn, group = VNId(4098), GroupId(10)
    packet = _packet()

    def round_trip():
        encapsulate(packet, src, dst, vn, group)
        decapsulate(packet)

    return fastest(round_trip) * 1e9


def probe_vxlan_template():
    template = EncapTemplate(IPv4Address(0xC0A80001), IPv4Address(0xC0A80002),
                             VNId(4098), GroupId(10))
    packet = _packet()

    def round_trip():
        template.apply(packet)
        decapsulate(packet)

    return fastest(round_trip) * 1e9


def probe_megaflow_hit():
    cache = MegaflowCache()
    keys = [(0, 4098, 10, _host(index)) for index in range(64)]
    for key in keys:
        cache.install(key, MegaflowEntry(ACT_ENCAP, expires_at=1e9))

    def hits():
        for key in keys:
            cache.lookup(key, 1.0)

    return fastest(hits, per_call=len(keys)) * 1e9


# ---------------------------------------------------------------------- lisp
def _filled_cache(count):
    cache = MapCache(Simulator())
    rloc = IPv4Address(0xC0A80001)
    for index in range(count):
        cache.install(VNId(1), Prefix(_host(index), 32), rloc, group=GroupId(1))
    return cache


def probe_mapcache_hit():
    cache = _filled_cache(1000)
    vn = VNId(1)
    # alternate targets so the single-entry hot cache does not answer
    targets = [_host(index * 7 % 1000) for index in range(64)]

    def hits():
        for target in targets:
            cache.lookup(vn, target)

    return fastest(hits, per_call=len(targets)) * 1e9


def probe_mapcache_miss():
    cache = _filled_cache(1000)
    vn = VNId(1)
    targets = [IPv4Address(0x0B000000 + index) for index in range(64)]

    def misses():
        for target in targets:
            cache.lookup(vn, target)

    return fastest(misses, per_call=len(targets)) * 1e9


def _filled_database(count):
    database = MappingDatabase()
    rloc = IPv4Address(0xC0A80001)
    for index in range(count):
        database.register(MappingRecord(VNId(1), Prefix(_host(index), 32),
                                        rloc, group=GroupId(1)))
    return database


def probe_mapdb_register():
    database = _filled_database(5000)
    vn, group = VNId(1), GroupId(1)
    rlocs = (IPv4Address(0xC0A80001), IPv4Address(0xC0A80002))
    eid = Prefix(_host(2500), 32)
    flip = [0]

    def move():
        flip[0] ^= 1
        database.register(MappingRecord(vn, eid, rlocs[flip[0]], group=group))

    return fastest(move) * 1e9


def probe_mapdb_lookup():
    database = _filled_database(5000)
    vn = VNId(1)
    targets = [_host(index * 37 % 5000) for index in range(64)]

    def lookups():
        for target in targets:
            database.lookup(vn, target)

    return fastest(lookups, per_call=len(targets)) * 1e9


def probe_wire_codec():
    vn = VNId(4098)
    eid = Prefix(_host(7), 32)
    reply_to = IPv4Address(0xC0A80001)

    def codec():
        wire.decode_map_request(wire.encode_map_request(42, vn, eid, reply_to))

    return fastest(codec) * 1e9


# ---------------------------------------------------------------------- policy
def probe_acl_eval():
    acl = GroupAcl()
    acl.program([PolicyRule(GroupId(10), GroupId(30), "allow"),
                 PolicyRule(GroupId(10), GroupId(20), "deny")])
    src, dst = GroupId(10), GroupId(30)
    return fastest(lambda: acl.evaluate(src, dst)) * 1e9


def probe_policy_auth():
    """One auth with 2,000 live sessions: credential check, rule slice,
    and the hosted-groups scan every accepted auth triggers."""
    plan = SegmentationPlan()
    plan.add_vn(4098, "campus")
    plan.add_group(10, "stations", 4098)
    plan.add_group(30, "servers", 4098)
    server = PolicyServer(Simulator(), plan)
    server.set_rule(10, 30, "allow")
    rlocs = [IPv4Address(0xC0A80001 + index) for index in range(8)]
    for index in range(2000):
        identity = "sta-%d" % index
        server.enroll(identity, "secret", GroupId(10), VNId(4098))
        server.sessions[EndpointId(identity)] = (rlocs[index % 8], GroupId(10))

    def auth():
        server.authenticate("sta-1000", "secret")
        server.groups_at(rlocs[0])

    return fastest(auth) * 1e6


# ---------------------------------------------------------------------- underlay
def _fabric_underlay(sim, use_igp):
    topology, spines, leaves = Topology.two_tier(num_spines=2, num_leaves=8)
    igp = None
    if use_igp:
        igp = IgpDomain(sim, topology)
        for node in topology.nodes():
            igp.add_router(node)
        igp.start()
        sim.run()
    return UnderlayNetwork(sim, topology, igp=igp), igp, leaves


def probe_underlay_send():
    sim = Simulator()
    underlay, _igp, leaves = _fabric_underlay(sim, use_igp=False)
    src, dst = IPv4Address(0xC0A80001), IPv4Address(0xC0A80002)
    underlay.attach(src, leaves[0], lambda packet: None)
    underlay.attach(dst, leaves[1], lambda packet: None)
    packet = _packet()

    def send_and_deliver():
        for _ in range(64):
            underlay.send(src, dst, packet)
        sim.run()

    return fastest(send_and_deliver, per_call=64) * 1e9


def probe_underlay_spf():
    sim = Simulator()
    _underlay, igp, leaves = _fabric_underlay(sim, use_igp=True)
    router = igp.router(leaves[0])
    return fastest(router.run_spf) * 1e3


# ---------------------------------------------------------------------- core
def probe_serialqueue_submit():
    def submit_and_drain():
        sim = Simulator()
        queue = SerialQueue(sim)
        for _ in range(64):
            queue.submit(1e-4, _nothing)
        sim.run()

    return fastest(submit_and_drain, per_call=64) * 1e9


def probe_batcher_submit():
    def submit_and_flush():
        sim = Simulator()
        batcher = Batcher(sim, _nothing, window_s=1e-3)
        for index in range(64):
            batcher.submit(index)
        sim.run()

    return fastest(submit_and_flush, per_call=64) * 1e9


def _nothing(*_args):
    return None


#: metric name -> (probe, unit)
PROBES = {
    "probe.sim.event_ns": (probe_sim_event, "ns"),
    "probe.net.trie.lookup_ns": (probe_trie_lookup, "ns"),
    "probe.net.trie.update_ns": (probe_trie_update, "ns"),
    "probe.net.vxlan.encap_ns": (probe_vxlan_encap, "ns"),
    "probe.net.vxlan.template_ns": (probe_vxlan_template, "ns"),
    "probe.net.megaflow.hit_ns": (probe_megaflow_hit, "ns"),
    "probe.lisp.mapcache.hit_ns": (probe_mapcache_hit, "ns"),
    "probe.lisp.mapcache.miss_ns": (probe_mapcache_miss, "ns"),
    "probe.lisp.mapdb.register_ns": (probe_mapdb_register, "ns"),
    "probe.lisp.mapdb.lookup_ns": (probe_mapdb_lookup, "ns"),
    "probe.lisp.wire.codec_ns": (probe_wire_codec, "ns"),
    "probe.policy.acl.eval_ns": (probe_acl_eval, "ns"),
    "probe.policy.server.auth_us": (probe_policy_auth, "us"),
    "probe.underlay.send_ns": (probe_underlay_send, "ns"),
    "probe.underlay.spf_ms": (probe_underlay_spf, "ms"),
    "probe.core.serialqueue.submit_ns": (probe_serialqueue_submit, "ns"),
    "probe.core.batcher.submit_ns": (probe_batcher_submit, "ns"),
}


def run_probes():
    return {name: probe() for name, (probe, _unit) in PROBES.items()}
