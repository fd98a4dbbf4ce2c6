"""Integration tests for the overload armor (bounded queues, admission,
backpressure, breakers, serve-stale) and its chaos verbs."""

import pytest

from repro import obs
from repro.chaos import stale_mappings
from repro.core.breaker import BreakerPolicy
from repro.core.queueing import PRIO_BULK, PRIO_CRITICAL, PRIO_NORMAL
from repro.core.retry import RetryPolicy
from repro.fabric import FabricConfig, FabricNetwork
from repro.lisp import (
    EidRecord,
    MapNotify,
    MapRegister,
    MapRequest,
    RoutingServer,
    control_packet,
)
from repro.net.addresses import IPv4Address, Prefix
from repro.wireless import WirelessFabric

RETRY = RetryPolicy(base_s=0.05, multiplier=2.0, max_delay_s=0.4,
                    max_attempts=8)
BREAKER = BreakerPolicy(failure_threshold=2, reset_timeout_s=0.3, jitter=0.0)


def _eid(text="10.9.0.5/32"):
    return Prefix.parse(text)


def _rloc(text="192.168.9.1"):
    return IPv4Address.parse(text)


# ------------------------------------------------------------------ defaults off
def test_default_fabric_carries_no_armor():
    net = FabricNetwork(FabricConfig(num_edges=2))
    assert not net.routing_server.queue.bounded
    assert net.routing_server.queue.pressure == 0.0
    for edge in net.edges:
        assert edge.pacer.breaker_policy is None
        assert edge.map_cache.serve_stale_s is None
        assert edge.pacer.factor == 1.0
        assert not edge.pacer.backpressure


# ------------------------------------------------------------------ classification
def test_message_classification(sim):
    server = RoutingServer(sim)
    classify = server._classify
    assert classify(MapRequest(1, _eid(), reply_to=None)) == PRIO_CRITICAL
    assert classify(MapRegister(1, _eid(), _rloc())) == PRIO_NORMAL
    assert classify(MapRegister(1, _eid(), _rloc(),
                                mobility=True)) == PRIO_CRITICAL
    assert classify(MapRegister(1, _eid(), _rloc(),
                                refresh=True)) == PRIO_BULK
    # A batch is bulk only when every record is a refresh; one roam
    # makes the whole batch load-bearing.
    refresh_rec = EidRecord(1, _eid(), _rloc(), refresh=True)
    roam_rec = EidRecord(1, _eid("10.9.0.6/32"), _rloc(), mobility=True)
    assert classify(MapRegister(records=[refresh_rec, refresh_rec])) == PRIO_BULK
    assert classify(MapRegister(records=[refresh_rec, roam_rec])) == PRIO_CRITICAL


def test_refreshes_shed_before_roams_on_a_bounded_server(sim):
    server = RoutingServer(sim, max_pending=10, service_jitter_s=0.0)
    # Six queued requests put pressure at 0.6: above the bulk bar,
    # below normal/critical.
    for _ in range(6):
        server.handle_message(MapRequest(1, _eid(), reply_to=None))
    assert server.queue.pressure == 0.6
    server.handle_message(MapRegister(1, _eid(), _rloc(), refresh=True))
    server.handle_message(MapRegister(1, _eid(), _rloc(), mobility=True))
    assert server.queue.shed_by_class[PRIO_BULK] == 1
    assert server.queue.shed_by_class[PRIO_CRITICAL] == 0
    sim.run()
    # The shed refresh never registered anything; the roam did.
    assert server.stats.registers == 1
    assert server.database.lookup(1, _eid()) is not None


def test_shed_messages_do_not_burn_rng_draws(sim):
    """A dropped message must not consume service-time entropy, or the
    armored and bare runs would diverge on every later jitter draw."""
    bounded = RoutingServer(sim, seed=3, max_pending=1)
    free = RoutingServer(sim, seed=3)
    probe = MapRequest(1, _eid(), reply_to=None)
    bounded.handle_message(probe)          # occupies the single slot
    bounded.handle_message(MapRequest(1, _eid(), reply_to=None))  # shed
    free.handle_message(probe)
    assert bounded.queue.shed_total == 1
    # Next draw from each server's rng must still agree.
    assert bounded._rng.uniform(0, 1) == free._rng.uniform(0, 1)


# ------------------------------------------------------------------ backpressure
def test_overloaded_ack_bit_rides_registrar_acks(sim):
    server = RoutingServer(sim, max_pending=10, service_jitter_s=0.0)
    register = MapRegister(1, _eid(), _rloc(), registrar_rloc=_rloc())
    server.handle_message(register)
    # Stuff the queue behind it so pressure is high at completion time.
    for _ in range(8):
        server.queue.submit(1.0, lambda: None)
    sim.run()
    assert server.overload_signals == 1
    # Same shape with a calm queue: no signal.
    server.handle_message(MapRegister(1, _eid(), _rloc(),
                                      registrar_rloc=_rloc()))
    sim.run()
    assert server.overload_signals == 1


def test_edge_backpressure_factor_is_aimd():
    net = FabricNetwork(FabricConfig(
        num_edges=2, batching=True, register_retry=RETRY, backpressure=True,
    ))
    pacer = net.edges[0].pacer
    server = net.routing_server.rloc
    pacer.batcher(server)                  # an open window to watch
    assert pacer.factor == 1.0
    pacer.on_ack(server, True)
    assert pacer.factor == 2.0
    pacer.on_ack(server, True)
    assert pacer.factor == 4.0
    for batcher in pacer.batchers.values():
        assert batcher.window_s == net.config.register_flush_s * 4.0
    pacer.on_ack(server, False)
    assert pacer.factor == 2.0
    pacer.on_ack(server, False)
    pacer.on_ack(server, False)
    assert pacer.factor == 1.0             # floor, never below
    assert pacer.overload_acks == 2
    for batcher in pacer.batchers.values():
        assert batcher.window_s == net.config.register_flush_s


def test_backpressure_factor_caps_at_max():
    net = FabricNetwork(FabricConfig(
        num_edges=2, register_retry=RETRY, backpressure=True,
    ))
    pacer = net.edges[0].pacer
    for _ in range(10):
        pacer.on_ack(net.routing_server.rloc, True)
    assert pacer.factor == pacer.MAX_FACTOR == 8.0


# ------------------------------------------------------------------ serve-stale
@pytest.fixture
def swr_fabric():
    net = FabricNetwork(FabricConfig(
        num_edges=2, map_cache_ttl=0.5, serve_stale_s=5.0,
    ))
    net.define_vn("corp", 100, "10.30.0.0/16")
    net.define_group("users", 1, 100)
    a = net.create_endpoint("swr-a", "users", 100)
    b = net.create_endpoint("swr-b", "users", 100)
    net.admit(a, 0)
    net.admit(b, 1)
    net.settle()
    return net, a, b


def test_stale_entry_serves_traffic_while_revalidating(swr_fabric):
    net, a, b = swr_fabric
    edge = net.edges[0]
    net.send(a, b.ip)
    net.settle()
    assert b.packets_received == 1
    first_expiry = edge.map_cache.lookup(100, b.ip).expires_at
    # Age the cache past its TTL but inside the serve-stale grace.
    net.run_for(1.0)
    requests_before = edge.counters.map_requests_sent
    net.send(a, b.ip)
    net.settle()
    # Delivered off the stale entry — no resolution round-trip stall —
    # and the lookup kicked off a re-resolution in the background.
    assert b.packets_received == 2
    assert edge.stale_served == 1
    assert edge.map_cache.stale_hits >= 1
    assert edge.counters.map_requests_sent == requests_before + 1
    # The background revalidation installed a fresh entry: its expiry
    # moved past the original one's.
    entry = edge.map_cache.lookup(100, b.ip)
    assert entry is not None and not entry.negative
    assert entry.expires_at > first_expiry


def test_stale_grace_expires_eventually(swr_fabric):
    net, a, b = swr_fabric
    edge = net.edges[0]
    net.send(a, b.ip)
    net.settle()
    # Past TTL + grace: the entry is gone, lookup is a plain miss.
    net.run_for(6.0)
    assert edge.map_cache.lookup(100, b.ip) is None


def test_sweep_honours_serve_stale_grace(swr_fabric):
    net, a, b = swr_fabric
    edge = net.edges[0]
    net.send(a, b.ip)
    net.settle()
    net.run_for(1.0)                       # expired, within grace
    assert edge.map_cache.sweep() == 0     # grace protects it
    net.run_for(5.0)                       # past grace
    assert edge.map_cache.sweep() >= 1


# ------------------------------------------------------------------ breakers
def test_breaker_defers_register_retries_to_a_dead_server():
    net = FabricNetwork(FabricConfig(
        num_edges=2, register_retry=RETRY, breaker=BREAKER,
    ))
    net.define_vn("corp", 100, "10.31.0.0/16")
    net.define_group("users", 1, 100)
    ep = net.create_endpoint("brk-a", "users", 100)
    net.admit(ep, 0)
    net.settle()
    edge = net.edges[0]
    net.crash_routing_server(0)
    # Roam while the server is dead: retries fail, the breaker opens
    # and starts deferring instead of hammering the corpse.
    net.roam(ep, 1)
    net.run_for(3.0)
    dest = net.edges[1]
    assert dest.pacer.breaker_opens + edge.pacer.breaker_opens >= 1
    deferrals = dest.pacer.deferrals + edge.pacer.deferrals
    assert deferrals >= 1
    # Recovery: restart, let the half-open probe land, oracle clean.
    net.restart_routing_server(0)
    net.run_for(3.0)
    net.settle()
    assert stale_mappings(net) == []


# ------------------------------------------------------------------ crash reset
def test_server_crash_resets_bounded_queue(sim):
    server = RoutingServer(sim, max_pending=8)
    for _ in range(5):
        server.handle_message(MapRequest(1, _eid(), reply_to=None))
    assert server.queue.depth == 5
    server.crash()
    assert server.queue.depth == 0
    assert server.queue.backlog_s == 0.0
    sim.run()
    # The queued completions died with the epoch; nothing was processed.
    assert server.stats.requests == 0
    server.restart()
    server.handle_message(MapRequest(1, _eid(), reply_to=None))
    sim.run()
    assert server.stats.requests == 1


# ------------------------------------------------------------------ chaos verbs
def test_overload_verbs_and_oracle_feed_check():
    net = FabricNetwork(FabricConfig(
        num_edges=2, server_max_pending=32, server_max_backlog_s=0.05,
    ))
    net.overload_server(0, rate_per_s=4000.0)
    net.overload_server(0, rate_per_s=9999.0)      # idempotent
    assert net._overload_feeds[0]["rate_per_s"] == 4000.0
    net.run_for(0.2)
    server = net.routing_server
    assert net._overload_feeds[0]["injected"] > 0
    assert server.queue.max_depth_seen <= 32
    assert server.queue.shed_total > 0
    # An active feed is itself an oracle violation...
    assert any("overload feed" in v for v in stale_mappings(net))
    # ...and relieving it heals the fabric completely.
    net.relieve_server(0)
    net.settle()
    assert stale_mappings(net) == []


# ------------------------------------------------------------------ observability
def test_enroll_overload_gauges():
    net = FabricNetwork(FabricConfig(
        num_edges=2, server_max_pending=16, register_retry=RETRY,
        backpressure=True, breaker=BREAKER, serve_stale_s=2.0,
    ))
    registry = obs.enable(net, tracing=False).metrics
    snapshot = registry.snapshot()
    gauges = snapshot["gauges"]
    assert gauges["routing-server-0.queue_depth"] == 0
    assert gauges["routing-server-0.queue_pressure"] == 0.0
    assert gauges["routing-server-0.shed_total"] == 0
    assert gauges["edge-0.bp_factor"] == 1.0
    assert gauges["edge-1.breaker_opens"] == 0
    net.overload_server(0, rate_per_s=6000.0)
    net.run_for(0.2)
    live = registry.snapshot()["gauges"]
    assert live["routing-server-0.shed_total"] > 0
    assert live["routing-server-0.max_depth_seen"] == 16
    net.relieve_server(0)
    net.settle()


# ------------------------------------------------------------------ WLC armor
def _armored_wireless():
    """The fabric's armor knobs, set once, must reach the WLC too."""
    net = FabricNetwork(FabricConfig(
        num_edges=2, batching=True, register_retry=RETRY,
        backpressure=True, breaker=BREAKER,
    ))
    wireless = WirelessFabric(net)
    net.define_vn("wifi", 100, "10.32.0.0/16")
    net.define_group("stations", 1, 100)
    station = wireless.create_station("sta", "stations", 100)
    return net, wireless, station


def _ack_wlc(net, wlc, overloaded):
    """A registrar ack from the routing server, overloaded bit as given."""
    server = net.routing_server.rloc
    record = EidRecord(100, _eid("10.32.9.9/32"), _rloc())
    ack = MapNotify(record.vn, record.eid, record)
    ack.overloaded = overloaded
    net.underlay.send(server, wlc.rloc, control_packet(server, wlc.rloc, ack))
    net.settle()


def test_wlc_batch_window_follows_the_overloaded_bit():
    net, wireless, station = _armored_wireless()
    wlc = wireless.wlc
    wireless.associate(station, 0)
    net.settle()
    flush_s = net.config.register_flush_s
    windows = [b.window_s for b in wlc.pacer.batchers.values()]
    assert windows == [flush_s]
    _ack_wlc(net, wlc, overloaded=True)
    assert wlc.pacer.factor == 2.0
    assert wlc.pacer.overload_acks == 1
    assert [b.window_s for b in wlc.pacer.batchers.values()] == [flush_s * 2.0]
    _ack_wlc(net, wlc, overloaded=False)
    assert wlc.pacer.factor == 1.0
    assert [b.window_s for b in wlc.pacer.batchers.values()] == [flush_s]


def test_wlc_breaker_defers_resends_to_a_dead_server_then_completes():
    net, wireless, station = _armored_wireless()
    wlc = wireless.wlc
    net.crash_routing_server(0)
    wireless.associate(station, 0)
    net.run_for(3.0)
    # Resends time out, the breaker opens, later timeouts are held back
    # instead of being sent into the dead server.
    assert wlc.pacer.breaker_opens >= 1
    assert wlc.pacer.deferrals > 0
    assert wlc.stats.registrar_acks_received == 0
    net.restart_routing_server(0)
    net.run_for(3.0)
    net.settle()
    # The half-open probe landed: the registration completed.
    assert wlc.stats.registrar_acks_received >= 1
    assert len(wlc.registration_delays) == 1
    record = net.routing_server.database.lookup(100, station.ip.to_prefix())
    assert record is not None and record.rloc == net.edges[0].rloc
    assert stale_mappings(net) == []
    # Both registrars show up in the overload gauges, breaker included.
    gauges = obs.enable(wireless, tracing=False).metrics.snapshot()["gauges"]
    assert gauges["wlc.breaker_opens"] == wlc.pacer.breaker_opens
    assert gauges["wlc.breaker_deferrals"] == wlc.pacer.deferrals
