"""Unit tests for the metric registry and counter normalization."""

import json

import pytest

from repro import obs
from repro.core.counters import Counters
from repro.fabric import FabricConfig, FabricNetwork
from repro.fabric.edge import EdgeRouterCounters
from repro.multisite import MultiSiteConfig, MultiSiteNetwork
from repro.obs.metrics import COUNT_BOUNDS, Histogram, MetricRegistry
from repro.sim.simulator import Simulator
from tests.conftest import admit_and_settle


class _WidgetCounters(Counters):
    FIELDS = ("frobs", "in_", "errors")
    METRIC_NAMES = {"in_": "widgets_in"}


# ---------------------------------------------------------------------- naming
def test_metric_dict_exports_normalized_names_as_dict_stays_legacy():
    counters = EdgeRouterCounters()
    counters.wireless_in += 2
    assert counters.metric_dict()["wireless_packets_in"] == 2
    # The ledger-facing export keeps the legacy spelling untouched.
    assert "wireless_in" in counters.as_dict()
    assert "wireless_packets_in" not in counters.as_dict()


def test_metric_names_validation_rejects_bad_maps():
    with pytest.raises(TypeError):
        class _BadField(Counters):
            FIELDS = ("a",)
            METRIC_NAMES = {"nope": "whatever"}
    with pytest.raises(TypeError):
        class _Shadow(Counters):
            FIELDS = ("a", "b")
            METRIC_NAMES = {"a": "b"}      # would shadow the real field b


# ---------------------------------------------------------------------- registry
def test_enroll_and_snapshot():
    sim = Simulator()
    registry = MetricRegistry(sim)
    counters = _WidgetCounters()
    registry.enroll("site0.widget", counters)
    registry.gauge("site0.depth", lambda: 5)
    hist = registry.histogram("site0.wait_s")
    hist.record(0.002)
    counters.frobs += 1
    snap = registry.snapshot()
    assert snap["t"] == sim.now
    assert snap["counters"]["site0.widget"]["frobs"] == 1
    assert snap["counters"]["site0.widget"]["widgets_in"] == 0
    assert snap["gauges"]["site0.depth"] == 5
    assert snap["histograms"]["site0.wait_s"]["count"] == 1


def test_reenroll_same_object_is_noop_different_object_raises():
    registry = MetricRegistry()
    counters = _WidgetCounters()
    registry.enroll("w", counters)
    registry.enroll("w", counters)
    with pytest.raises(ValueError):
        registry.enroll("w", _WidgetCounters())


def test_histogram_buckets_and_stats():
    hist = Histogram("batch", COUNT_BOUNDS)
    for value in (1, 2, 2, 500):
        hist.record(value)
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["counts"][0] == 1          # <= 1
    assert snap["counts"][1] == 2          # <= 2
    assert snap["counts"][-1] == 1         # overflow bucket
    assert snap["min"] == 1 and snap["max"] == 500
    assert hist.mean == pytest.approx(505 / 4)


def test_enroll_sim_gauges_kernel_state():
    sim = Simulator()
    registry = MetricRegistry(sim)
    registry.enroll_sim(sim)
    sim.schedule(1.0, lambda: None)
    snap = registry.snapshot()
    assert snap["gauges"]["sim.queue_depth"] == 1
    assert snap["gauges"]["sim.queue_compactions"] == 0


# ---------------------------------------------------------------------- sampling
def test_daemon_sampler_never_wedges_run():
    sim = Simulator()
    registry = MetricRegistry(sim)
    registry.start(0.5)
    sim.schedule(2.0, lambda: None)
    # run() drains real work and stops even though the sampler keeps
    # rescheduling itself; a non-daemon sampler would loop forever.
    sim.run()
    assert sim.now == 2.0
    # Ticks fire at 0.5/1.0/1.5; once the t=2.0 event drains the last
    # real work, run() stops before the daemon tick due at the same time.
    assert len(registry.samples) == 3
    assert not sim.pending
    registry.stop()


def test_sampler_stop_halts_ticks():
    sim = Simulator()
    registry = MetricRegistry(sim)
    registry.start(1.0)
    sim.schedule(0.5, registry.stop)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert len(registry.samples) <= 1


def test_restart_before_the_pending_tick_runs_one_chain():
    sim = Simulator()
    registry = MetricRegistry(sim)
    registry.start(1.0)
    sim.run(until=0.5)
    registry.stop()
    registry.start(1.0)
    sim.run(until=10.0)
    # One chain from t=0.5: 1.5, 2.5, ... 9.5; the first chain is gone.
    assert [row["t"] for row in registry.samples] == [
        0.5 + k for k in range(1, 10)]


def test_start_validates_arguments():
    with pytest.raises(ValueError):
        MetricRegistry(None).start(1.0)
    with pytest.raises(ValueError):
        MetricRegistry(Simulator()).start(0.0)


def test_export_jsonl_round_trips(tmp_path):
    sim = Simulator()
    registry = MetricRegistry(sim)
    registry.gauge("g", lambda: 1)
    registry.sample()
    registry.sample()
    path = tmp_path / "metrics.jsonl"
    assert registry.export_jsonl(str(path)) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["gauges"]["g"] == 1
    assert all("t" in row for row in rows)


# ---------------------------------------------------------------------- wiring
def test_map_cache_gauges_follow_an_edge_reboot():
    net = FabricNetwork(FabricConfig(num_edges=2, seed=3))
    net.define_vn("corp", 100, "10.1.0.0/16")
    net.define_group("users", 1, 100)
    net.allow("users", "users")
    registry = obs.enable(net, tracing=False).metrics
    a = net.create_endpoint("a", "users", 100)
    b = net.create_endpoint("b", "users", 100)
    admit_and_settle(net, a, 0)
    admit_and_settle(net, b, 1)
    net.send(a, b)
    net.settle()
    edge = net.edges[0]
    gauges = registry.snapshot()["gauges"]
    assert gauges["edge-0.map_cache.occupancy"] == 1
    edge.reboot(duration_s=1.0)
    assert edge.map_cache.occupancy() == 0
    gauges = registry.snapshot()["gauges"]
    assert gauges["edge-0.map_cache.occupancy"] == 0
    assert gauges["edge-0.map_cache.hits"] == edge.map_cache.hits == 0
    net.settle()


def test_transit_cache_gauges_follow_a_border_failure():
    net = MultiSiteNetwork(MultiSiteConfig(num_sites=2, edges_per_site=2,
                                           seed=11))
    net.define_vn("corp", 100, "10.4.0.0/16")
    net.define_group("users", 1, 100)
    net.allow("users", "users")
    net.settle()
    registry = obs.enable(net, tracing=False).metrics
    a = net.create_endpoint("a", "users", 100)
    b = net.create_endpoint("b", "users", 100)
    net.admit(a, 0)
    net.admit(b, 1)
    net.settle()
    net.send(a, b)
    net.settle()
    border = net.sites[0].borders[0]
    name = "site0.%s.transit_cache.occupancy" % border.name
    assert registry.snapshot()["gauges"][name] >= 1
    border.fail()
    assert border.transit_cache.occupancy() == 0
    assert registry.snapshot()["gauges"][name] == 0
