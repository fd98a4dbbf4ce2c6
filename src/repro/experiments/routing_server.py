"""Fig. 7: routing server performance under load.

The paper's driver sent 800 queries/s at a virtual-router map-server and
measured response delay while varying (a) the number of installed routes
(fig. 7a requests, fig. 7b updates) and (b) the query rate (fig. 7c).
Findings to reproduce:

* delay is **flat in the number of routes** — Patricia trie lookup work
  depends on key width, not occupancy;
* delay **rises with queries/s** — a single service queue saturating;
* values are reported **relative to the minimum** observed.
"""

from __future__ import annotations

from repro.core.types import VNId, GroupId
from repro.lisp.mapserver import RoutingServer
from repro.lisp.messages import MapRegister, MapRequest
from repro.lisp.records import MappingRecord
from repro.net.addresses import IPv4Address, Prefix
from repro.sim.simulator import Simulator
from repro.stats.summaries import boxplot

VN = VNId(1)
GROUP = GroupId(1)
_RLOC = IPv4Address.parse("192.168.0.1")
_EID_BASE = int(IPv4Address.parse("10.0.0.0"))


def _make_server(num_routes, seed=11):
    """A routing server preloaded with ``num_routes`` IPv4 host routes."""
    sim = Simulator()
    server = RoutingServer(sim, underlay=None, seed=seed)
    records = []
    for index in range(num_routes):
        eid = Prefix(IPv4Address(_EID_BASE + index), 32)
        records.append(MappingRecord(VN, eid, _RLOC, group=GROUP))
    server.preload(records)
    return sim, server


def _measure(sim, server, messages, queries_per_second, seed=29):
    """Feed messages at ``queries_per_second``; return per-message delays.

    Arrivals are Poisson at the target rate — a scripted UDP driver over a
    real network exhibits this burstiness, and it is what makes fig. 7c's
    delay climb with offered load.  The delay of message *i* is
    (processing finish − arrival).
    """
    from repro.sim.rng import SeededRng

    rng = SeededRng(seed)
    arrivals = {}
    delays = []

    def on_processed(message, finish_time):
        arrived = arrivals.pop(id(message), None)
        if arrived is not None:
            delays.append(finish_time - arrived)

    server.on_processed = on_processed
    start = sim.now

    def submit(message):
        arrivals[id(message)] = sim.now
        server.handle_message(message)

    at = start
    for message in messages:
        at += rng.expovariate(queries_per_second)
        sim.post_at(at, submit, message)
    sim.run()
    server.on_processed = None
    return delays


def _request_messages(count, num_routes):
    """Each query asks for a *different* route (defeats caching, like the
    paper's methodology)."""
    messages = []
    for index in range(count):
        eid = Prefix(IPv4Address(_EID_BASE + (index % max(1, num_routes))), 32)
        messages.append(MapRequest(VN, eid, reply_to=None))
    return messages


def _update_messages(count, num_routes):
    messages = []
    for index in range(count):
        eid = Prefix(IPv4Address(_EID_BASE + (index % max(1, num_routes))), 32)
        messages.append(MapRegister(VN, eid, _RLOC, GROUP))
    return messages


def run_fig7a(route_counts=(10, 100, 1000, 10000), queries=10000,
              queries_per_second=800, seed=11):
    """Fig. 7a: request delay vs. #routes.  Returns label -> BoxplotStats.

    Delays are normalized to the minimum delay observed with a one-route
    server (the paper's reference point).
    """
    sim_ref, server_ref = _make_server(1, seed=seed)
    reference = min(_measure(sim_ref, server_ref,
                             _request_messages(1000, 1), queries_per_second))
    results = {}
    for num_routes in route_counts:
        sim, server = _make_server(num_routes, seed=seed)
        delays = _measure(sim, server,
                          _request_messages(queries, num_routes),
                          queries_per_second)
        results[num_routes] = boxplot([d / reference for d in delays])
    return results


def run_fig7b(route_counts=(10, 100, 1000, 10000), queries=10000,
              queries_per_second=800, seed=11):
    """Fig. 7b: update (Map-Register) delay vs. #routes."""
    sim_ref, server_ref = _make_server(1, seed=seed)
    reference = min(_measure(sim_ref, server_ref,
                             _update_messages(1000, 1), queries_per_second))
    results = {}
    for num_routes in route_counts:
        sim, server = _make_server(num_routes, seed=seed)
        delays = _measure(sim, server,
                          _update_messages(queries, num_routes),
                          queries_per_second)
        results[num_routes] = boxplot([d / reference for d in delays])
    return results


def run_fig7c(rates=(500, 1000, 1500, 2000), queries=10000,
              num_routes=10000, seed=11):
    """Fig. 7c: request delay vs. queries/s, relative to the global min."""
    raw = {}
    for rate in rates:
        sim, server = _make_server(num_routes, seed=seed)
        raw[rate] = _measure(sim, server,
                             _request_messages(queries, num_routes), rate)
    floor = min(min(delays) for delays in raw.values())
    return {rate: boxplot([d / floor for d in delays])
            for rate, delays in raw.items()}


def flatness_ratio(results):
    """Max/min of medians across the x-axis — ~1.0 means a flat curve."""
    medians = [stats.median for stats in results.values()]
    return max(medians) / min(medians)


def run_horizontal_scaling(server_counts=(1, 2, 4), total_qps=2400,
                           queries=6000, num_routes=10000, seed=11):
    """Sec. 4.1 scale-out: split request load over k routing servers.

    The paper: "in case we needed to increase [800 qps], the architecture
    scales horizontally and can deploy more routing servers ... grouping
    [edges] and pointing each group to a different routing server for the
    route requests".  Requests split evenly; each server still sees every
    update (not modelled here — this drive is requests-only, the
    dominating load).  Returns ``{k: BoxplotStats}`` of absolute delays.
    """
    results = {}
    for count in server_counts:
        per_server_rate = total_qps / count
        per_server_queries = queries // count
        delays = []
        for index in range(count):
            sim, server = _make_server(num_routes, seed=seed + index)
            delays.extend(_measure(
                sim, server,
                _request_messages(per_server_queries, num_routes),
                per_server_rate, seed=seed + 100 + index,
            ))
        results[count] = boxplot(delays)
    return results
