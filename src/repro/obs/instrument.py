"""Wiring: attach an Observability bundle to a built topology.

This module is deliberately duck-typed — it dispatches on attribute
shape (``site_wireless``, ``wlc``+``aps``, ``sites``+``transit``,
``edges``+``borders``) instead of importing the fabric / wireless /
multisite classes.  ``repro.sim.simulator`` imports :mod:`repro.obs`,
so importing device modules from here would be circular; shape checks
also mean any workload object exposing ``.wireless``, ``.net`` or
``.fabric`` can be instrumented without this module knowing about it.

What wiring does per device:

* registers a site-scoped display name on the tracer
  (``site0.wlc``, ``site1.edge1``, ...) — WLC and server RLOCs are
  identical across sites, so names are the only unambiguous identity;
* enrolls the device's ``Counters``/stats block in the registry;
* adds gauges for state blocks with no counters (map-cache occupancy,
  megaflow entries, routing-server queue depth, batch backlog);
* arms the opt-in histogram hooks (``SerialQueue.wait_hist``,
  ``Batcher.flush_hist``) that are ``None`` — and therefore free — when
  observability is off.
"""

from __future__ import annotations

from repro.obs.metrics import COUNT_BOUNDS


def _map_cache_gauges(obs, cache, name):
    obs.metrics.gauge(name + ".occupancy", lambda: cache.occupancy())
    obs.metrics.gauge(name + ".hits", lambda: cache.hits)
    obs.metrics.gauge(name + ".misses", lambda: cache.misses)


def _megaflow_gauges(obs, device, name):
    megaflow = device.megaflow
    if megaflow is None:
        return
    obs.metrics.gauge(name + ".megaflow", megaflow.stats_dict)


def _edge(obs, edge, name):
    obs.tracer.register_device(edge, name)
    obs.metrics.enroll(name, edge.counters)
    obs.metrics.gauge(name + ".pre_auth_drops", lambda: edge.pre_auth_drops)
    _map_cache_gauges(obs, edge.map_cache, name + ".map_cache")
    _megaflow_gauges(obs, edge, name)


def _border(obs, border, name):
    obs.tracer.register_device(border, name)
    obs.metrics.enroll(name, border.counters)
    _megaflow_gauges(obs, border, name)
    if border.transit_cache is not None:
        _map_cache_gauges(obs, border.transit_cache, name + ".transit_cache")


def _routing_server(obs, server, name):
    obs.tracer.register_device(server, name)
    obs.metrics.enroll(name, server.stats)
    obs.metrics.gauge(name + ".queue_depth", lambda: server._queue_depth)
    obs.metrics.gauge(name + ".route_count", lambda: server.route_count)


def _policy_server(obs, server, name):
    obs.tracer.register_device(server, name)
    server._cpu.wait_hist = obs.metrics.histogram(name + ".cpu_wait_s")
    obs.metrics.gauge(name + ".cpu_backlog_s", lambda: server._cpu.backlog_s)
    obs.metrics.gauge(name + ".auth_cache_hits",
                      lambda: server.auth_cache_hits)
    obs.metrics.gauge(name + ".auth_cache_misses",
                      lambda: server.auth_cache_misses)


def _site_net(obs, net, prefix):
    """One FabricNetwork: edges, borders, routing servers, policy."""
    for edge in net.edges:
        _edge(obs, edge, prefix + edge.name)
    for border in net.borders:
        _border(obs, border, prefix + border.name)
    for index, server in enumerate(net.routing_servers):
        _routing_server(obs, server, "%srouting-server-%d" % (prefix, index))
    _policy_server(obs, net.policy_server, prefix + "policy-server")


def _wireless_fabric(obs, wireless, prefix):
    """One WirelessFabric (WLC + APs) plus its underlying site net."""
    wlc = wireless.wlc
    name = prefix + "wlc"
    obs.tracer.register_device(wlc, name)
    obs.metrics.enroll(name, wlc.stats)
    wlc._cpu.wait_hist = obs.metrics.histogram(name + ".cpu_wait_s")
    wlc.pacer.observe_flushes(
        obs.metrics.histogram(name + ".register_batch", COUNT_BOUNDS))
    obs.metrics.gauge(name + ".batch_backlog", lambda: wlc.pacer.backlog)
    for ap in wireless.aps:
        obs.tracer.register_device(ap, prefix + ap.name)
        obs.metrics.enroll(prefix + ap.name, ap.counters)
    _site_net(obs, wireless.net, prefix)


def _transit(obs, transit):
    obs.tracer.register_device(transit, "transit")
    obs.metrics.enroll("transit", transit.stats)
    obs.metrics.gauge("transit.queue_depth", lambda: transit._queue_depth)
    obs.metrics.gauge("transit.aggregates", lambda: transit.aggregate_count)


def instrument(obs, target):
    """Wire a topology (or workload holding one) into an obs bundle.

    Dispatches on shape; returns ``obs`` for chaining.  Unknown shapes
    raise so a typo'd target fails loudly instead of silently exporting
    an empty registry.
    """
    if hasattr(target, "site_wireless"):          # MultiSiteWireless
        for index, wireless in enumerate(target.site_wireless):
            _wireless_fabric(obs, wireless, "site%d." % index)
        _transit(obs, target.net.transit)
    elif hasattr(target, "wlc") and hasattr(target, "aps"):
        _wireless_fabric(obs, target, "")         # WirelessFabric
    elif hasattr(target, "sites") and hasattr(target, "transit"):
        for index, site in enumerate(target.sites):   # MultiSiteNetwork
            _site_net(obs, site, "site%d." % index)
        _transit(obs, target.transit)
    elif hasattr(target, "edges") and hasattr(target, "borders"):
        _site_net(obs, target, "")                # FabricNetwork
    elif hasattr(target, "wireless"):             # workload facade
        instrument(obs, target.wireless)
    elif hasattr(target, "net"):
        instrument(obs, target.net)
    elif hasattr(target, "fabric"):
        instrument(obs, target.fabric)
    else:
        raise TypeError(
            "don't know how to instrument %r" % type(target).__name__
        )
    return obs
