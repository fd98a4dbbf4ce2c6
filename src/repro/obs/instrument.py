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
  megaflow entries, batch backlog) and for the overload surface:
  routing-server queue depth, pressure and sheds, registrar (edge, WLC)
  backpressure and breaker state, edge stale serves.  These are plain
  attributes, not ``Counters`` fields, so wiring them moves no ledger
  digest;
* arms the opt-in histogram hooks (``SerialQueue.wait_hist``,
  ``Batcher.flush_hist``) that are ``None`` — and therefore free — when
  observability is off.
"""

from __future__ import annotations

from repro.obs.metrics import COUNT_BOUNDS


def _map_cache_gauges(obs, device, attr, name):
    # Read the cache through the device: a reboot (edge) or a failure
    # (border transit cache) installs a fresh cache object.
    obs.metrics.gauge(name + ".occupancy",
                      lambda: getattr(device, attr).occupancy())
    obs.metrics.gauge(name + ".hits", lambda: getattr(device, attr).hits)
    obs.metrics.gauge(name + ".misses", lambda: getattr(device, attr).misses)


def _megaflow_gauges(obs, device, name):
    megaflow = device.megaflow
    if megaflow is None:
        return
    obs.metrics.gauge(name + ".megaflow", megaflow.stats_dict)


def _registrar(obs, device, name):
    """Backpressure and breaker state of a RegisterPacer-driven device."""
    pacer = device.pacer
    obs.metrics.gauge(name + ".bp_factor", lambda: pacer.factor)
    obs.metrics.gauge(name + ".bp_overload_acks", lambda: pacer.overload_acks)
    obs.metrics.gauge(name + ".breaker_deferrals", lambda: pacer.deferrals)
    obs.metrics.gauge(name + ".breaker_opens", lambda: pacer.breaker_opens)


def _edge(obs, edge, name):
    obs.tracer.register_device(edge, name)
    obs.metrics.enroll(name, edge.counters)
    obs.metrics.gauge(name + ".pre_auth_drops", lambda: edge.pre_auth_drops)
    obs.metrics.gauge(name + ".port_drops", lambda: edge.port_drops)
    obs.metrics.gauge(name + ".stale_served", lambda: edge.stale_served)
    obs.metrics.gauge(name + ".stale_hits",
                      lambda: edge.map_cache.stale_hits)
    _map_cache_gauges(obs, edge, "map_cache", name + ".map_cache")
    _megaflow_gauges(obs, edge, name)
    _registrar(obs, edge, name)


def _border(obs, border, name):
    obs.tracer.register_device(border, name)
    obs.metrics.enroll(name, border.counters)
    _megaflow_gauges(obs, border, name)
    if border.transit_cache is not None:
        _map_cache_gauges(obs, border, "transit_cache", name + ".transit_cache")


def _routing_server(obs, server, name):
    obs.tracer.register_device(server, name)
    obs.metrics.enroll(name, server.stats)
    queue = server.queue
    obs.metrics.gauge(name + ".queue_depth", lambda: queue.depth)
    obs.metrics.gauge(name + ".queue_backlog_s", lambda: queue.backlog_s)
    obs.metrics.gauge(name + ".queue_pressure", lambda: queue.pressure)
    obs.metrics.gauge(name + ".shed_total", lambda: queue.shed_total)
    obs.metrics.gauge(name + ".shed_by_class",
                      lambda: dict(queue.shed_by_class))
    obs.metrics.gauge(name + ".max_depth_seen", lambda: queue.max_depth_seen)
    obs.metrics.gauge(name + ".overload_signals",
                      lambda: server.overload_signals)
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
    _registrar(obs, wlc, name)
    for ap in wireless.aps:
        obs.tracer.register_device(ap, prefix + ap.name)
        obs.metrics.enroll(prefix + ap.name, ap.counters)
    _site_net(obs, wireless.net, prefix)


def _transit(obs, transit):
    obs.tracer.register_device(transit, "transit")
    obs.metrics.enroll("transit", transit.stats)
    obs.metrics.gauge("transit.queue_depth", lambda: transit.queue.depth)
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
