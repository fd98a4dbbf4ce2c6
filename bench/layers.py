"""Which code belongs to which layer.

Layers are the packages of ``src/repro``; a *component* is a named part
of a layer (``net.trie``, ``lisp.mapcache`` ...) whose self time the
traced run reports.  The boundary is taken at class level: every method
a listed class defines is shimmed, but a span opens only when the call
comes from *another* component, so private helpers calling each other
inside one class neither split nor inflate a layer, and ``calls`` count
entries into the layer.

Attributing by the module that owns the event callback was tried first
and rejected: on the wired data-plane run it bills 67% of the time to
the load generator and 29% to the underlay, because edge forwarding
runs inline inside ``FlowGenerator._tick`` and the underlay's delivery
callback.
"""

from __future__ import annotations

import importlib
import types

from tracing import function_holders

#: component -> [(module, class name, method names or None for all)]
CLASSES = {
    "sim.schedule": [("repro.sim.simulator", "Simulator",
                      ("schedule", "schedule_at", "schedule_daemon", "cancel"))],
    "net.trie": [("repro.net.trie", "PatriciaTrie", None)],
    "net.vxlan": [("repro.net.vxlan", "EncapTemplate", None),
                  ("repro.net.vxlan", "VxlanGpoHeader", ("encode",))],
    "net.megaflow": [("repro.net.fastpath", "MegaflowCache", None)],
    "lisp.mapcache": [("repro.lisp.mapcache", "MapCache", None)],
    "lisp.mapserver": [("repro.lisp.mapserver", "RoutingServer", None)],
    "lisp.mapdb": [("repro.lisp.records", "MappingDatabase", None)],
    "policy.acl": [("repro.policy.acl", "GroupAcl", None)],
    "policy.server": [("repro.policy.server", "PolicyServer", None)],
    "policy.sxp": [("repro.policy.sxp", "SxpSpeaker", None)],
    "underlay": [("repro.underlay.network", "UnderlayNetwork", None)],
    # the per-packet reachability reads (rloc_is_reachable, router) stay
    # inside ``underlay``: they are its hot path, not route computation
    "underlay.spf": [("repro.underlay.linkstate", "LinkStateRouter",
                      ("originate", "receive_lsa", "run_spf", "set_enabled",
                       "announce_stub", "withdraw_stub")),
                     ("repro.underlay.linkstate", "IgpDomain",
                      ("start", "flood", "link_down", "link_up", "node_down",
                       "node_up", "converge"))],
    "fabric.edge": [("repro.fabric.edge", "EdgeRouter", None)],
    "fabric.border": [("repro.fabric.border", "BorderRouter", None)],
    "fabric.facade": [("repro.fabric.network", "FabricNetwork", None),
                      ("repro.fabric.endpoint", "Endpoint", ("send", "receive"))],
    "wireless.wlc": [("repro.wireless.wlc", "FabricWlc", None)],
    "wireless.ap": [("repro.wireless.ap", "FabricAp", None)],
    "wireless.facade": [("repro.wireless.deployment", "WirelessFabric", None),
                        ("repro.wireless.deployment", "MultiSiteWireless", None),
                        ("repro.wireless.station", "Station", ("send", "receive"))],
    "multisite": [("repro.multisite.network", "MultiSiteNetwork", None),
                  ("repro.multisite.transit", "TransitControlPlane", None)],
    "core.serialqueue": [("repro.core.queueing", "SerialQueue", None)],
    "core.batcher": [("repro.core.batching", "Batcher", None)],
    "workloads": [("repro.workloads.traffic", "FlowGenerator", None),
                  ("repro.workloads.traffic", "PopularityModel", None),
                  ("repro.workloads.campus", "CampusWorkload", None),
                  ("repro.workloads.wireless_campus",
                   "WirelessCampusWorkload", None),
                  ("repro.workloads.distributed_wireless_campus",
                   "DistributedWirelessCampusWorkload", None),
                  ("workloads", "WiredScenario", None)],
}

#: component -> [(module, function name)]; swapped in every importer
FUNCTIONS = {
    "net.vxlan": [("repro.net.vxlan", "encapsulate"),
                  ("repro.net.vxlan", "decapsulate")],
    "fabric.facade": [("repro.fabric.network", "inject_burst")],
}

#: dunder methods that do real work; the rest (repr, eq, hash) stay bare
_DUNDERS = ("__init__", "__len__")


# ---------------------------------------------------------------------- taps
def tap_queue_wait(tracer, args):
    """``SerialQueue.submit``: the backlog is this item's queue wait.

    Keyed by the class that owns the submitted work — the map server's
    and the WLC's queues are separate ``SerialQueue`` instances.
    """
    queue, work = args[0], args[2]
    owner = type(getattr(work, "__self__", None)).__name__
    tracer.taps.setdefault("queue_wait_s:" + owner, []).append(queue.backlog_s)


def tap_batch_flush(tracer, args):
    """``Batcher.flush_now``: size of every non-empty batch flushed."""
    pending = args[0].pending
    if pending:
        tracer.taps.setdefault("batch_items", []).append(pending)


def count_tap(name):
    """A tap that only counts how often the method was called."""
    def tap(tracer, args):
        tracer.taps[name] = tracer.taps.get(name, 0) + 1
    return tap


TAPS = {
    ("repro.core.queueing", "SerialQueue", "submit"): tap_queue_wait,
    ("repro.core.batching", "Batcher", "flush_now"): tap_batch_flush,
    ("repro.sim.simulator", "Simulator", "cancel"): count_tap("sim.cancels"),
    ("repro.lisp.mapcache", "MapCache", "sweep"): count_tap("mapcache.sweeps"),
}


# ---------------------------------------------------------------------- resolve
def _methods(cls, names):
    for name, value in vars(cls).items():
        if not isinstance(value, types.FunctionType):
            continue     # properties, static/class methods, constants
        if names is not None:
            if name in names:
                yield name, value
        elif not name.startswith("__") or name in _DUNDERS:
            yield name, value


def resolve():
    """Import every listed class; return (shim entries, class -> component).

    A method inherited by a listed class of *another* component (the
    transit control plane reuses ``RoutingServer``) is billed by the
    instance's type.
    """
    class_components = {}
    listed = []
    for component, specs in CLASSES.items():
        for module_name, class_name, names in specs:
            cls = getattr(importlib.import_module(module_name), class_name)
            class_components[cls] = component
            listed.append((component, module_name, cls, names))

    entries = []
    for component, module_name, cls, names in listed:
        by_type = {
            other: other_component
            for other, other_component in class_components.items()
            if other is not cls and issubclass(other, cls)
            and other_component != component
        }
        for name, function in _methods(cls, names):
            entries.append({
                "component": component,
                "function": function,
                "holders": [(cls, name)],
                "by_type": by_type or None,
                "tap": TAPS.get((module_name, cls.__name__, name)),
            })
    for component, specs in FUNCTIONS.items():
        for module_name, name in specs:
            function = getattr(importlib.import_module(module_name), name)
            entries.append({
                "component": component,
                "function": function,
                "holders": function_holders(function),
            })
    return entries, class_components
