"""Underlay topology: an undirected weighted graph of underlay routers.

Nodes are string names; each node may own any number of attached
"stub" addresses (the RLOCs of fabric devices connected there).  Links
carry an IGP metric, a propagation delay and a bandwidth, so the same
graph drives both SPF cost computation and data-plane delay accounting.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError


class TopologyLink:
    """An undirected link between two topology nodes."""

    __slots__ = ("a", "b", "metric", "delay_s", "bandwidth_bps", "up")

    def __init__(self, a, b, metric=10, delay_s=50e-6, bandwidth_bps=10e9):
        if a == b:
            raise ConfigurationError("self-loop link at %r" % a)
        self.a = a
        self.b = b
        self.metric = metric
        self.delay_s = delay_s
        self.bandwidth_bps = bandwidth_bps
        self.up = True

    def other(self, node):
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ConfigurationError("%r not an endpoint of %r" % (node, self))

    def key(self):
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def __repr__(self):
        state = "up" if self.up else "down"
        return "TopologyLink(%s--%s, metric=%d, %s)" % (self.a, self.b, self.metric, state)


class Topology:
    """Mutable undirected graph with named nodes and weighted links."""

    def __init__(self):
        self._nodes = {}        # name -> set of link keys
        self._links = {}        # key -> TopologyLink
        self._node_up = {}      # name -> bool
        self._version = 0
        self._watchers = []

    @property
    def version(self):
        """Monotonic counter bumped on every topology change."""
        return self._version

    def watch(self, callback):
        """Call ``callback()`` after every change that bumps ``version``.

        For whoever memoizes something derived from the graph, so its
        per-packet path does not have to poll the version.
        """
        self._watchers.append(callback)

    def _changed(self):
        self._version += 1
        for callback in self._watchers:
            callback()

    def add_node(self, name):
        if name in self._nodes:
            raise ConfigurationError("duplicate topology node %r" % name)
        self._nodes[name] = set()
        self._node_up[name] = True
        self._changed()

    def has_node(self, name):
        return name in self._nodes

    def nodes(self):
        return list(self._nodes)

    def add_link(self, a, b, metric=10, delay_s=50e-6, bandwidth_bps=10e9):
        for name in (a, b):
            if name not in self._nodes:
                raise ConfigurationError("unknown topology node %r" % name)
        link = TopologyLink(a, b, metric=metric, delay_s=delay_s, bandwidth_bps=bandwidth_bps)
        key = link.key()
        if key in self._links:
            raise ConfigurationError("duplicate link %s--%s" % key)
        self._links[key] = link
        self._nodes[a].add(key)
        self._nodes[b].add(key)
        self._changed()
        return link

    def link(self, a, b):
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise ConfigurationError("no link %s--%s" % (a, b))

    def links(self):
        return list(self._links.values())

    def neighbors(self, name):
        """Yield ``(neighbor, link)`` over live links of a live node."""
        if not self._node_up.get(name, False):
            return
        for key in self._nodes[name]:
            link = self._links[key]
            other = link.other(name)
            if link.up and self._node_up.get(other, False):
                yield other, link

    # -- failure injection ------------------------------------------------------
    def set_link_state(self, a, b, up):
        link = self.link(a, b)
        if link.up != bool(up):
            link.up = bool(up)
            self._changed()
        return link

    def set_node_state(self, name, up):
        if name not in self._nodes:
            raise ConfigurationError("unknown topology node %r" % name)
        if self._node_up[name] != bool(up):
            self._node_up[name] = bool(up)
            self._changed()

    def node_is_up(self, name):
        return self._node_up.get(name, False)

    # -- canned topologies --------------------------------------------------------
    @classmethod
    def two_tier(cls, num_spines, num_leaves, spine_leaf_metric=10,
                 delay_s=50e-6, bandwidth_bps=10e9):
        """A spine-leaf (collapsed campus distribution/access) topology.

        Every leaf connects to every spine — the shape of the paper's campus
        deployments (fig. 8: border routers up top, edges below, full mesh
        between tiers).
        """
        topo = cls()
        spines = ["spine-%d" % i for i in range(num_spines)]
        leaves = ["leaf-%d" % i for i in range(num_leaves)]
        for name in spines + leaves:
            topo.add_node(name)
        for leaf in leaves:
            for spine in spines:
                topo.add_link(leaf, spine, metric=spine_leaf_metric,
                              delay_s=delay_s, bandwidth_bps=bandwidth_bps)
        return topo, spines, leaves

    @classmethod
    def transit_hub(cls, num_sites, num_cores=2, metric=10,
                    delay_s=2e-3, bandwidth_bps=10e9):
        """The inter-site transit: core routers, one access node per site.

        Each site's transit-facing border attaches at its access node;
        access nodes connect to every core (redundant WAN/metro links).
        The default 2 ms link delay is the distributed-campus scale the
        paper's deployments stitch sites over — three orders of magnitude
        above the intra-site 50 us links, which is why first-packet
        behaviour across sites is worth its own experiment.
        """
        if num_sites < 1:
            raise ConfigurationError("transit needs at least one site")
        topo = cls()
        cores = ["transit-core-%d" % i for i in range(max(1, num_cores))]
        access = ["transit-site-%d" % i for i in range(num_sites)]
        for name in cores + access:
            topo.add_node(name)
        for i in range(len(cores) - 1):
            topo.add_link(cores[i], cores[i + 1], metric=metric,
                          delay_s=delay_s, bandwidth_bps=bandwidth_bps)
        for node in access:
            for core in cores:
                topo.add_link(node, core, metric=metric,
                              delay_s=delay_s, bandwidth_bps=bandwidth_bps)
        return topo, cores, access
