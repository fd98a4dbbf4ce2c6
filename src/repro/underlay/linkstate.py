"""Link-state interior gateway protocol (OSPF/IS-IS-like).

Implements the protocol machinery the SDA lessons-learned section depends
on:

* Each router originates a **Link-State Advertisement (LSA)** describing
  its live adjacencies and the stub addresses (fabric RLOCs) it announces.
* LSAs carry sequence numbers and are **flooded** hop by hop with a small
  per-hop processing delay, so convergence is not instantaneous — there is
  a window during which different routers disagree, which is exactly where
  the sec. 5.2 transient loop lives.
* Every router runs **Dijkstra SPF** over its own LSDB, computing ECMP
  next-hop sets and distances.
* Routers expose a **reachability subscription**: overlay code registers a
  callback and learns when a remote RLOC stops being announced (sec. 5.1's
  "monitor the address announcements of the underlay routing protocol").
"""

from __future__ import annotations

import heapq

from repro.core.errors import ConfigurationError


class LinkStateAdvertisement:
    """One router's view of itself: adjacencies + announced stub addresses."""

    __slots__ = ("origin", "sequence", "adjacencies", "stub_addresses")

    def __init__(self, origin, sequence, adjacencies, stub_addresses):
        self.origin = origin
        self.sequence = sequence
        #: mapping neighbor name -> metric
        self.adjacencies = dict(adjacencies)
        #: set of RLOC addresses announced by this router
        self.stub_addresses = frozenset(stub_addresses)

    def __repr__(self):
        return "LSA(%s, seq=%d, adj=%d, stubs=%d)" % (
            self.origin, self.sequence, len(self.adjacencies), len(self.stub_addresses)
        )


class LinkStateRouter:
    """One IGP speaker: LSDB, flooding, SPF, reachability notifications."""

    def __init__(self, domain, name):
        self._domain = domain
        self.name = name
        self.lsdb = {}               # origin -> LSA
        self._sequence = 0
        self.stub_addresses = set()  # RLOCs this router announces
        self.routes = {}             # destination node -> (cost, [next hops])
        self.reachable_stubs = {}    # rloc -> owning node
        self._subscribers = []
        self.spf_runs = 0
        self.enabled = True          # False while "rebooting" (silent in IGP)

    # -- subscriptions -----------------------------------------------------------
    def subscribe_reachability(self, callback):
        """Register ``callback(rloc, reachable: bool)`` for stub changes."""
        self._subscribers.append(callback)

    # -- origination ----------------------------------------------------------------
    def announce_stub(self, rloc):
        """Start announcing a fabric device address attached here."""
        self.stub_addresses.add(rloc)
        self.originate()

    def withdraw_stub(self, rloc):
        self.stub_addresses.discard(rloc)
        self.originate()

    def originate(self):
        """Re-originate our LSA from current adjacency and stub state."""
        if not self.enabled:
            return
        self._sequence += 1
        adjacencies = {
            neighbor: link.metric
            for neighbor, link in self._domain.topology.neighbors(self.name)
        }
        lsa = LinkStateAdvertisement(
            self.name, self._sequence, adjacencies, self.stub_addresses
        )
        self._install(lsa)
        self._domain.flood(self, lsa)

    def set_enabled(self, enabled):
        """Enable/disable the IGP speaker (reboot simulation).

        A disabled router stops flooding and empties its LSDB (a rebooted
        device comes back with no adjacency state).  Neighbors notice via
        the domain's adjacency checks and re-originate.
        """
        enabled = bool(enabled)
        if enabled == self.enabled:
            return
        self.enabled = enabled
        if not enabled:
            self.lsdb = {}
            self.routes = {}
            old = self.reachable_stubs
            self.reachable_stubs = {}
            if old:
                self._domain._stubs_changed()
            for rloc in old:
                self._notify(rloc, False)

    # -- flooding receive path --------------------------------------------------------
    def receive_lsa(self, lsa, from_neighbor):
        """Install a flooded LSA if newer; keep flooding if it was."""
        if not self.enabled:
            return
        current = self.lsdb.get(lsa.origin)
        if current is not None and current.sequence >= lsa.sequence:
            return
        self._install(lsa)
        self._domain.flood(self, lsa, exclude=from_neighbor)

    def _install(self, lsa):
        self.lsdb[lsa.origin] = lsa
        self.run_spf()

    # -- SPF ---------------------------------------------------------------------------
    def run_spf(self):
        """Dijkstra over the LSDB with ECMP next-hop tracking."""
        self.spf_runs += 1
        distances = {self.name: 0}
        next_hops = {self.name: []}
        visited = set()
        heap = [(0, self.name)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            lsa = self.lsdb.get(node)
            if lsa is None:
                continue
            for neighbor, metric in lsa.adjacencies.items():
                # Two-way connectivity check: the neighbor's LSA must list
                # this node back, else the adjacency is half-dead.
                neighbor_lsa = self.lsdb.get(neighbor)
                if neighbor_lsa is None or node not in neighbor_lsa.adjacencies:
                    continue
                candidate = dist + metric
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    if node == self.name:
                        next_hops[neighbor] = [neighbor]
                    else:
                        next_hops[neighbor] = list(next_hops[node])
                    heapq.heappush(heap, (candidate, neighbor))
                elif candidate == distances.get(neighbor) and node != self.name:
                    hops = next_hops.setdefault(neighbor, [])
                    for hop in next_hops[node]:
                        if hop not in hops:
                            hops.append(hop)
        self.routes = {
            node: (distances[node], next_hops.get(node, []))
            for node in distances
            if node != self.name
        }
        self._recompute_stub_reachability(visited)

    def _recompute_stub_reachability(self, reachable_nodes):
        new_stubs = {}
        for origin, lsa in self.lsdb.items():
            if origin != self.name and origin not in reachable_nodes:
                continue
            for rloc in lsa.stub_addresses:
                new_stubs[rloc] = origin
        old = self.reachable_stubs
        self.reachable_stubs = new_stubs
        if new_stubs.keys() != old.keys():
            self._domain._stubs_changed()
        for rloc in new_stubs:
            if rloc not in old:
                self._notify(rloc, True)
        for rloc in old:
            if rloc not in new_stubs:
                self._notify(rloc, False)

    def _notify(self, rloc, reachable):
        for callback in self._subscribers:
            callback(rloc, reachable)

    def rloc_is_reachable(self, rloc):
        return rloc in self.reachable_stubs

    def cost_to(self, node):
        entry = self.routes.get(node)
        return entry[0] if entry else None

    def __repr__(self):
        return "LinkStateRouter(%s, lsdb=%d)" % (self.name, len(self.lsdb))


class IgpDomain:
    """The set of IGP speakers over one topology, plus the flooding plumbing.

    Flooding is simulated: each LSA hop costs ``flood_hop_delay_s`` of
    simulated time.  ``converge()`` (for setup phases) drains the
    simulator until flooding settles.
    """

    def __init__(self, sim, topology, flood_hop_delay_s=1e-3):
        self.sim = sim
        self.topology = topology
        self.flood_hop_delay_s = flood_hop_delay_s
        self.routers = {}
        self.lsa_messages_sent = 0
        self._watchers = []

    def add_router(self, name):
        if name in self.routers:
            raise ConfigurationError("duplicate IGP router %r" % name)
        if not self.topology.has_node(name):
            raise ConfigurationError("IGP router %r not in topology" % name)
        router = LinkStateRouter(self, name)
        self.routers[name] = router
        return router

    def router(self, name):
        try:
            return self.routers[name]
        except KeyError:
            raise ConfigurationError("unknown IGP router %r" % name)

    def watch(self, callback):
        """Call ``callback()`` whenever any speaker's reachable-stub set
        changes (what ``rloc_is_reachable`` answers from).

        For whoever memoizes a speaker's answer, so its per-packet path
        does not have to ask again.  Fired after the speaker's new set is
        in place and before its reachability subscribers hear of it.
        """
        self._watchers.append(callback)

    def _stubs_changed(self):
        for callback in self._watchers:
            callback()

    def start(self):
        """Originate initial LSAs everywhere (call once after building)."""
        for router in self.routers.values():
            router.originate()

    def flood(self, sender, lsa, exclude=None):
        """Propagate an LSA from ``sender`` to its live neighbors."""
        for neighbor, _link in self.topology.neighbors(sender.name):
            if neighbor == exclude:
                continue
            target = self.routers.get(neighbor)
            if target is None:
                continue
            self.lsa_messages_sent += 1
            self.sim.post(
                self.flood_hop_delay_s, target.receive_lsa, lsa, sender.name
            )

    # -- events the overlay cares about -----------------------------------------------
    def link_down(self, a, b):
        """Fail a link; both ends re-originate."""
        self.topology.set_link_state(a, b, False)
        self._reoriginate_if_present(a)
        self._reoriginate_if_present(b)

    def link_up(self, a, b):
        self.topology.set_link_state(a, b, True)
        self._reoriginate_if_present(a)
        self._reoriginate_if_present(b)

    def node_down(self, name):
        """Fail a router: it goes silent; neighbors re-originate."""
        # Capture the neighbor set while the node is still up — marking it
        # down first would hide the adjacencies we need to refresh.
        neighbors = [
            other for other in self.routers
            if other != name and self._adjacent(other, name)
        ]
        self.topology.set_node_state(name, False)
        router = self.routers.get(name)
        if router is not None:
            router.set_enabled(False)
        for other in neighbors:
            self.routers[other].originate()

    def node_up(self, name):
        self.topology.set_node_state(name, True)
        router = self.routers.get(name)
        if router is not None:
            router.set_enabled(True)
            router.originate()
        for other, _link in self.topology.neighbors(name):
            if other in self.routers:
                self.routers[other].originate()

    def _adjacent(self, a, b):
        return any(neighbor == b for neighbor, _ in self.topology.neighbors(a))

    def _reoriginate_if_present(self, name):
        router = self.routers.get(name)
        if router is not None:
            router.originate()

    def converge(self, max_time=10.0):
        """Run the simulator until flooding has settled (setup helper)."""
        deadline = self.sim.now + max_time
        while self.sim.pending and self.sim.now < deadline:
            self.sim.run(until=min(deadline, self.sim.now + 0.1))
            if not self.sim.pending:
                break
