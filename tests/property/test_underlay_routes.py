"""Model-based test: the underlay's route memo against a fresh computation.

``UnderlayNetwork.route`` resolves each ``(from RLOC, to RLOC)`` pair
once per epoch, and megaflow entries hold the returned :class:`Route`
and re-validate it with one read of ``route.live``.  That is exact only
if every change that could alter an answer ends the epoch: attach,
detach, re-attach elsewhere, ``set_announced``, link and node state,
and — with an IGP — any speaker's reachable-stub set, which changes
while the IGP floods with no call into the underlay at all.

A hypothesis state machine drives one underlay (with and without an
IGP) through all of those.  After every step, for every RLOC pair,
``route()`` and ``reachable()`` must equal an unmemoized computation
(the attachment table, a fresh Dijkstra, the source speaker's current
answer), and every handle handed out earlier must be either ``live``
and still the memo's answer, or dead.  Every packet sent must arrive at
the attachment that holds its RLOC at arrival time.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.addresses import IPv4Address
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.underlay import IgpDomain, Topology, UnderlayNetwork

SPINES = ["spine-0", "spine-1"]
LEAVES = ["leaf-0", "leaf-1", "leaf-2"]
NODES = SPINES + LEAVES
RLOCS = [IPv4Address(0x0A000001 + index) for index in range(3)]

rlocs = st.sampled_from(RLOCS)
nodes = st.sampled_from(NODES)
links = st.tuples(st.sampled_from(LEAVES), st.sampled_from(SPINES))


class RouteMemo(RuleBasedStateMachine):
    USE_IGP = False

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.topology, _spines, _leaves = Topology.two_tier(
            len(SPINES), len(LEAVES))
        self.igp = None
        if self.USE_IGP:
            self.igp = IgpDomain(self.sim, self.topology)
            for node in NODES:
                self.igp.add_router(node)
            self.igp.start()
            self.sim.run()
        self.underlay = UnderlayNetwork(self.sim, self.topology, igp=self.igp)
        self.handles = {}     # id -> (pair, Route): every handle seen
        self.misdelivered = []

    # -- helpers ----------------------------------------------------------------
    def _attached(self, rloc):
        return self.underlay.attachment_node(rloc) is not None

    def _deliver_for(self, rloc):
        def deliver(packet):
            current = self.underlay._attachments.get(rloc)
            if current is None or current.deliver is not deliver:
                self.misdelivered.append(rloc)
        return deliver

    def _fresh(self, src_rloc, dst_rloc):
        """``(dst, delay, hops, reachable)`` computed with no memo."""
        attachments = self.underlay._attachments
        src = attachments[src_rloc]
        dst = attachments.get(dst_rloc)
        if dst is None or not dst.announced:
            return (None, None, 0, False)
        delay, hops = (self.underlay._compute_path(src.node, dst.node)
                       or (None, 0))
        if self.igp is None:
            reachable = delay is not None
        else:
            reachable = self.igp.router(src.node).rloc_is_reachable(dst_rloc)
        return (dst, delay, hops, reachable)

    # -- rules ------------------------------------------------------------------
    @rule(rloc=rlocs, node=nodes)
    def attach(self, rloc, node):
        if not self._attached(rloc):
            self.underlay.attach(rloc, node, self._deliver_for(rloc))

    @rule(rloc=rlocs)
    def detach(self, rloc):
        if self._attached(rloc):
            self.underlay.detach(rloc)

    @rule(rloc=rlocs, node=nodes)
    def reattach_elsewhere(self, rloc, node):
        if self._attached(rloc) and self.underlay.attachment_node(rloc) != node:
            self.underlay.detach(rloc)
            self.underlay.attach(rloc, node, self._deliver_for(rloc))

    @rule(rloc=rlocs, announced=st.booleans())
    def set_announced(self, rloc, announced):
        if self._attached(rloc):
            self.underlay.set_announced(rloc, announced)

    @rule(link=links, up=st.booleans())
    def set_link(self, link, up):
        if self.igp is None:
            self.topology.set_link_state(link[0], link[1], up)
        elif up:
            self.igp.link_up(*link)
        else:
            self.igp.link_down(*link)

    @rule(node=nodes, up=st.booleans())
    def set_node(self, node, up):
        if self.topology.node_is_up(node) == up:
            return
        if self.igp is None:
            self.topology.set_node_state(node, up)
        elif up:
            self.igp.node_up(node)
        else:
            self.igp.node_down(node)

    @rule(src=rlocs, dst=rlocs)
    def send(self, src, dst):
        if self._attached(src):
            self.underlay.send(src, dst, Packet(size=100))

    @rule()
    def run_past_the_flood_delay(self):
        self.sim.run(until=self.sim.now + 0.01)

    # -- invariants --------------------------------------------------------------
    @invariant()
    def memo_matches_a_fresh_computation(self):
        underlay = self.underlay
        for src in RLOCS:
            for dst in RLOCS:
                route = underlay.route(src, dst)
                if not self._attached(src):
                    assert route is None
                    assert not underlay.reachable(src, dst)
                    continue
                self.handles[id(route)] = ((src, dst), route)
                assert route.live
                got = (route.dst, route.delay, route.hops, route.reachable)
                assert got == self._fresh(src, dst), (src, dst)
                assert underlay.reachable(src, dst) == route.reachable

    @invariant()
    def every_held_handle_is_current_or_dead(self):
        memo = self.underlay._routes
        for pair, route in self.handles.values():
            if route.live:
                assert memo.get(pair) is route, pair

    @invariant()
    def packets_reach_the_current_attachment(self):
        assert self.misdelivered == []


class RouteMemoWithIgp(RouteMemo):
    USE_IGP = True


_SETTINGS = settings(max_examples=80, stateful_step_count=40, deadline=None)

TestRouteMemo = RouteMemo.TestCase
TestRouteMemo.settings = _SETTINGS
TestRouteMemoWithIgp = RouteMemoWithIgp.TestCase
TestRouteMemoWithIgp.settings = _SETTINGS
