"""Unit tests for the underlay delivery network."""

import pytest

from repro.core.errors import ConfigurationError
from repro.net.packet import Packet
from repro.underlay import IgpDomain, Topology, UnderlayNetwork


def _build(sim, use_igp=True, num_leaves=3):
    topo, spines, leaves = Topology.two_tier(2, num_leaves)
    igp = None
    if use_igp:
        igp = IgpDomain(sim, topo)
        for node in topo.nodes():
            igp.add_router(node)
        igp.start()
    net = UnderlayNetwork(sim, topo, igp=igp)
    return net, igp, spines, leaves


def test_attach_and_send(sim, ip):
    net, igp, spines, leaves = _build(sim)
    got = []
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: got.append(p))
    net.attach(b, leaves[1], got.append)
    igp.converge()
    assert net.send(a, b, Packet(size=100))
    sim.run()
    assert len(got) == 1
    assert net.delivered_packets == 1


def test_duplicate_rloc_rejected(sim, ip):
    net, igp, spines, leaves = _build(sim)
    net.attach(ip("10.0.0.1"), leaves[0], lambda p: None)
    with pytest.raises(ConfigurationError):
        net.attach(ip("10.0.0.1"), leaves[1], lambda p: None)


def test_send_from_unattached_raises(sim, ip):
    net, igp, spines, leaves = _build(sim)
    with pytest.raises(ConfigurationError):
        net.send(ip("10.0.0.1"), ip("10.0.0.2"), Packet())


def test_send_to_unknown_drops(sim, ip):
    net, igp, spines, leaves = _build(sim)
    net.attach(ip("10.0.0.1"), leaves[0], lambda p: None)
    assert not net.send(ip("10.0.0.1"), ip("10.9.9.9"), Packet())
    assert net.dropped_packets == 1


def test_unannounced_destination_drops(sim, ip):
    net, igp, spines, leaves = _build(sim)
    got = []
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], got.append)
    igp.converge()
    net.set_announced(b, False)
    assert not net.send(a, b, Packet())
    net.set_announced(b, True)
    igp.converge()
    assert net.send(a, b, Packet())


def test_delay_scales_with_path_length(sim, ip):
    net, igp, spines, leaves = _build(sim)
    arrivals = []
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], lambda p: arrivals.append(sim.now))
    igp.converge()
    start = sim.now
    net.send(a, b, Packet(size=100))
    sim.run()
    # Two hops (leaf->spine->leaf) at 50us each plus serialization.
    assert arrivals[0] - start >= 100e-6


def test_same_node_delivery_is_fast(sim, ip):
    net, igp, spines, leaves = _build(sim)
    arrivals = []
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[0], lambda p: arrivals.append(sim.now))
    igp.converge()
    start = sim.now
    net.send(a, b, Packet(size=100))
    sim.run()
    assert arrivals[0] - start < 50e-6


def test_reachable_via_igp(sim, ip):
    net, igp, spines, leaves = _build(sim)
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], lambda p: None)
    igp.converge()
    assert net.reachable(a, b)
    igp.node_down(leaves[1])
    igp.converge()
    assert not net.reachable(a, b)


def test_reachable_without_igp(sim, ip):
    net, igp, spines, leaves = _build(sim, use_igp=False)
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], lambda p: None)
    assert net.reachable(a, b)


def test_detach_stops_delivery(sim, ip):
    net, igp, spines, leaves = _build(sim)
    got = []
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], got.append)
    igp.converge()
    net.send(a, b, Packet())
    net.detach(b)
    sim.run()
    assert got == []


def test_path_cache_invalidated_on_topology_change(sim, ip):
    net, igp, spines, leaves = _build(sim)
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], lambda p: None)
    igp.converge()
    d1 = net.path_delay(leaves[0], leaves[1])
    assert d1 is not None
    # Take down one spine: path still exists via the other.
    igp.node_down(spines[0])
    igp.converge()
    d2 = net.path_delay(leaves[0], leaves[1])
    assert d2 is not None


@pytest.mark.parametrize("use_igp", [True, False])
def test_route_memo_sees_every_change_on_the_very_next_call(sim, ip, use_igp):
    """``send``/``reachable`` answer from a per-pair memo; a detach,
    a silenced announcement, a re-attach elsewhere and a cut path must
    each show on the first call after them, not one epoch later."""
    net, igp, spines, leaves = _build(sim, use_igp=use_igp)
    got = []
    a, b = ip("10.0.0.1"), ip("10.0.0.2")
    net.attach(a, leaves[0], lambda p: None)
    net.attach(b, leaves[1], got.append)

    def settle():
        if igp is not None:
            igp.converge()
        sim.run()

    def warm():
        """Both calls answer from the memo before the next change."""
        settle()
        assert net.reachable(a, b) and net.send(a, b, Packet(size=100))
        sim.run()

    warm()
    assert len(got) == 1

    net.set_announced(b, False)
    assert not net.reachable(a, b)
    assert not net.send(a, b, Packet(size=100))
    assert net.blackholed == 1
    net.set_announced(b, True)
    warm()

    net.detach(b)
    assert not net.reachable(a, b)
    assert not net.send(a, b, Packet(size=100))
    assert net.blackholed == 2
    # Back at another node: the memoized attachment and path are gone.
    moved = []
    net.attach(b, leaves[2], moved.append)
    warm()
    assert len(got) == 2 and len(moved) == 1

    # Cut leaf-2 off: a partition, not a blackhole — counted as a drop.
    for spine in spines:
        net.topology.set_link_state(leaves[2], spine, False)
    assert not net.send(a, b, Packet(size=100))
    assert (net.dropped_packets, net.blackholed) == (3, 2)
    if igp is None:
        assert not net.reachable(a, b)   # with an IGP: after reconvergence
    net.topology.set_link_state(leaves[2], spines[0], True)
    warm()
    assert len(moved) == 2

    net.detach(a)
    assert not net.reachable(a, b)
    with pytest.raises(ConfigurationError):
        net.send(a, b, Packet(size=100))


def test_subscribe_reachability_requires_igp(sim, ip):
    net, igp, spines, leaves = _build(sim, use_igp=False)
    with pytest.raises(ConfigurationError):
        net.subscribe_reachability(leaves[0], lambda r, up: None)
