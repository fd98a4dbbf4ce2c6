"""Per-packet forwarding allocates no event handle.

A delivery nobody cancels is a ``Simulator.post``: the heap entry holds
the callback and no :class:`~repro.sim.events.Event` is built.  Every
``schedule`` call must keep the handle it returns — a bare
``sim.schedule(...)`` statement pays for a handle nobody reads.
"""

import ast
import pathlib

import pytest

import repro
from repro.fabric import FabricConfig, FabricNetwork
from repro.sim import events

VN = 900
SENDS = 40


@pytest.mark.parametrize("megaflow", [False, True])
def test_forwarded_packets_build_no_event(monkeypatch, megaflow):
    net = FabricNetwork(FabricConfig(num_edges=3, megaflow=megaflow))
    net.define_vn("campus", VN, "10.0.0.0/16")
    net.define_group("users", 10, VN)
    net.define_group("servers", 30, VN)
    net.allow("users", "servers")
    net.allow("servers", "users")
    user = net.create_endpoint("user", "users", VN)
    server = net.create_endpoint("server", "servers", VN)
    peer = net.create_endpoint("peer", "users", VN)
    net.admit(user, 0)
    net.admit(server, 1)
    net.admit(peer, 0)
    net.settle()
    # warm-up: resolve the mappings (map-request timers keep handles)
    for src, dst in ((user, server), (server, user), (user, peer)):
        net.send(src, dst)
        net.settle()
    received = server.packets_received + user.packets_received \
        + peer.packets_received

    built = []
    original = events.Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(events.Event, "__init__", counting_init)
    for _ in range(SENDS):
        net.send(user, server)      # across edges: underlay + port delivery
        net.send(server, user)
        net.send(user, peer)        # same edge: port delivery only
    net.settle()

    assert server.packets_received + user.packets_received \
        + peer.packets_received == received + 3 * SENDS
    assert built == []


def _bare_schedule_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr == "schedule":
                yield "%s:%d" % (path, node.lineno)


def test_no_schedule_call_discards_its_handle():
    root = pathlib.Path(repro.__file__).parent
    bare = [site for path in sorted(root.rglob("*.py"))
            for site in _bare_schedule_calls(path)]
    assert bare == [], "use sim.post() where the handle is not kept: %s" % bare
