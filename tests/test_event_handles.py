"""Per-packet forwarding allocates no event handle and runs no id code.

A delivery nobody cancels is a ``Simulator.post``: the heap entry holds
the callback and no :class:`~repro.sim.events.Event` is built.  Every
``schedule`` or ``schedule_at`` call must keep the handle it returns — a
bare ``sim.schedule(...)`` statement pays for a handle nobody reads
(``post``/``post_at`` are the handle-free verbs).

VN and group ids are ``int`` subclasses and packets hold their headers
in slots, so forwarding a packet hashes and compares ids in C and never
enters :mod:`repro.core.types`.
"""

import ast
import pathlib
import sys

import pytest

import repro
from repro.fabric import FabricConfig, FabricNetwork
from repro.sim import events

VN = 900
SENDS = 40


def _warm_fabric(megaflow):
    """Three edges, mappings resolved: (net, user, server, peer)."""
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
    return net, user, server, peer


def _forward(net, user, server, peer):
    """Send SENDS rounds across edges and within one edge; return how
    many packets the three endpoints received meanwhile."""
    endpoints = (user, server, peer)
    received = sum(e.packets_received for e in endpoints)
    for _ in range(SENDS):
        net.send(user, server)      # across edges: underlay + port delivery
        net.send(server, user)
        net.send(user, peer)        # same edge: port delivery only
    net.settle()
    return sum(e.packets_received for e in endpoints) - received


@pytest.mark.parametrize("megaflow", [False, True])
def test_forwarded_packets_build_no_event(monkeypatch, megaflow):
    net, user, server, peer = _warm_fabric(megaflow)
    built = []
    original = events.Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(events.Event, "__init__", counting_init)
    assert _forward(net, user, server, peer) == 3 * SENDS
    assert built == []


@pytest.mark.parametrize("megaflow", [False, True])
def test_forwarded_packets_enter_no_id_code(megaflow):
    net, user, server, peer = _warm_fabric(megaflow)
    types_file = str(pathlib.Path(repro.__file__).parent / "core" / "types.py")
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == types_file:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        delivered = _forward(net, user, server, peer)
    finally:
        sys.setprofile(None)
    assert delivered == 3 * SENDS
    assert entered == []


def _bare_schedule_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("schedule", "schedule_at"):
                yield "%s:%d" % (path, node.lineno)


def test_no_schedule_call_discards_its_handle():
    root = pathlib.Path(repro.__file__).parent
    bare = [site for path in sorted(root.rglob("*.py"))
            for site in _bare_schedule_calls(path)]
    assert bare == [], \
        "use sim.post()/post_at() where the handle is not kept: %s" % bare
