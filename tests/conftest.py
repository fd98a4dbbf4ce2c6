"""Shared fixtures: simulators, small fabrics, address helpers."""

import pytest

from repro.fabric import FabricConfig, FabricNetwork
from repro.net.addresses import IPv4Address, Prefix
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def ip():
    """Shorthand IPv4 parser."""
    return IPv4Address.parse


@pytest.fixture
def pfx():
    """Shorthand prefix parser."""
    return Prefix.parse


@pytest.fixture
def keys_built(monkeypatch):
    """A list that grows by one per ``Prefix``/address built while the
    test runs (constructors and ``to_prefix``) — empty it, run a lookup,
    and it shows what that lookup allocated."""
    built = []
    for cls, name in ((Prefix, "__init__"), (IPv4Address.__base__, "__init__"),
                      (IPv4Address.__base__, "to_prefix")):
        original = getattr(cls, name)

        def counting(self, *args, _original=original, _name=name):
            built.append((type(self).__name__, _name))
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counting)
    return built


@pytest.fixture
def small_fabric():
    """A 1-border / 4-edge fabric with one VN and three groups.

    Groups: employees <-> printers allowed; cameras isolated (no rules).
    """
    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=4, seed=7))
    net.define_vn("corp", 4098, "10.1.0.0/16")
    net.define_group("employees", 10, 4098)
    net.define_group("printers", 20, 4098)
    net.define_group("cameras", 30, 4098)
    net.allow("employees", "printers")
    return net


def admit_and_settle(net, endpoint, edge_index):
    """Admit one endpoint and wait for onboarding to finish."""
    outcome = []
    net.admit(endpoint, edge_index, on_complete=lambda e, ok: outcome.append(ok))
    net.settle()
    assert outcome and outcome[0], "onboarding failed for %s" % endpoint.identity
    return endpoint


@pytest.fixture
def populated_fabric(small_fabric):
    """small_fabric plus three onboarded endpoints on distinct edges."""
    net = small_fabric
    alice = net.create_endpoint("alice", "employees", 4098)
    bob = net.create_endpoint("bob", "employees", 4098)
    printer = net.create_endpoint("printer-1", "printers", 4098)
    admit_and_settle(net, alice, 0)
    admit_and_settle(net, bob, 1)
    admit_and_settle(net, printer, 2)
    return net, alice, bob, printer
