"""Unit tests for the policy server."""

import pytest

from repro.core.errors import PolicyError
from repro.core.types import GroupId, VNId
from repro.net.addresses import IPv4Address
from repro.policy import PolicyServer, SegmentationPlan
from repro.policy.server import AccessRequest
from tests.conftest import admit_and_settle


@pytest.fixture
def plan():
    p = SegmentationPlan()
    p.add_vn(100, "corp")
    p.add_group(1, "employees", 100)
    p.add_group(2, "printers", 100)
    p.add_vn(200, "guest")
    p.add_group(3, "visitors", 200)
    return p


@pytest.fixture
def server(sim, plan):
    s = PolicyServer(sim, plan)
    s.enroll("alice", "pw", 1, 100)
    return s


def test_accept_with_attributes(server):
    result = server.authenticate("alice", "pw")
    assert result.accepted
    assert result.vn == VNId(100)
    assert result.group == GroupId(1)
    assert server.auth_accepts == 1


def test_reject_unknown(server):
    result = server.authenticate("mallory", "pw")
    assert not result.accepted and result.reason == "unknown-identity"
    assert server.auth_rejects == 1


def test_reject_bad_secret(server):
    result = server.authenticate("alice", "wrong")
    assert not result.accepted and result.reason == "bad-secret"


def test_reject_disabled(server):
    server.disable("alice")
    result = server.authenticate("alice", "pw")
    assert not result.accepted and result.reason == "disabled"


def test_enroll_validates_group_vn_pairing(server):
    with pytest.raises(PolicyError):
        server.enroll("bob", "pw", 3, 100)   # visitors is in guest VN
    with pytest.raises(PolicyError):
        server.enroll("bob", "pw", 99, 100)  # unknown group


def test_accept_carries_destination_rules(server):
    server.set_rule(GroupId(2), GroupId(1), "allow")
    server.set_rule(GroupId(1), GroupId(2), "allow")
    result = server.authenticate("alice", "pw")
    # Egress: only rules whose destination is alice's group (1).
    assert len(result.rules) == 1
    assert int(result.rules[0].dst_group) == 1


def test_ingress_enforcement_gets_source_rules_too(server):
    server.set_rule(GroupId(2), GroupId(1), "allow")
    server.set_rule(GroupId(1), GroupId(2), "allow")
    result = server.authenticate("alice", "pw", enforcement="ingress")
    assert len(result.rules) == 2


def test_matrix_change_notifies_listeners(server):
    seen = []
    server.on_matrix_change(seen.append)
    rule = server.set_rule(GroupId(1), GroupId(2), "allow")
    assert seen == [rule]


def test_reassign_group_same_vn(server):
    changes = []
    server.on_group_change(lambda i, old, new: changes.append((str(i), int(old), int(new))))
    old = server.reassign_group("alice", 2)
    assert old == GroupId(1)
    assert changes == [("alice", 1, 2)]
    assert server.authenticate("alice", "pw").group == GroupId(2)


def test_reassign_group_cross_vn_rejected(server):
    with pytest.raises(PolicyError):
        server.reassign_group("alice", 3)


def test_simulated_exchange_over_underlay(small_fabric):
    """End-to-end auth through the attached policy server."""
    net = small_fabric
    net.create_endpoint("carol", "employees", 4098)
    endpoint = net.endpoint("carol")
    results = []
    net.admit(endpoint, 0, on_complete=lambda e, ok: results.append(ok))
    net.settle()
    assert results == [True]
    assert net.policy_server.auth_accepts >= 1


def test_matrix_edit_skips_the_edge_a_group_left(small_fabric):
    """Once a group's last member roamed off an edge, SXP stops pushing
    that group's rule edits there."""
    net = small_fabric
    camera = net.create_endpoint("cam-1", "cameras", 4098)
    admit_and_settle(net, camera, 0)
    net.roam(camera, 1)
    net.settle()
    sent = []
    send = net.sxp._send

    def spy(peer, update):
        sent.append((peer, update.rule))
        send(peer, update)

    net.sxp._send = spy
    rule = net.policy_server.set_rule(GroupId(10), GroupId(30), "allow")
    assert sent == [(net.edges[1].rloc, rule)]
    assert not net.sxp.peer_hosts_group(net.edges[0].rloc, 30)


_EDGE_A = IPv4Address(0xC0A80001)
_EDGE_B = IPv4Address(0xC0A80002)


class _NoScanDict(dict):
    """A dict that refuses to be walked."""

    def _refuse(self):
        raise AssertionError("the auth path walked every session")

    __iter__ = values = items = keys = _refuse


def test_auth_path_never_walks_the_sessions(server):
    """One `_answer` + `groups_at` costs the same at any population."""
    server.enroll("bob", "pw", 2, 100)
    server._answer(AccessRequest("bob", "pw", reply_to=_EDGE_A))
    server.sessions = _NoScanDict(server.sessions)
    server._answer(AccessRequest("alice", "pw", reply_to=_EDGE_A))
    server._answer(AccessRequest("bob", "pw", reply_to=_EDGE_B))
    assert server.groups_at(_EDGE_A) == {1}
    assert server.groups_at(_EDGE_B) == {2}
    assert dict.__len__(server.sessions) == 2


def test_groups_at_hands_out_a_private_set(server):
    server._answer(AccessRequest("alice", "pw", reply_to=_EDGE_A))
    groups = server.groups_at(_EDGE_A)
    groups.add(99)
    groups.discard(1)
    assert server.groups_at(_EDGE_A) == {1}
    assert server.groups_at(_EDGE_B) == set()
    server.groups_at(_EDGE_B).add(7)
    assert server.groups_at(_EDGE_B) == set()


def test_session_listener_learns_the_edge_that_lost_a_group(server):
    server.enroll("bob", "pw", 1, 100)
    seen = []
    server.on_session(lambda i, rloc, group, vacated:
                      seen.append((str(i), rloc, int(group), vacated)))
    for identity, edge in (("alice", _EDGE_A), ("bob", _EDGE_A),
                           ("alice", _EDGE_A),     # re-auth in place
                           ("alice", _EDGE_B),     # bob still holds group 1 at A
                           ("bob", _EDGE_B)):      # A's last member of group 1
        server._answer(AccessRequest(identity, "pw", reply_to=edge))
    assert seen == [("alice", _EDGE_A, 1, None), ("bob", _EDGE_A, 1, None),
                    ("alice", _EDGE_A, 1, None), ("alice", _EDGE_B, 1, None),
                    ("bob", _EDGE_B, 1, _EDGE_A)]
    server.reassign_group("bob", 2)                # group change in place:
    server._answer(AccessRequest("bob", "pw", reply_to=_EDGE_B))
    assert seen[-1] == ("bob", _EDGE_B, 2, None)   # B itself is refreshed


class TestSessionCache:
    """The auth fast path: RADIUS session resumption."""

    def _request(self, identity="alice", secret="pw"):
        return AccessRequest(identity, secret, reply_to=None)

    def test_first_auth_is_full_price_then_resumes(self, sim, plan):
        server = PolicyServer(sim, plan, session_cache=True)
        server.enroll("alice", "pw", 1, 100)
        full = server._auth_service_time("alice")
        assert full >= server.auth_service_s
        assert server.auth_cache_misses == 1
        server._answer(self._request())          # successful full auth
        resumed = server._auth_service_time("alice")
        assert resumed == server.cached_auth_service_s
        assert server.auth_cache_hits == 1
        # Timing changed; the result did not.
        result = server.authenticate("alice", "pw")
        assert result.accepted and int(result.group) == 1

    def test_session_expires_after_ttl(self, sim, plan):
        server = PolicyServer(sim, plan, session_cache=True,
                              session_cache_ttl_s=30.0)
        server.enroll("alice", "pw", 1, 100)
        server._answer(self._request())
        sim.run(until=29.0)
        assert server._auth_service_time("alice") == server.cached_auth_service_s
        sim.run(until=31.0)
        assert server._auth_service_time("alice") >= server.auth_service_s

    def test_disable_revokes_the_session(self, sim, plan):
        server = PolicyServer(sim, plan, session_cache=True)
        server.enroll("alice", "pw", 1, 100)
        server._answer(self._request())
        server.disable("alice")
        assert server._auth_service_time("alice") >= server.auth_service_s
        assert not server.authenticate("alice", "pw").accepted

    def test_group_move_forces_full_reauth(self, sim, plan):
        server = PolicyServer(sim, plan, session_cache=True)
        server.enroll("alice", "pw", 1, 100)
        server._answer(self._request())
        server.reassign_group("alice", 2)
        assert server._auth_service_time("alice") >= server.auth_service_s

    def test_rejected_auth_never_populates_the_cache(self, sim, plan):
        server = PolicyServer(sim, plan, session_cache=True)
        server.enroll("alice", "pw", 1, 100)
        server._answer(self._request(secret="wrong"))
        assert server._auth_service_time("alice") >= server.auth_service_s

    def test_flag_off_never_counts(self, sim, plan):
        server = PolicyServer(sim, plan)
        server.enroll("alice", "pw", 1, 100)
        server._answer(self._request())
        server._auth_service_time("alice")
        assert server.auth_cache_hits == 0
        assert server.auth_cache_misses == 0
