"""Property-based tests for policy invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import GroupId
from repro.net.addresses import IPv4Address
from repro.policy import ConnectivityMatrix, GroupAcl, PolicyServer, SegmentationPlan
from repro.policy.matrix import PolicyAction
from repro.policy.server import AccessRequest
from repro.sim import Simulator

group_ids = st.integers(min_value=0, max_value=200)
actions = st.sampled_from([PolicyAction.ALLOW, PolicyAction.DENY])
rule_sets = st.lists(st.tuples(group_ids, group_ids, actions), max_size=60)


@given(rule_sets, group_ids, group_ids)
@settings(max_examples=200)
def test_last_write_wins(rules, src, dst):
    """The matrix answer equals the last rule written for that pair."""
    matrix = ConnectivityMatrix()
    expected = None
    for rule_src, rule_dst, action in rules:
        matrix.set_rule(GroupId(rule_src), GroupId(rule_dst), action)
        if (rule_src, rule_dst) == (src, dst):
            expected = action
    if expected is None:
        expected = (PolicyAction.ALLOW if src == dst else matrix.default_action)
    assert matrix.action_for(GroupId(src), GroupId(dst)) == expected


@given(rule_sets)
@settings(max_examples=200)
def test_acl_agrees_with_matrix(rules):
    """A fully programmed ACL answers exactly like the matrix."""
    matrix = ConnectivityMatrix()
    for src, dst, action in rules:
        matrix.set_rule(GroupId(src), GroupId(dst), action)
    acl = GroupAcl()
    acl.program(matrix.rules())
    for src, dst, _ in rules:
        assert acl.evaluate(GroupId(src), GroupId(dst)) == \
            matrix.action_for(GroupId(src), GroupId(dst))


@given(rule_sets)
@settings(max_examples=100)
def test_destination_slices_partition_rules(rules):
    """Every rule appears in exactly one destination slice."""
    matrix = ConnectivityMatrix()
    for src, dst, action in rules:
        matrix.set_rule(GroupId(src), GroupId(dst), action)
    total = 0
    for group in matrix.groups_in_rules():
        total += len(matrix.rules_for_destination(GroupId(group)))
    assert total == len(matrix)


@given(rule_sets)
@settings(max_examples=100)
def test_version_monotone(rules):
    matrix = ConnectivityMatrix()
    last = matrix.version
    for src, dst, action in rules:
        matrix.set_rule(GroupId(src), GroupId(dst), action)
        assert matrix.version > last
        last = matrix.version


@given(st.lists(st.tuples(group_ids, group_ids), min_size=1, max_size=50))
@settings(max_examples=100)
def test_drop_counter_bounded_by_hits(pairs):
    acl = GroupAcl()
    for src, dst in pairs:
        acl.evaluate(GroupId(src), GroupId(dst))
    assert acl.hits == len(pairs)
    assert 0 <= acl.drops <= acl.hits
    assert 0.0 <= acl.drop_permille <= 1000.0


# -- hosted-group index and rule slices vs. brute force -------------------------------

matrix_ops = st.lists(
    st.tuples(st.sampled_from(["set", "remove"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=5), actions),
    max_size=60,
)


@given(matrix_ops)
@settings(max_examples=200)
def test_rule_slices_equal_the_filter_in_order(ops):
    """After any set/update/remove sequence both slices of every group
    are the flat rule list filtered by that end — same rules, same order."""
    matrix = ConnectivityMatrix()
    for op, src, dst, action in ops:
        if op == "set":
            matrix.set_rule(GroupId(src), GroupId(dst), action)
        else:
            matrix.remove_rule(GroupId(src), GroupId(dst))
        rules = matrix.rules()
        for group in range(6):
            assert matrix.rules_for_destination(GroupId(group)) == \
                [rule for rule in rules if int(rule.dst_group) == group]
            assert matrix.rules_for_source(GroupId(group)) == \
                [rule for rule in rules if int(rule.src_group) == group]


_IDENTITIES = ["sta-%d" % index for index in range(6)]
_EDGES = [IPv4Address(0xC0A80001 + index) for index in range(4)]

session_ops = st.lists(
    st.one_of(
        # (re-)authenticate at an edge: a new session, a move, or a re-auth
        st.tuples(st.just("auth"), st.sampled_from(_IDENTITIES),
                  st.sampled_from(_EDGES)),
        # group move followed by the re-auth it triggers at the same edge
        st.tuples(st.just("regroup"), st.sampled_from(_IDENTITIES),
                  st.sampled_from([1, 2, 3])),
        st.tuples(st.just("disable"), st.sampled_from(_IDENTITIES),
                  st.none()),
    ),
    max_size=40,
)


@given(session_ops)
@settings(max_examples=200)
def test_groups_at_equals_the_session_scan(ops):
    """``groups_at`` answers from its index exactly what a walk over every
    live session would, whatever the sessions went through."""
    plan = SegmentationPlan()
    plan.add_vn(100, "corp")
    for group in (1, 2, 3):
        plan.add_group(group, "group-%d" % group, 100)
    server = PolicyServer(Simulator(), plan)
    for index, identity in enumerate(_IDENTITIES):
        server.enroll(identity, "pw", 1 + index % 3, 100)
    for op, identity, arg in ops:
        if op == "auth":
            server._answer(AccessRequest(identity, "pw", reply_to=arg))
        elif op == "regroup":
            server.reassign_group(identity, arg)
            if identity in server.sessions:
                edge = server.sessions[identity][0]
                server._answer(AccessRequest(identity, "pw", reply_to=edge))
        else:
            server.disable(identity)
        for edge in _EDGES:
            assert server.groups_at(edge) == {
                int(group) for rloc, group in server.sessions.values()
                if rloc == edge
            }
