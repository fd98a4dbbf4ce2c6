"""The group connectivity matrix: (source group, destination group) -> action.

Per the paper, rules are independent per VN, the matrix defaults to deny
(whitelist model), and edge routers download only the rows whose
destination group is attached locally (sec. 3.3.1, sec. 5.3).

A version counter tracks matrix updates so distribution code can tell
which edges hold stale rule sets — the signaling-cost accounting behind
the sec. 5.4 policy-update trade-off.
"""

from __future__ import annotations

from repro.core.errors import PolicyError
from repro.core.types import GroupId


class PolicyAction:
    """Action vocabulary for matrix cells."""

    ALLOW = "allow"
    DENY = "deny"

    _VALID = frozenset((ALLOW, DENY))

    @classmethod
    def validate(cls, action):
        if action not in cls._VALID:
            raise PolicyError("invalid policy action %r" % action)
        return action


class PolicyRule:
    """One matrix cell: src group -> dst group with an action."""

    __slots__ = ("src_group", "dst_group", "action", "version")

    def __init__(self, src_group, dst_group, action, version=1):
        self.src_group = src_group if isinstance(src_group, GroupId) else GroupId(src_group)
        self.dst_group = dst_group if isinstance(dst_group, GroupId) else GroupId(dst_group)
        self.action = PolicyAction.validate(action)
        self.version = version

    @property
    def key(self):
        return (int(self.src_group), int(self.dst_group))

    def __repr__(self):
        return "PolicyRule(%d -> %d: %s)" % (
            int(self.src_group), int(self.dst_group), self.action
        )


class ConnectivityMatrix:
    """The per-deployment group connectivity matrix.

    Rules live in a flat dict keyed by (src, dst) group ids.  The matrix
    is whitelist: a lookup with no matching rule yields ``default_action``
    (deny, per the SDA posture).  Same-group traffic defaults to allow
    unless explicitly overridden, matching deployed SDA behaviour.

    ``_by_dst`` / ``_by_src`` hold the same rules once more, grouped by
    one end: ``group id -> {(src, dst): rule}``.  Each inner dict sees
    the same sets, updates and deletes as ``_rules``, so its order is
    ``_rules``' order restricted to that group and a rule slice costs
    its own length, not the matrix's.
    """

    def __init__(self, plan=None, default_action=PolicyAction.DENY,
                 same_group_allowed=True):
        self._plan = plan
        self._rules = {}
        self._by_dst = {}
        self._by_src = {}
        self.default_action = PolicyAction.validate(default_action)
        self.same_group_allowed = same_group_allowed
        self.version = 0

    def __len__(self):
        return len(self._rules)

    def _check_groups(self, src_group, dst_group):
        if self._plan is not None:
            self._plan.validate_same_vn(src_group, dst_group)

    def set_rule(self, src_group, dst_group, action):
        """Create or update a rule; bumps the matrix version."""
        self._check_groups(src_group, dst_group)
        self.version += 1
        rule = PolicyRule(src_group, dst_group, action, version=self.version)
        key = rule.key
        self._rules[key] = rule
        self._by_dst.setdefault(key[1], {})[key] = rule
        self._by_src.setdefault(key[0], {})[key] = rule
        return rule

    def allow(self, src_group, dst_group, symmetric=False):
        self.set_rule(src_group, dst_group, PolicyAction.ALLOW)
        if symmetric:
            self.set_rule(dst_group, src_group, PolicyAction.ALLOW)

    def deny(self, src_group, dst_group, symmetric=False):
        self.set_rule(src_group, dst_group, PolicyAction.DENY)
        if symmetric:
            self.set_rule(dst_group, src_group, PolicyAction.DENY)

    def remove_rule(self, src_group, dst_group):
        key = (int(src_group), int(dst_group))
        if key in self._rules:
            del self._rules[key]
            del self._by_dst[key[1]][key]
            del self._by_src[key[0]][key]
            self.version += 1
            return True
        return False

    def action_for(self, src_group, dst_group):
        """Resolve the action for a (src, dst) group pair."""
        rule = self._rules.get((int(src_group), int(dst_group)))
        if rule is not None:
            return rule.action
        if self.same_group_allowed and int(src_group) == int(dst_group):
            return PolicyAction.ALLOW
        return self.default_action

    def allows(self, src_group, dst_group):
        return self.action_for(src_group, dst_group) == PolicyAction.ALLOW

    def rules(self):
        return list(self._rules.values())

    def rules_for_destination(self, dst_group):
        """The rule subset an edge downloads for one local group.

        Egress enforcement means an edge only needs rules whose
        *destination* is one of its attached endpoints' groups
        (sec. 3.3.1: "it downloads the rules where the endpoint's group
        is the destination").
        """
        return list(self._by_dst.get(int(dst_group), {}).values())

    def rules_for_source(self, src_group):
        """The rule subset needed for ingress enforcement (ablation)."""
        return list(self._by_src.get(int(src_group), {}).values())

    def groups_in_rules(self):
        """All group ids referenced anywhere in the matrix."""
        seen = set()
        for src, dst in self._rules:
            seen.add(src)
            seen.add(dst)
        return sorted(seen)
