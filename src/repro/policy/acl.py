"""ACL engines: group-based (SDA) and IP-based (the legacy comparator).

The group-based ACL is an exact-match table over (source GroupId,
destination GroupId) — the second stage of the egress pipeline (fig. 4).
Its size is what makes SDA administration scale: |groups|^2 worst case,
independent of endpoint count, while the legacy IP ACL grows with the
number of endpoint prefixes (the paper's motivation: "IP-based ACLs ...
over time can easily become long and difficult to map to the original
intent").
"""

from __future__ import annotations

from repro.policy.matrix import PolicyAction


class GroupAcl:
    """Exact-match (src group, dst group) -> action table on a router.

    Built from the subset of matrix rules the router downloaded; tracks
    hit/drop counters per rule, which is the raw data behind fig. 12
    (permille of hits that land on drop rules).
    """

    def __init__(self, default_action=PolicyAction.DENY, same_group_allowed=True):
        self._rules = {}          # (src, dst) -> action
        self._versions = {}       # (src, dst) -> rule version
        self.default_action = default_action
        self.same_group_allowed = same_group_allowed
        self.hits = 0
        self.drops = 0
        self.rule_hits = {}       # (src, dst) -> count

    def __len__(self):
        return len(self._rules)

    def program(self, rules):
        """Install/refresh a batch of :class:`PolicyRule` (idempotent).

        Returns True when a pair's action is new or different — the only
        case in which a verdict baked into a megaflow can have gone
        stale.  Re-downloading the rows already held returns False.
        """
        changed = False
        for rule in rules:
            if self._rules.get(rule.key) != rule.action:
                self._rules[rule.key] = rule.action
                changed = True
            self._versions[rule.key] = rule.version
        return changed

    def remove(self, src_group, dst_group):
        key = (src_group, dst_group)
        self._rules.pop(key, None)
        self._versions.pop(key, None)

    def clear_destination(self, dst_group):
        """Drop all rules towards a group (endpoint's group went away)."""
        victims = [key for key in self._rules if key[1] == dst_group]
        for key in victims:
            del self._rules[key]
            self._versions.pop(key, None)
        return len(victims)

    def action_for(self, src_group, dst_group):
        """Resolve the action for a group pair **without** counting it.

        The pure half of :meth:`evaluate`.  The data-plane fast path uses
        it to bake a megaflow's policy verdict at install time; the
        ledger side is replayed per packet(-equivalent) via
        :meth:`account`, so fig. 12's hit/drop permille is identical
        whether packets took the slow path or a cached decision.  Ids
        are ``int`` subclasses, so the key needs no conversion to hit
        the rows :meth:`program` keyed by plain ints.
        """
        key = (src_group, dst_group)
        action = self._rules.get(key)
        if action is None:
            if self.same_group_allowed and key[0] == key[1]:
                action = PolicyAction.ALLOW
            else:
                action = self.default_action
        return key, action

    def account(self, key, action, count=1):
        """Charge ``count`` packet-equivalents of a resolved verdict."""
        self.hits += count
        self.rule_hits[key] = self.rule_hits.get(key, 0) + count
        if action == PolicyAction.DENY:
            self.drops += count

    def evaluate(self, src_group, dst_group, count=1):
        """Resolve and count the action for a packet's group pair.

        ``count`` charges the ledger for a whole packet train in one
        call — equivalent to ``count`` separate evaluations of the same
        pair.
        """
        key, action = self.action_for(src_group, dst_group)
        self.account(key, action, count)
        return action

    def allows(self, src_group, dst_group, count=1):
        return self.evaluate(src_group, dst_group, count) == PolicyAction.ALLOW

    @property
    def drop_permille(self):
        """Permille of evaluations that hit a drop — fig. 12's metric."""
        if not self.hits:
            return 0.0
        return 1000.0 * self.drops / self.hits

    def version_of(self, src_group, dst_group):
        return self._versions.get((src_group, dst_group))

class IpAclRule:
    """A legacy ACL line: src prefix, dst prefix, action."""

    __slots__ = ("src_prefix", "dst_prefix", "action")

    def __init__(self, src_prefix, dst_prefix, action):
        self.src_prefix = src_prefix
        self.dst_prefix = dst_prefix
        self.action = PolicyAction.validate(action)

    def matches(self, src_ip, dst_ip):
        return self.src_prefix.contains(src_ip) and self.dst_prefix.contains(dst_ip)

    def __repr__(self):
        return "IpAclRule(%s -> %s: %s)" % (self.src_prefix, self.dst_prefix, self.action)


class IpAcl:
    """First-match IP ACL — the legacy baseline SDA replaces.

    Evaluation is linear in the rule count, and the rule count is what the
    administration-cost comparison measures: expressing the same intent as
    a G-group matrix over N endpoints takes O(N^2) lines here vs O(G^2)
    group rules.
    """

    def __init__(self, default_action=PolicyAction.DENY):
        self._rules = []
        self.default_action = default_action
        self.hits = 0
        self.drops = 0

    def __len__(self):
        return len(self._rules)

    def append(self, src_prefix, dst_prefix, action):
        rule = IpAclRule(src_prefix, dst_prefix, action)
        self._rules.append(rule)
        return rule

    def evaluate(self, src_ip, dst_ip):
        self.hits += 1
        for rule in self._rules:
            if rule.matches(src_ip, dst_ip):
                if rule.action == PolicyAction.DENY:
                    self.drops += 1
                return rule.action
        if self.default_action == PolicyAction.DENY:
            self.drops += 1
        return self.default_action

    @classmethod
    def from_matrix(cls, matrix, members):
        """Render a connectivity matrix into equivalent per-IP ACL lines.

        ``members`` maps group id -> list of host prefixes.  This is the
        translation a human administrator maintains by hand in a legacy
        network; its output size quantifies the paper's "simplified
        administration" claim.
        """
        acl = cls(default_action=matrix.default_action)
        for rule in matrix.rules():
            src_prefixes = members.get(rule.src_group, [])
            dst_prefixes = members.get(rule.dst_group, [])
            for src in src_prefixes:
                for dst in dst_prefixes:
                    acl.append(src, dst, rule.action)
        if matrix.same_group_allowed:
            for group_id, prefixes in members.items():
                for src in prefixes:
                    for dst in prefixes:
                        acl.append(src, dst, PolicyAction.ALLOW)
        return acl
