"""The policy server: endpoint authentication + group/VN assignment.

Implements the control-plane half of host onboarding (fig. 3):

1. An edge router relays an Access-Request with the endpoint's credential.
2. The server authenticates (RADIUS semantics: shared secret per
   credential; EAP specifics are out of scope — what matters downstream
   is accept/reject plus the returned attributes).
3. On accept, the reply carries the endpoint's VN, GroupId, and the
   connectivity-matrix rows whose *destination* group equals the
   endpoint's group (egress enforcement needs exactly those).

The server also owns the :class:`ConnectivityMatrix` and notifies SXP
peers when rules or endpoint-group assignments change (sec. 5.4).
"""

from __future__ import annotations

from repro.core.errors import AuthenticationError, PolicyError
from repro.core.queueing import SerialQueue
from repro.core.types import EndpointId
from repro.lisp.messages import ControlMessage, control_packet
from repro.policy.matrix import ConnectivityMatrix
from repro.sim.rng import SeededRng


class EndpointCredential:
    """What the policy database knows about one endpoint identity."""

    __slots__ = ("identity", "secret", "group", "vn", "enabled")

    def __init__(self, identity, secret, group, vn, enabled=True):
        self.identity = EndpointId(identity)
        self.secret = secret
        self.group = group
        self.vn = vn
        self.enabled = enabled

    def __repr__(self):
        return "EndpointCredential(%s, group=%d, vn=%d)" % (
            self.identity, int(self.group), int(self.vn)
        )


class AccessRequest(ControlMessage):
    """Edge -> policy server: authenticate this endpoint (RADIUS-like).

    ``enforcement`` tells the server which rule slice the edge needs:
    egress edges download rules *towards* the endpoint's group; ingress
    edges additionally need the rules *from* it (sec. 5.3).

    ``session_rloc`` is where the endpoint's data-plane session lives.
    Edges leave it unset (it defaults to ``reply_to``); a WLC
    authenticating a wireless station on behalf of an AP's edge sets it
    to that edge so SXP rule targeting still tracks the data plane, not
    the control-plane proxy.
    """

    __slots__ = ("identity", "secret", "reply_to", "enforcement",
                 "session_rloc")

    kind = "access-request"

    def __init__(self, identity, secret, reply_to, enforcement="egress",
                 session_rloc=None, nonce=None):
        super().__init__(nonce)
        self.identity = identity
        self.secret = secret
        self.reply_to = reply_to
        self.enforcement = enforcement
        self.session_rloc = session_rloc


class AccessResult(ControlMessage):
    """Policy server -> edge: Accept (with attributes + rules) or Reject.

    ``rules`` is kept as given, not copied: the sender hands over a list
    it built for this result.
    """

    __slots__ = ("identity", "accepted", "vn", "group", "rules", "reason")

    kind = "access-result"

    def __init__(self, identity, accepted, vn=None, group=None, rules=None,
                 reason="", nonce=None):
        super().__init__(nonce)
        self.identity = identity
        self.accepted = accepted
        self.vn = vn
        self.group = group
        self.rules = [] if rules is None else rules
        self.reason = reason


class PolicyServer:
    """Authentication database + connectivity matrix + change notification.

    Parameters mirror :class:`repro.lisp.RoutingServer`: attach to an
    underlay for simulated operation, or use the direct API
    (:meth:`authenticate`) in tests and pure-policy benchmarks.

    Auth fast path
    --------------
    ``session_cache`` turns on the roam-storm optimization: after a
    successful full authentication, the identity's session can be
    *resumed* for ``session_cache_ttl_s`` — a re-auth (the dominant
    control-plane cost of a roam) then charges ``cached_auth_service_s``
    on the CPU instead of the full RADIUS/EAP exchange, exactly like
    802.11 fast reconnect / opportunistic key caching.  The cache only
    changes *timing*: every request still runs the real credential and
    rule-slice computation, so accept/reject results and returned
    attributes are identical with the flag on or off.  Revocations
    (:meth:`disable`) and group moves (:meth:`reassign_group`) drop the
    session so the next auth pays full price.  Off by default: every
    experiment opts in explicitly so the knob can be ablated.
    """

    def __init__(self, sim, plan, underlay=None, rloc=None, node=None,
                 auth_service_s=2e-3, service_jitter_s=0.5e-3, seed=13,
                 session_cache=False, session_cache_ttl_s=600.0,
                 cached_auth_service_s=50e-6):
        self.sim = sim
        self.plan = plan
        self.matrix = ConnectivityMatrix(plan)
        self.underlay = underlay
        self.rloc = rloc
        self.auth_service_s = auth_service_s
        self.service_jitter_s = service_jitter_s
        self.session_cache = session_cache
        self.session_cache_ttl_s = session_cache_ttl_s
        self.cached_auth_service_s = cached_auth_service_s
        self._auth_cache = {}   # EndpointId -> resumable-until time
        self.auth_cache_hits = 0
        self.auth_cache_misses = 0
        self._rng = SeededRng(seed)
        self._credentials = {}
        self._cpu = SerialQueue(sim)
        self._matrix_listeners = []     # callbacks (rule) on rule change
        self._group_change_listeners = []  # callbacks (identity, old, new)
        self._session_listeners = []    # callbacks (identity, edge_rloc, group)
        #: live authentication sessions: identity -> (edge rloc, group).
        #: This is what lets the server know which edges host which
        #: groups — the input to targeted SXP rule distribution.
        self.sessions = {}
        #: the same sessions counted per edge: edge rloc -> {group id ->
        #: live sessions}, kept in step by :meth:`_record_session` so
        #: :meth:`groups_at` never walks ``sessions``.
        self._hosted = {}
        self.auth_accepts = 0
        self.auth_rejects = 0
        if underlay is not None:
            if rloc is None or node is None:
                raise PolicyError("attached policy server needs rloc and node")
            underlay.attach(rloc, node, self._on_packet)

    # -- credential management -----------------------------------------------------
    def enroll(self, identity, secret, group, vn):
        """Register an endpoint identity with its segment assignment."""
        if not self.plan.has_group(group):
            raise PolicyError("enroll %r: unknown group %r" % (identity, group))
        plan_group = self.plan.group(group)
        if int(plan_group.vn) != int(vn):
            raise PolicyError(
                "enroll %r: group %r belongs to VN %d, not %d"
                % (identity, plan_group.name, int(plan_group.vn), int(vn))
            )
        credential = EndpointCredential(identity, secret, plan_group.group_id, plan_group.vn)
        self._credentials[EndpointId(identity)] = credential
        return credential

    def disable(self, identity):
        credential = self._credential(identity)
        credential.enabled = False
        # Revocation kills the resumable session: the next auth runs the
        # full exchange (and rejects).
        self._auth_cache.pop(credential.identity, None)

    def _credential(self, identity):
        try:
            return self._credentials[EndpointId(identity)]
        except KeyError:
            raise AuthenticationError("unknown endpoint identity %r" % identity)

    def reassign_group(self, identity, new_group):
        """Move an endpoint to a different group (sec. 5.4's cheap knob).

        Fires group-change listeners so edges holding the endpoint can
        re-run authentication — which is how egress enforcement picks up
        the change without extra rule signaling.
        """
        credential = self._credential(identity)
        plan_group = self.plan.group(new_group)
        if int(plan_group.vn) != int(credential.vn):
            raise PolicyError(
                "cannot move %r across VNs via group reassignment" % identity
            )
        old = credential.group
        credential.group = plan_group.group_id
        # The session's authorization changed; force a full re-auth.
        self._auth_cache.pop(credential.identity, None)
        for listener in self._group_change_listeners:
            listener(credential.identity, old, plan_group.group_id)
        return old

    # -- matrix operations -------------------------------------------------------------
    def set_rule(self, src_group, dst_group, action):
        """Update the matrix and notify listeners (SXP distribution)."""
        rule = self.matrix.set_rule(src_group, dst_group, action)
        for listener in self._matrix_listeners:
            listener(rule)
        return rule

    def on_matrix_change(self, callback):
        self._matrix_listeners.append(callback)

    def on_group_change(self, callback):
        self._group_change_listeners.append(callback)

    def on_session(self, callback):
        """Register ``callback(identity, edge_rloc, group, vacated_rloc)``
        fired on every successful (re-)authentication.  ``vacated_rloc``
        is the edge the session moved away from when it was the last of
        its group there — that edge hosts one group fewer — else ``None``."""
        self._session_listeners.append(callback)

    def _record_session(self, identity, edge_rloc, group):
        """Point ``identity``'s session at ``(edge_rloc, group)``; the
        identity is already an :class:`EndpointId`."""
        previous = self.sessions.get(identity)
        self.sessions[identity] = (edge_rloc, group)
        vacated_rloc = None
        if previous is not None:
            old_rloc, old_group = previous
            counts = self._hosted[old_rloc]
            old_group = int(old_group)
            counts[old_group] -= 1
            if not counts[old_group]:
                del counts[old_group]
                if old_rloc != edge_rloc:
                    vacated_rloc = old_rloc
        counts = self._hosted.setdefault(edge_rloc, {})
        group_id = int(group)
        counts[group_id] = counts.get(group_id, 0) + 1
        for listener in self._session_listeners:
            listener(identity, edge_rloc, group, vacated_rloc)

    def groups_at(self, edge_rloc):
        """GroupIds of endpoints currently authenticated via an edge
        (a fresh set; the caller may keep or change it)."""
        return set(self._hosted.get(edge_rloc, ()))

    # -- authentication -----------------------------------------------------------------
    def authenticate(self, identity, secret, enforcement="egress"):
        """Direct-call authentication; returns an :class:`AccessResult`.

        Raising vs. returning: bad credentials are a *result* (Reject),
        not an exception — edges handle rejects as a normal outcome.

        The rule slice depends on the edge's enforcement point: egress
        edges get destination-side rules only; ingress edges get the
        union of destination- and source-side rules (they still run the
        egress stage for local-to-local traffic).
        """
        identity = EndpointId(identity)
        credential = self._credentials.get(identity)
        if credential is None:
            self.auth_rejects += 1
            return AccessResult(identity, False, reason="unknown-identity")
        if not credential.enabled:
            self.auth_rejects += 1
            return AccessResult(identity, False, reason="disabled")
        if credential.secret != secret:
            self.auth_rejects += 1
            return AccessResult(identity, False, reason="bad-secret")
        self.auth_accepts += 1
        rules = self.matrix.rules_for_destination(credential.group)
        if enforcement == "ingress":
            seen = {rule.key for rule in rules}
            for rule in self.matrix.rules_for_source(credential.group):
                if rule.key not in seen:
                    rules.append(rule)
        return AccessResult(
            identity, True, vn=credential.vn, group=credential.group, rules=rules
        )

    def rules_for_destination(self, group):
        return self.matrix.rules_for_destination(group)

    def rules_for_source(self, group):
        return self.matrix.rules_for_source(group)

    # -- simulated transport ----------------------------------------------------------------
    def _on_packet(self, packet):
        message = packet.payload
        if message.kind != AccessRequest.kind:
            raise PolicyError("policy server got %r" % message.kind)
        service_s = self._auth_service_time(message.identity)
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.span(
                "policy_auth", device=self, parent=message.trace_ctx,
                identity=message.identity,
                queue_wait_s=self._cpu.backlog_s, service_s=service_s,
            )
            self._cpu.submit(service_s, self._answer, message, span)
        else:
            self._cpu.submit(service_s, self._answer, message)

    def _auth_service_time(self, identity):
        """CPU charge for one auth: session resumption vs full exchange."""
        if self.session_cache:
            # A read: a plain str finds the EndpointId key it equals.
            resumable_until = self._auth_cache.get(identity)
            if resumable_until is not None and resumable_until > self.sim.now:
                self.auth_cache_hits += 1
                return self.cached_auth_service_s
            self.auth_cache_misses += 1
        return self.auth_service_s + self._rng.uniform(0, self.service_jitter_s)

    def _answer(self, request, span=None):
        result = self.authenticate(request.identity, request.secret,
                                   enforcement=request.enforcement)
        result.nonce = request.nonce
        if span is not None:
            result.trace_ctx = span.ctx
            span.finish(accepted=result.accepted)
        if result.accepted:
            identity = result.identity   # normalised by authenticate()
            if self.session_cache:
                self._auth_cache[identity] = (
                    self.sim.now + self.session_cache_ttl_s
                )
            session_rloc = request.session_rloc or request.reply_to
            self._record_session(identity, session_rloc, result.group)
        if self.underlay is not None:
            self.underlay.send(
                self.rloc, request.reply_to,
                control_packet(self.rloc, request.reply_to, result),
            )
