"""The fabric WLC: a control-plane-only wireless controller.

The paper's fabric-wireless integration in one sentence: the WLC "joins
the control plane only" — it authenticates stations, obtains their SGT
from the policy server, and registers their location with the routing
server *on behalf of* the AP's edge, while the data plane stays fully
distributed (APs encapsulate VXLAN locally).  Compare
:class:`repro.baselines.wlc.WlanController`, which sinks every data
packet through one queue.

Concretely, per association the WLC:

1. runs 802.1X-style authentication against the policy server (the
   Access-Request carries ``session_rloc`` = the serving edge, so SXP
   rule targeting keeps tracking the data plane);
2. leases the station's overlay IP (kept across roams — L3 mobility);
3. installs forwarding state on the serving edge (VRF entry + egress
   rule rows) — the only thing the edge itself has to hold;
4. Map-Registers the station's EIDs with ``rloc`` = the serving edge,
   as *registrar* (ack requested).  On a roam the routing server's
   normal fig. 5 machinery notifies the previous edge, which redirects
   in-flight packets; the WLC additionally relays the acked record to
   any older edges from the station's roam history, so location state
   never goes stale along a roam chain.

The WLC serializes association work through one control CPU queue —
that queue (not any data path) is what a roam storm stresses, which is
exactly the scaling property the fabric design buys.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.core.queueing import SerialQueue
from repro.lisp.messages import (
    EidRecord,
    MapNotify,
    MapRegister,
    MapUnregister,
    control_packet,
    next_nonce,
)
from repro.lisp.registrar import RegisterPacer
from repro.policy.server import AccessRequest, AccessResult
from repro.sim.rng import SeededRng


class FabricWlcStats(Counters):
    """Control-plane event counters (the WLC has no data-plane ones)."""

    FIELDS = (
        "associations",
        "roams",
        "intra_edge_roams",
        "disassociations",
        "auth_requests",
        "auth_rejects",
        "registers_sent",
        "register_records_sent",
        "register_batches_sent",
        "unregisters_sent",
        "registrar_acks_received",
        "stale_edge_notifies",
        "handoffs_out",
        "register_retries_sent",
        "register_retry_exhausted",
    )


class FabricWlc:
    """Controller for fabric-enabled wireless (control plane only).

    Parameters
    ----------
    sim / underlay / rloc / node:
        Simulation kernel and the controller's attachment point.  The
        WLC is an underlay device like any server — but it never sees a
        station data packet.
    config:
        The fabric's :class:`~repro.fabric.FabricConfig`: ``batching`` /
        ``register_flush_s``, ``register_retry``, ``backpressure`` and
        ``breaker`` apply to the WLC exactly as to an edge.  The
        registrar always asks for acks, but without ``register_retry`` a
        lost Map-Register (or a crashed routing server) strands the
        station's location until its next roam.
    wireless_config:
        The :class:`~repro.wireless.WirelessConfig`.  ``wlc_service_s``
        is the control CPU time per association/disassociation event —
        the single-queue model whose backlog a roam storm measures.
        ``register_families`` selects the station EIDs to register;
        every family's registration requests an ack (so the roam-chain
        relay can refresh stale caches per family), and the IPv4 ack
        doubles as the roam-completion sample.
    register_rlocs / policy_server_rloc / dhcp:
        The fabric control plane the WLC integrates with.  Registrations
        fan out to every routing server (mirroring edge behaviour with
        horizontally scaled control planes).
    """

    def __init__(self, sim, underlay, rloc, node, config, wireless_config,
                 register_rlocs, policy_server_rloc, dhcp):
        self.sim = sim
        self.underlay = underlay
        self.rloc = rloc
        self.register_rlocs = tuple(register_rlocs)
        if not self.register_rlocs:
            raise ConfigurationError("WLC needs at least one routing server")
        self.policy_server_rloc = policy_server_rloc
        self.dhcp = dhcp
        self.service_s = wireless_config.wlc_service_s
        self.register_families = wireless_config.register_families
        self.batching = config.batching
        self.register_retry = config.register_retry
        self._rng = SeededRng(37).spawn("wlc")
        #: batch windows + overload armor; only ``register_rlocs[0]``
        #: acks, so only it widens windows or trips a breaker
        self.pacer = RegisterPacer(sim, config, self._rng,
                                   self._flush_registers)
        self._batch_nonce = {}    # server rloc -> nonce of the open batch
        self.stats = FabricWlcStats()
        #: registration-completion delay samples (radio association to
        #: the routing server's ack), for the roam-storm benches
        self.registration_delays = []
        #: optional hook ``(station, delay_s)`` fired on each ack
        self.on_registered = None
        self._aps = []
        self._cpu = SerialQueue(sim)
        self._pending_auth = {}       # nonce -> (station, ap, previous, t0, cb)
        #: (vn int, eid) -> (station, stale rlocs, t0, is_completion,
        #: register nonce) — the nonce pins the ack to this registration
        #: instance (see _on_register_ack)
        self._pending_register = {}
        #: where each station's location is currently *registered* — the
        #: registrar's own record of truth.  ``station.edge`` is not
        #: usable for withdrawal: it goes None the instant the radio
        #: leaves an edge, long before the re-registration lands.
        self._registered_edge = {}    # identity -> EdgeRouter
        #: edges that served a station at some point in its roam history
        self._visited_edges = {}      # identity -> set of edge rlocs
        underlay.attach(rloc, node, self._on_packet)

    @property
    def max_queue_delay_s(self):
        """Worst backlog an association event saw on the control CPU."""
        return self._cpu.max_delay_s

    # ------------------------------------------------------------------ registry
    def register_ap(self, ap):
        self._aps.append(ap)

    # ------------------------------------------------------------------ association
    def on_associate(self, station, ap, previous_ap, on_complete=None):
        """Radio-layer notification from an AP (queued on the CPU)."""
        self._cpu.submit(self.service_s, self._process_association,
                         station, ap, previous_ap, self.sim.now, on_complete)

    def _process_association(self, station, ap, previous_ap, t0, on_complete):
        if station.ap is not ap:
            return  # moved again (or left) while queued
        span = self.sim.tracer.span(
            "wlc_associate", device=self,
            parent=getattr(station, "trace_ctx", None),
            station=station.identity, ap=ap.name,
            queue_wait_s=self.sim.now - t0,
        )
        if previous_ap is not None:
            self.stats.roams += 1
        else:
            self.stats.associations += 1
        if (previous_ap is not None and previous_ap.edge is ap.edge
                and station.edge is ap.edge
                and ap.edge.vrf.lookup_identity(station.identity) is not None):
            # Intra-edge fast roam: the serving edge — and therefore the
            # registered RLOC, the VRF entry and the rules — are all
            # unchanged.  No auth, no registration, no notify.  A radio
            # that left for another edge and came back before the WLC
            # processed either move (station.edge was cleared) re-onboards
            # instead: install_wireless_endpoint re-binds the lingering
            # entry.
            self.stats.intra_edge_roams += 1
            span.finish(outcome="intra_edge")
            if on_complete is not None:
                on_complete(station, True)
            return
        request = AccessRequest(
            station.identity, station.secret, reply_to=self.rloc,
            enforcement=ap.edge.enforcement, session_rloc=ap.edge.rloc,
        )
        request.trace_ctx = span.ctx
        self._pending_auth[request.nonce] = (
            station, ap, previous_ap, t0, on_complete, span
        )
        self.stats.auth_requests += 1
        self._send(self.policy_server_rloc, request)

    def _finish_auth(self, result):
        pending = self._pending_auth.pop(result.nonce, None)
        if pending is None:
            return
        station, ap, previous_ap, t0, on_complete, span = pending
        if station.ap is not ap:
            span.finish(outcome="superseded")
            return  # roamed again mid-auth; the newer association wins
        if not result.accepted:
            self.stats.auth_rejects += 1
            ap.drop_station(station)
            station.ap = None
            # A now-rejected station is cut off everywhere: if it was
            # onboarded (a roam re-auth), its old registration and VRF
            # entry must be withdrawn or peers would blackhole into the
            # previous edge forever.
            self._withdraw(station, reason="auth_reject", parent=span.ctx)
            span.finish(outcome="rejected")
            if on_complete is not None:
                on_complete(station, False)
            return
        station.vn = result.vn
        station.group = result.group
        if station.ip is None:
            station.ip, station.ipv6 = self.dhcp.lease(
                result.vn, station.identity
            )
        prev_edge = previous_ap.edge if previous_ap is not None else None
        # The edge the routing server will itself notify (fig. 5 step 2)
        # is the previously *registered* one — not the radio-previous
        # edge, which can lag behind when an association is superseded
        # before its registration ever happened (A->B->C where B's auth
        # lost the race: the server still has A on record, so C's
        # register notifies A, and B must ride the stale-edge relay).
        registered_prev = self._registered_edge.get(station.identity)
        ap.edge.install_wireless_endpoint(
            station, result.vn, result.group, result.rules
        )
        self._registered_edge[station.identity] = ap.edge
        mobility = registered_prev is not None and registered_prev is not ap.edge
        # Roam-chain hygiene: every edge the radio or the registration
        # pipeline ever touched — minus the current one and the one the
        # server notifies itself — gets the authoritative record relayed
        # once the server acks.
        visited = self._visited_edges.setdefault(station.identity, set())
        if prev_edge is not None:
            visited.add(prev_edge.rloc)
        if registered_prev is not None:
            visited.add(registered_prev.rloc)
        stale = set(visited)
        stale.discard(ap.edge.rloc)
        if registered_prev is not None:
            stale.discard(registered_prev.rloc)
        self._register_station(station, ap.edge.rloc, mobility, stale, t0,
                               parent_ctx=span.ctx)
        span.finish(outcome="registered")
        if on_complete is not None:
            on_complete(station, True)

    def _register_station(self, station, edge_rloc, mobility, stale_rlocs,
                          t0, parent_ctx=None):
        stale = tuple(sorted(stale_rlocs, key=int))
        # One registration-cycle span per station; it stays open until
        # the routing server's ack lands (see _on_register_ack), so its
        # duration *is* the registration half of the roam delay.
        reg_span = self.sim.tracer.span(
            "wlc_register", device=self, parent=parent_ctx,
            station=station.identity, mobility=mobility,
            stale_edges=len(stale),
        )
        if self.batching:
            self._register_station_batched(
                station, edge_rloc, mobility, stale, t0, reg_span
            )
            return
        for eid in station.eids(self.register_families):
            # Every family gets an acked registration so the roam-chain
            # relay refreshes stale edges' caches for *all* of the
            # station's EIDs; only the IPv4 ack is the completion sample.
            self._register_eid(station, station.vn, eid, edge_rloc, mobility,
                               stale, t0, reg_span, attempt=0)

    def _register_eid(self, station, vn, eid, edge_rloc, mobility, stale, t0,
                      reg_span, attempt):
        """Map-Register one EID at every server; the first one acks."""
        registrar = self.rloc
        for server_rloc in self.register_rlocs:
            register = MapRegister(
                vn, eid, edge_rloc, station.group,
                mac=station.mac if eid.family != "mac" else None,
                mobility=mobility, registrar_rloc=registrar,
            )
            register.trace_ctx = reg_span.ctx
            if registrar is not None:
                # The register's nonce identifies this registration
                # instance; the server echoes it in the ack, so a
                # delayed ack from an older registration at the
                # *same* edge (an A->B->A bounce under backlog)
                # cannot complete the newer one.
                self._pin_register(station, vn, eid, stale, t0,
                                   register.nonce, reg_span, attempt)
            self.stats.registers_sent += 1
            self._send(server_rloc, register)
            registrar = None  # one ack per EID is enough

    # ------------------------------------------------------------------ batched fast path
    def _register_station_batched(self, station, edge_rloc, mobility,
                                  stale, t0, reg_span):
        ack_server = self.register_rlocs[0]
        for server_rloc in self.register_rlocs:
            for eid in station.eids(self.register_families):
                record = EidRecord(
                    station.vn, eid, edge_rloc, group=station.group,
                    mac=station.mac if eid.family != "mac" else None,
                    mobility=mobility,
                )
                nonce = self._submit_record(server_rloc, record)
                self.stats.register_records_sent += 1
                if server_rloc == ack_server:
                    # Same instance-pinning contract as the unbatched
                    # path, with the *batch* nonce standing in for the
                    # per-message one.  (The flushed batch message mixes
                    # stations, so it carries no single trace context;
                    # the per-station reg_span still closes on its ack.)
                    self._pin_register(station, station.vn, eid, stale, t0,
                                       nonce, reg_span, attempt=0)

    def _submit_record(self, server_rloc, record):
        """Queue a record on a server's open batch; returns its nonce.

        The batch nonce is minted when the batch opens so pending-ack
        bookkeeping can reference it before the flush builds the actual
        message.
        """
        batcher = self.pacer.batcher(server_rloc)
        if batcher.pending == 0:
            self._batch_nonce[server_rloc] = next_nonce()
        # Capture before submit(): a synchronous flush (max_items, or
        # any future flush-now path) pops the open-batch nonce.
        nonce = self._batch_nonce[server_rloc]
        batcher.submit(record)
        return nonce

    def _flush_registers(self, server_rloc, records):
        nonce = self._batch_nonce.pop(server_rloc, None)
        # Only the first server's registrations are acked (one ack per
        # record instance is enough) and a withdraw-only batch needs no
        # ack at all.
        want_ack = (server_rloc == self.register_rlocs[0]
                    and any(not record.withdraw for record in records))
        register = MapRegister(
            records=records,
            registrar_rloc=self.rloc if want_ack else None,
            nonce=nonce,
        )
        self.stats.registers_sent += 1
        self.stats.register_batches_sent += 1
        self._send(server_rloc, register)

    # ------------------------------------------------------------------ registration retry
    def _pin_register(self, station, vn, eid, stale, t0, nonce, reg_span,
                      attempt):
        """Pin ``(vn, eid)`` to one registration instance; arm its resend."""
        key = (int(vn), eid)
        self._pending_register[key] = (
            station, stale, t0, eid.family == "ipv4", nonce, reg_span)
        if self.register_retry is not None:   # chaos-suite resend timer
            self.sim.post(self.register_retry.delay_s(attempt, self._rng),
                          self._check_register_ack, key, nonce, attempt)

    def _check_register_ack(self, key, nonce, attempt):
        pending = self._pending_register.get(key)
        if pending is None or pending[4] != nonce:
            return  # acked, withdrawn, or superseded by a newer roam
        station, stale, t0, _is_completion, _nonce, reg_span = pending
        # Re-register from *current* truth, not the original snapshot:
        # the station may have roamed while the ack was outstanding.
        edge = self._registered_edge.get(station.identity)
        if edge is None:
            del self._pending_register[key]
            return  # withdrawn in the meantime; nothing to claim
        if self.register_retry.exhausted(attempt):
            del self._pending_register[key]
            self.stats.register_retry_exhausted += 1
            reg_span.finish(outcome="retry_exhausted")
            return
        if self.pacer.deferred(self.register_rlocs[0],
                               self._check_register_ack, key, nonce, attempt):
            return  # breaker open: the pending entry and nonce stay pinned
        self.stats.register_retries_sent += 1
        vn, eid = key
        self._register_eid(station, vn, eid, edge.rloc, False, stale, t0,
                           reg_span, attempt + 1)

    def _on_register_ack(self, notify):
        """Routing server committed proxied registration(s).

        Handles both the classic single-record ack and the aggregated
        batch ack; stale-edge relays are re-aggregated per edge so a
        batch of N roams costs each stale edge one message, not N.
        """
        # Any ack proves the ack server is answering again.
        self.pacer.on_ack(self.register_rlocs[0], notify.overloaded)
        relays = {}        # stale rloc -> [record copies]
        completions = []   # (station, delay) in ack order
        for record in notify.mapping_records:
            key = (int(record.vn), record.eid)
            pending = self._pending_register.get(key)
            if pending is None:
                continue  # duplicate ack (multi-server fan-out) or stale
            station, stale_rlocs, t0, is_completion, nonce, reg_span = pending
            if notify.nonce != nonce:
                continue  # ack for a superseded registration instance
            if station.edge is None or record.rloc != station.edge.rloc:
                # Ack from a registration the station already roamed
                # past; the in-flight newer registration's ack completes
                # instead.
                continue
            del self._pending_register[key]
            self.stats.registrar_acks_received += 1
            reg_span.finish(outcome="acked")
            for rloc in stale_rlocs:
                self.stats.stale_edge_notifies += 1
                relays.setdefault(rloc, []).append(record.copy())
            if is_completion:
                completions.append((station, self.sim.now - t0))
        for rloc, records in relays.items():
            if len(records) == 1:
                relay = MapNotify(records[0].vn, records[0].eid, records[0])
            else:
                relay = MapNotify(records=records)
            relay.trace_ctx = notify.trace_ctx
            self._send(rloc, relay)
        for station, delay in completions:
            self.registration_delays.append(delay)
            if self.on_registered is not None:
                self.on_registered(station, delay)

    # ------------------------------------------------------------------ disassociation
    def disassociate(self, station):
        """Station leaves the wireless network entirely (radio off)."""
        ap = station.ap
        if ap is None:
            return
        ap.drop_station(station)
        station.ap = None
        self._cpu.submit(self.service_s, self._process_disassociation, station)

    def _process_disassociation(self, station):
        if station.ap is not None:
            return  # re-associated while queued; the association wins
        self.stats.disassociations += 1
        self._withdraw(station, reason="disassociate")

    # ------------------------------------------------------------------ cross-site handoff
    def registered_edge(self, station):
        """The edge this WLC currently has the station registered at.

        ``None`` when this control plane holds no registration (never
        onboarded here, withdrawn, or onboarding still in flight).  The
        multi-site facade scans this across sites to decide which WLCs
        owe a :meth:`handoff_out` withdrawal — the facade's own location
        bookkeeping is cleared *synchronously* on disassociation, so it
        cannot be trusted to name the site whose (queued, possibly
        superseded) withdrawal never ran.
        """
        return self._registered_edge.get(station.identity)

    def handoff_out(self, station):
        """The station now lives behind *another site's* control plane.

        An inter-site roam cannot ride the fig. 5 notify: the foreign
        site's registration lands in a different routing server, so this
        WLC's registration would linger forever and blackhole local
        senders into the old edge.  The multi-site facade therefore asks
        the departed site's WLC for an explicit withdrawal — the wireless
        mirror of the wired ``detach_endpoint(deregister=True)`` step of
        :meth:`repro.multisite.network.MultiSiteNetwork.roam`.

        The withdrawal is queued on the control CPU like any association
        event, so it keeps FIFO order against a quick roam *back*: the
        return association is always processed after the withdrawal it
        supersedes.
        """
        self._cpu.submit(self.service_s, self._process_handoff, station)

    def _process_handoff(self, station):
        if self._registered_edge.get(station.identity) is None:
            return  # never registered here (or already withdrawn)
        self.stats.handoffs_out += 1
        # The departed-site withdrawal is causally part of the roam that
        # displaced the station — parent it on the roam's root span.
        self._withdraw(station, reason="handoff_out",
                       parent=getattr(station, "trace_ctx", None))

    def _withdraw(self, station, reason="withdraw", parent=None):
        """Remove every trace of a station's location registration.

        Withdrawal works from the registrar's own ``_registered_edge``
        record — *not* from ``station.edge``, which is transiently None
        whenever a cross-edge roam is still in flight (the exact moment
        a disassociation or rejected re-auth can land).
        """
        edge = self._registered_edge.pop(station.identity, None)
        if edge is None or station.vn is None:
            return  # never finished onboarding; nothing registered
        span = self.sim.tracer.span(
            "wlc_withdraw", device=self, parent=parent,
            station=station.identity, reason=reason,
        )
        edge.remove_wireless_endpoint(station)
        for eid in station.eids(self.register_families):
            self._pending_register.pop((int(station.vn), eid), None)
            for server_rloc in self.register_rlocs:
                self.stats.unregisters_sent += 1
                if self.batching:
                    # In-band withdrawal: the record rides the same
                    # FIFO batch as any still-buffered registration, so
                    # the server can never apply them out of order.
                    self._submit_record(
                        server_rloc,
                        EidRecord(station.vn, eid, edge.rloc, withdraw=True),
                    )
                else:
                    unregister = MapUnregister(station.vn, eid, edge.rloc)
                    unregister.trace_ctx = span.ctx
                    self._send(server_rloc, unregister)
        span.finish()
        # The roam history is deliberately *kept*: edges visited before
        # the withdrawal still hold notify-installed cache entries, and
        # only the next registration's relay can refresh them (there is
        # no negative notify).  The set is bounded by the edge count.

    # ------------------------------------------------------------------ transport
    def _on_packet(self, packet):
        message = packet.payload
        kind = getattr(message, "kind", None)
        if kind == AccessResult.kind:
            self._finish_auth(message)
        elif kind == MapNotify.kind:
            self._on_register_ack(message)
        # Anything else is ignored (the WLC has no data plane).

    def _send(self, dst_rloc, message):
        self.underlay.send(
            self.rloc, dst_rloc, control_packet(self.rloc, dst_rloc, message)
        )

    def __repr__(self):
        return "FabricWlc(rloc=%s, aps=%d)" % (self.rloc, len(self._aps))
