"""LISP control plane message types.

Messages travel through the underlay as the payload of small UDP packets
(port 4342, like real LISP).  They are plain value objects; the wire
format is not byte-serialized because no experiment depends on LISP bit
layout (unlike VXLAN-GPO, whose group field placement *is* part of the
design).
"""

from __future__ import annotations

import itertools

from repro.net.packet import IpHeader, Packet, UdpHeader

#: IANA LISP control plane port.
LISP_PORT = 4342

#: Wire size charged for a control message, bytes (header + one record).
CONTROL_MESSAGE_SIZE = 120

#: Incremental wire size per additional EID-record in a batched message.
RECORD_SIZE = 40

_nonce_counter = itertools.count(1)


def next_nonce():
    """Monotonic nonce; deterministic across runs (no randomness)."""
    return next(_nonce_counter)


class ControlMessage:
    """Base class: every message has a nonce for request/reply matching.

    ``trace_ctx`` carries an optional observability trace context —
    the ``(trace_id, span_id)`` of the span that emitted the message —
    so a receiver can parent its own span causally (in-band telemetry,
    like INT carries state in the packet itself).  ``None`` whenever
    tracing is off; it never affects protocol behaviour or wire size.
    """

    __slots__ = ("nonce", "trace_ctx")

    kind = "control"

    def __init__(self, nonce=None):
        self.nonce = next_nonce() if nonce is None else nonce
        self.trace_ctx = None


class EidRecord:
    """One EID-record inside a batched Map-Register.

    Real Map-Registers carry a record *count* and a list of EID-records
    (RFC 6833 fig. 11); this is that record.  ``withdraw=True`` makes
    the record an in-band unregister — batched pipelines must carry
    withdrawals through the same FIFO as registrations, or a buffered
    register can be applied *after* the unregister that was meant to
    supersede it (ghost-mapping race).  ``rloc`` doubles as the
    unregister guard: a withdrawal only removes the mapping while it
    still points at that RLOC.
    """

    __slots__ = ("vn", "eid", "rloc", "group", "mac", "mobility", "ttl",
                 "withdraw", "refresh")

    def __init__(self, vn, eid, rloc, group=None, mac=None, mobility=False,
                 ttl=None, withdraw=False, refresh=False):
        self.vn = vn
        self.eid = eid
        self.rloc = rloc
        self.group = group
        self.mac = mac
        self.mobility = mobility
        self.ttl = ttl
        self.withdraw = withdraw
        #: True for a periodic keepalive re-registration (no state
        #: change expected) — the map server's admission control sheds
        #: these first under overload
        self.refresh = refresh

    def __repr__(self):
        return "EidRecord(vn=%d, %s %s %s)" % (
            self.vn, self.eid,
            "withdrawn-from" if self.withdraw else "->", self.rloc,
        )


class MapRegister(ControlMessage):
    """Edge -> server: (VN, EID) is now at ``rloc``.

    ``group`` is the endpoint's GroupId learned at onboarding; the server
    stores it so Map-Replies can carry it (used by the ingress-enforcement
    ablation).  ``mobility`` marks re-registrations caused by roaming.

    ``registrar_rloc`` supports proxied registrations (fabric wireless):
    when a WLC registers a station on behalf of the AP's edge, ``rloc``
    is the edge but the register was *sent* by the registrar, which asks
    for a Map-Notify acknowledgement (the M-bit of RFC 6833) so it knows
    the location update completed.

    A batched register carries several :class:`EidRecord` in ``records``
    (the control-plane fast path): the server applies the whole batch
    atomically under one base service charge and returns one aggregated
    ack.  Single-record messages leave ``records`` as ``None`` and keep
    the flat attribute form.
    """

    __slots__ = ("vn", "eid", "rloc", "group", "mac", "mobility", "ttl",
                 "registrar_rloc", "records", "refresh")

    kind = "map-register"

    def __init__(self, vn=None, eid=None, rloc=None, group=None, mac=None,
                 mobility=False, ttl=None, registrar_rloc=None, records=None,
                 nonce=None, refresh=False):
        super().__init__(nonce)
        if records:
            records = tuple(records)
            first = records[0]
            vn, eid, rloc, group = first.vn, first.eid, first.rloc, first.group
            # A batch is a refresh only if every record is one — a
            # single roam or withdrawal makes the whole batch load-bearing.
            refresh = all(r.refresh for r in records)
        self.vn = vn
        self.eid = eid
        self.rloc = rloc
        self.group = group
        #: owner MAC for IP EIDs (feeds the routing server's ARP service)
        self.mac = mac
        self.mobility = mobility
        self.ttl = ttl
        #: where the Map-Notify ack goes; ``None`` = no ack requested
        self.registrar_rloc = registrar_rloc
        #: batched EID-records (``None`` = classic single-record message)
        self.records = records if records else None
        #: periodic keepalive re-registration (sheds first under overload)
        self.refresh = refresh

    @property
    def eid_records(self):
        """The message's records, batched or not, as :class:`EidRecord`."""
        if self.records is not None:
            return self.records
        return (EidRecord(self.vn, self.eid, self.rloc, group=self.group,
                          mac=self.mac, mobility=self.mobility, ttl=self.ttl,
                          refresh=self.refresh),)

    @property
    def record_count(self):
        return len(self.records) if self.records is not None else 1

    def __repr__(self):
        if self.records is not None:
            return "MapRegister(batch of %d, vn=%d)" % (
                len(self.records), self.vn
            )
        return "MapRegister(vn=%d, %s -> %s%s)" % (
            self.vn, self.eid, self.rloc, ", roam" if self.mobility else ""
        )


class MapUnregister(ControlMessage):
    """Edge -> server: forget (VN, EID) if still pointing at ``rloc``."""

    __slots__ = ("vn", "eid", "rloc")

    kind = "map-unregister"

    def __init__(self, vn, eid, rloc, nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.rloc = rloc


class MapRequest(ControlMessage):
    """Edge -> server: where is (VN, EID)?  Reply goes to ``reply_to``."""

    __slots__ = ("vn", "eid", "reply_to")

    kind = "map-request"

    def __init__(self, vn, eid, reply_to, nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.reply_to = reply_to

    def __repr__(self):
        return "MapRequest(vn=%d, %s)" % (self.vn, self.eid)


class MapReply(ControlMessage):
    """Server -> edge: the mapping (or a negative reply).

    ``record`` is a :class:`repro.lisp.records.MappingRecord` or ``None``
    for a negative reply.  Negative replies carry their own (short) TTL so
    edges do not re-query every packet for unreachable destinations.
    """

    __slots__ = ("vn", "eid", "record", "negative_ttl")

    kind = "map-reply"

    def __init__(self, vn, eid, record, negative_ttl=15.0, nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.record = record
        self.negative_ttl = negative_ttl

    @property
    def is_negative(self):
        return self.record is None


class MapNotify(ControlMessage):
    """Server -> old edge after a move (fig. 5, step 2).

    Instructs the old edge to pull the new location and redirect traffic
    for the endpoint.  Carries the new record so the pull costs no extra
    round trip in the common case (the paper's step 3 "pull the new
    location data" is the confirmation fetch).

    A batched notify (aggregated registration ack, or several endpoints
    that moved off the same edge in one batch) carries the full list in
    ``records``; receivers iterate :attr:`mapping_records`, which is a
    one-element tuple for the classic single-record form.
    """

    __slots__ = ("vn", "eid", "record", "records", "overloaded")

    kind = "map-notify"

    def __init__(self, vn=None, eid=None, record=None, records=None,
                 nonce=None):
        super().__init__(nonce)
        if records:
            records = tuple(records)
            first = records[0]
            vn, eid, record = first.vn, first.eid, first
        self.vn = vn
        self.eid = eid
        self.record = record
        #: batched records (``None`` = classic single-record message)
        self.records = records if records else None
        #: in-band backpressure bit: the server set this while its
        #: bounded queue was above the backpressure threshold, telling
        #: the registrar to widen batch windows / stretch refreshes
        self.overloaded = False

    @property
    def mapping_records(self):
        """Records carried, batched or not (each knows its vn/eid)."""
        if self.records is not None:
            return self.records
        return (self.record,)

    @property
    def record_count(self):
        return len(self.records) if self.records is not None else 1


class SolicitMapRequest(ControlMessage):
    """Old edge -> traffic source: your mapping for (VN, EID) is stale.

    The data-triggered control message of fig. 6: sent when traffic for a
    moved endpoint keeps arriving at its previous edge.  The receiver
    must re-resolve via the routing server (it must not trust the SMR's
    sender blindly — standard LISP anti-spoofing posture).
    """

    __slots__ = ("vn", "eid")

    kind = "smr"

    def __init__(self, vn, eid, nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid


class AwayRegister(ControlMessage):
    """Foreign-site border -> home-site border: your endpoint roamed here.

    Sent over the transit when an endpoint whose EID belongs to the home
    site's aggregate attaches at another site.  The home border anchors
    the EID (registers it against itself in the home site's routing
    servers) and hairpins traffic to ``away_rloc`` — so the transit
    map-server itself never learns per-endpoint state.
    """

    __slots__ = ("vn", "eid", "away_rloc", "group", "mac", "initiated_at")

    kind = "away-register"

    def __init__(self, vn, eid, away_rloc, group=None, mac=None, nonce=None,
                 initiated_at=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        #: transit-side RLOC of the border now serving the endpoint
        self.away_rloc = away_rloc
        self.group = group
        #: owner MAC of the roamed endpoint: the home anchor re-registers
        #: the EID with it so the routing server's ARP service keeps
        #: answering while the endpoint is away
        self.mac = mac
        #: simulated time the roam event behind this announcement
        #: happened (set at announce time, *before* transit resolution
        #: delays the message).  The home border's ordering guard uses
        #: it to discard announcements that lost a race against a
        #: fresher home re-registration; ``None`` disables the guard.
        self.initiated_at = initiated_at

    def __repr__(self):
        return "AwayRegister(vn=%d, %s -> %s)" % (
            self.vn, self.eid, self.away_rloc
        )


class AwayUnregister(ControlMessage):
    """Foreign-site border -> home-site border: the endpoint left again.

    The home border drops its away-table entry and withdraws the anchor
    registration (guarded, so a racing home re-attach is never undone).
    """

    __slots__ = ("vn", "eid", "away_rloc", "initiated_at")

    kind = "away-unregister"

    def __init__(self, vn, eid, away_rloc, nonce=None, initiated_at=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.away_rloc = away_rloc
        #: see :class:`AwayRegister.initiated_at`
        self.initiated_at = initiated_at


class SubscribeRequest(ControlMessage):
    """Border -> server: push me every mapping change (lisp-pubsub)."""

    __slots__ = ("subscriber_rloc", "vn")

    kind = "subscribe"

    def __init__(self, subscriber_rloc, vn=None, nonce=None):
        super().__init__(nonce)
        self.subscriber_rloc = subscriber_rloc
        #: None = all VNs
        self.vn = vn


class PublishUpdate(ControlMessage):
    """Server -> subscriber: a mapping changed (or was withdrawn).

    ``record`` is ``None`` for withdrawals.
    """

    __slots__ = ("vn", "eid", "record")

    kind = "publish"

    def __init__(self, vn, eid, record, nonce=None):
        super().__init__(nonce)
        self.vn = vn
        self.eid = eid
        self.record = record


def control_packet(src_rloc, dst_rloc, message):
    """Wrap a control message in an underlay UDP packet.

    Batched messages are charged their real size — the base message plus
    one :data:`RECORD_SIZE` per extra record — so bandwidth accounting
    stays honest when the fast path aggregates registrations.  Like
    :func:`~repro.net.packet.make_udp_packet`, it fills the slots itself
    without the ``Packet.__init__`` frame.
    """
    extra = getattr(message, "record_count", 1) - 1
    packet = Packet.__new__(Packet)
    packet.inner = IpHeader(src_rloc, dst_rloc)
    packet.l4 = UdpHeader(LISP_PORT, LISP_PORT)
    packet.encap = None
    packet.payload = message
    packet.size = CONTROL_MESSAGE_SIZE + RECORD_SIZE * extra
    packet.meta = {}
    packet.train = 1
    return packet
