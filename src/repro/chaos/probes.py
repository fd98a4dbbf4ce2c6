"""Probe monitor: measuring blackholes the way operators do.

Counters tell you a packet was dropped; they cannot tell you for *how
long* a path stayed dark.  The :class:`ProbeMonitor` measures that the
way deployed fabrics do (IP SLA / continuous ping): a fixed set of
endpoint pairs exchanges a small probe every ``interval_s``, and every
probe that fails to arrive charges one interval of **blackhole time**
to its pair.

Two derived metrics feed the chaos claims:

* ``blackhole_s`` — total blackhole-seconds across all pairs: the sum
  over lost probes of the probe interval.  With N pairs dark for T
  seconds this reads ``N * T`` (pair-seconds of outage), matching how
  the paper's availability numbers aggregate over flows.
* ``reconvergence_s`` — per fault mark (the engine calls :meth:`mark`
  at each injection), the delay until the first probe *round* in which
  every pair delivered again.  This is fault-to-repair as the data
  plane experiences it, not as the control plane claims it.

Determinism: probes ride the simulated data plane (``net.send``), all
bookkeeping is keyed by monotonic probe ids, and round resolution
iterates ids in sorted order — two runs of the same seed produce the
same blackhole ledger bit-for-bit.
"""

from __future__ import annotations

from collections import deque

#: payload tag identifying monitor probes inside endpoint sinks.
PROBE_TAG = "chaos-probe"


class ProbeMonitor:
    """Continuous pair-wise probing over a fabric's data plane."""

    def __init__(self, net, pairs, interval_s=0.05, size=120):
        self.net = net
        self.sim = net.sim
        self.pairs = list(pairs)
        self.interval_s = float(interval_s)
        self.size = size
        self.sent = 0
        self.received = 0
        self.lost = 0
        self.blackhole_s = 0.0
        self.blackhole_by_pair = [0.0] * len(self.pairs)
        #: resolved fault-to-repair delays, in mark order
        self.reconvergence_s = []
        self._seq = 0
        self._probe_pair = {}    # probe id -> pair index
        self._probe_round = {}   # probe id -> its round record
        self._rounds = deque()   # {"t":, "pending": set, "lost": int}
        self._marks = deque()    # unresolved fault times
        self._running = False
        self._hooked = set()
        for _src, dst in self.pairs:
            self._instrument(dst)

    # ------------------------------------------------------------------ wiring
    def _instrument(self, dst):
        """Chain a probe interceptor in front of the endpoint's sink."""
        if dst.identity in self._hooked:
            return
        self._hooked.add(dst.identity)
        previous = dst.sink

        def probe_sink(endpoint, packet, now, _prev=previous):
            payload = getattr(packet, "payload", None)
            if (isinstance(payload, tuple) and len(payload) == 2
                    and payload[0] == PROBE_TAG):
                self._on_delivery(payload[1])
                return
            if _prev is not None:
                _prev(endpoint, packet, now)

        dst.sink = probe_sink

    # ------------------------------------------------------------------ lifecycle
    def start(self):
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self):
        self._running = False

    def mark(self, at=None):
        """Note a fault time; the next clean probe round resolves it."""
        self._marks.append(self.sim.now if at is None else at)

    # ------------------------------------------------------------------ probing
    def _tick(self):
        if not self._running:
            return
        now = self.sim.now
        # Probes from two rounds ago have had a full round-trip budget;
        # anything still outstanding from them is lost.
        self._resolve(now - 2.0 * self.interval_s)
        round_info = {"t": now, "pending": set(), "lost": 0}
        for index, (src, dst) in enumerate(self.pairs):
            if src.ip is None or dst.ip is None:
                continue
            probe_id = self._seq
            self._seq += 1
            self._probe_pair[probe_id] = index
            self._probe_round[probe_id] = round_info
            round_info["pending"].add(probe_id)
            self.sent += 1
            self.net.send(src, dst.ip, size=self.size,
                          payload=(PROBE_TAG, probe_id))
        if round_info["pending"]:
            self._rounds.append(round_info)
        self.sim.schedule_daemon(self.interval_s, self._tick)

    def _on_delivery(self, probe_id):
        index = self._probe_pair.pop(probe_id, None)
        if index is None:
            # Late arrival of a probe already written off as lost: the
            # blackhole charge stands (the path *was* dark for the
            # measurement window).
            return
        self.received += 1
        round_info = self._probe_round.pop(probe_id, None)
        if round_info is not None:
            round_info["pending"].discard(probe_id)

    def _resolve(self, cutoff):
        """Close out probe rounds sent at or before ``cutoff``."""
        while self._rounds and self._rounds[0]["t"] <= cutoff + 1e-12:
            round_info = self._rounds.popleft()
            for probe_id in sorted(round_info["pending"]):
                index = self._probe_pair.pop(probe_id, None)
                self._probe_round.pop(probe_id, None)
                if index is None:
                    continue
                self.lost += 1
                round_info["lost"] += 1
                self.blackhole_s += self.interval_s
                self.blackhole_by_pair[index] += self.interval_s
            if round_info["lost"] == 0:
                while self._marks and round_info["t"] >= self._marks[0]:
                    self.reconvergence_s.append(
                        round_info["t"] - self._marks.popleft()
                    )

    def flush(self):
        """Resolve every outstanding round (call after the final settle)."""
        self._resolve(float("inf"))

    # ------------------------------------------------------------------ reporting
    def summary(self):
        out = {
            "probes_sent": self.sent,
            "probes_received": self.received,
            "probes_lost": self.lost,
            "blackhole_s": round(self.blackhole_s, 9),
            "reconvergence_count": len(self.reconvergence_s),
        }
        if self.reconvergence_s:
            ordered = sorted(self.reconvergence_s)
            out["reconvergence_max_s"] = round(ordered[-1], 9)
            out["reconvergence_p50_s"] = round(
                ordered[len(ordered) // 2], 9)
        return out

    def __repr__(self):
        return "ProbeMonitor(pairs=%d, lost=%d, blackhole=%.3gs)" % (
            len(self.pairs), self.lost, self.blackhole_s
        )
