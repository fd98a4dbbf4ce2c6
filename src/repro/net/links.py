"""Link model: propagation delay, bandwidth serialization, drop-tail queue.

The experiments report *relative* delays (the paper normalizes to the
minimum observed value), so the link model's job is to order and serialize
events realistically: a 10 Gbps border-to-edge link drains its queue much
faster than a 1 Gbps edge-to-AP link, and a control-plane message behind a
burst of data packets waits its turn.
"""

from __future__ import annotations


class DropTailQueue:
    """Fixed-capacity FIFO byte queue with drop statistics."""

    def __init__(self, capacity_bytes=1_000_000):
        self.capacity_bytes = capacity_bytes
        self._items = []
        self._bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def __len__(self):
        return len(self._items)

    @property
    def bytes_queued(self):
        return self._bytes

    def offer(self, packet):
        """Enqueue if there is room; returns False (and counts) on drop."""
        if self._bytes + packet.size > self.capacity_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += packet.size
            return False
        self._items.append(packet)
        self._bytes += packet.size
        return True

    def take(self):
        """Dequeue the head packet (``None`` if empty)."""
        if not self._items:
            return None
        packet = self._items.pop(0)
        self._bytes -= packet.size
        return packet


class Link:
    """A unidirectional link between two devices in the simulator.

    Parameters
    ----------
    sim:
        The simulator providing the clock.
    delay_s:
        One-way propagation delay in seconds.
    bandwidth_bps:
        Capacity in bits/second; ``None`` disables serialization delay
        (useful for pure control-plane studies).
    deliver:
        Callable ``(packet) -> None`` invoked at the far end.
    queue_bytes:
        Drop-tail buffer size at the sending side.

    The model is the classic store-and-forward one: a packet waits for the
    transmitter to be free, takes ``size*8/bandwidth`` seconds to serialize,
    then ``delay_s`` to propagate.
    """

    def __init__(self, sim, deliver, delay_s=50e-6, bandwidth_bps=10e9, queue_bytes=1_000_000, name=""):
        self._sim = sim
        self._deliver = deliver
        self.delay_s = delay_s
        self.bandwidth_bps = bandwidth_bps
        self.name = name
        self._queue = DropTailQueue(queue_bytes)
        self._busy = False
        self.up = True
        self.tx_packets = 0
        self.tx_bytes = 0

    @property
    def dropped_packets(self):
        return self._queue.dropped_packets

    def send(self, packet):
        """Offer a packet to the link; returns False if dropped or link down."""
        if not self.up:
            self._queue.dropped_packets += 1
            self._queue.dropped_bytes += packet.size
            return False
        if not self._queue.offer(packet):
            return False
        if not self._busy:
            self._transmit_next()
        return True

    def _serialization_delay(self, packet):
        if self.bandwidth_bps is None:
            return 0.0
        return packet.size * 8.0 / self.bandwidth_bps

    def _transmit_next(self):
        packet = self._queue.take()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = self._serialization_delay(packet)
        self.tx_packets += 1
        self.tx_bytes += packet.size
        # Delivery happens after serialization + propagation; the transmitter
        # frees up after serialization alone.
        self._sim.post(tx_time + self.delay_s, self._arrive, packet)
        self._sim.post(tx_time, self._transmit_next)

    def _arrive(self, packet):
        if self.up:
            self._deliver(packet)

    def set_up(self, up):
        """Administratively raise/lower the link (for outage experiments)."""
        self.up = bool(up)

    def __repr__(self):
        state = "up" if self.up else "down"
        return "Link(%s, %s)" % (self.name or "unnamed", state)
