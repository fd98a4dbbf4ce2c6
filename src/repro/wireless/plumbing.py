"""Station/AP plumbing shared by the CAPWAP baseline and fabric wireless.

The sec. 2 ablation and the wireless-handover experiment compare two
data planes (tunnel-everything-to-the-controller vs. VXLAN-at-the-AP).
For the comparison to mean anything, both sides must drive *identical*
stations: same placement, same traffic process, same measurement hooks.
This module is that single copy — the experiment files supply only the
data plane under test.

* :class:`StationPairPlan` — deterministic placement of N src/dst
  station pairs over M APs (pair *i* talks from AP ``i % M`` to AP
  ``(i+1) % M``, so every pair crosses APs).
* :func:`make_stations` — mint bare :class:`Station` objects.  The
  CAPWAP baseline attaches these directly (static IPs); the fabric
  enrolls the same shape through :class:`WirelessFabric`.
* :class:`DelaySamples` — stamp packets at injection, record delivery
  delay at the sink (re-exported from :mod:`repro.stats`).
* :class:`PoissonPairTraffic` — open-loop Poisson injection per pair.
  Because :meth:`Station.send` dispatches through whatever AP the
  station is associated with, the very same injector drives both data
  planes.
* :class:`HandoverRecorder` — detach-to-restore delay bookkeeping,
  re-exported from :mod:`repro.stats` (the warehouse massive-mobility
  workload uses the same recorder).
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import make_udp_packet
from repro.stats.recorders import DelaySamples, HandoverRecorder
from repro.wireless.station import Station

__all__ = [
    "DelaySamples",
    "HandoverRecorder",
    "PoissonPairTraffic",
    "StationPairPlan",
    "SteadyStream",
    "assign_static_ips",
    "make_stations",
]


class StationPairPlan:
    """Deterministic src/dst placement of station pairs over APs."""

    def __init__(self, num_pairs, num_aps):
        if num_pairs < 1 or num_aps < 2:
            raise ConfigurationError(
                "a pair plan needs >= 1 pair and >= 2 APs"
            )
        self.num_pairs = num_pairs
        self.num_aps = num_aps
        #: rows of ``(pair_index, src_ap_index, dst_ap_index)``
        self.pairs = [
            (index, index % num_aps, (index + 1) % num_aps)
            for index in range(num_pairs)
        ]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return self.num_pairs

    def station_pairs(self, sources, dests):
        """Zip minted stations into the plan's ``(src, dst)`` pairs."""
        return [(sources[index], dests[index]) for index, _s, _d in self.pairs]


def make_stations(count, prefix="sta", base_mac=0x02_0A_00_00_00_00,
                  secret="secret", sink=None):
    """Mint ``count`` bare stations (no fabric enrollment, no IPs)."""
    return [
        Station("%s-%d" % (prefix, index), MacAddress(base_mac + index + 1),
                secret=secret, sink=sink)
        for index in range(count)
    ]


def assign_static_ips(stations, base_ip=0x0A00010A, vn=None):
    """Give stations sequential overlay IPs (CAPWAP runs have no DHCP)."""
    base = int(base_ip)
    for offset, station in enumerate(stations):
        station.ip = IPv4Address(base + offset)
        if vn is not None:
            station.vn = vn
    return stations


class PoissonPairTraffic:
    """Open-loop Poisson packet injection, one process per pair.

    ``rate_pps`` is the *aggregate* offered load; each pair injects at
    ``rate_pps / num_pairs``.  The injection path is
    ``station.send(...)``, which reaches whichever data plane the
    station is associated with — CAPWAP tunnel or fabric AP.
    """

    def __init__(self, sim, rng, pairs, rate_pps, samples=None,
                 packet_size=800):
        self.sim = sim
        self.rng = rng
        #: list of ``(src_station, dst_station)``
        self.pairs = list(pairs)
        if not self.pairs:
            raise ConfigurationError("traffic needs at least one pair")
        self.per_pair_rate = rate_pps / len(self.pairs)
        self.samples = samples
        self.packet_size = packet_size
        self.active = False
        self.packets_injected = 0

    def start(self):
        self.active = True
        for src, dst in self.pairs:
            self.sim.post(
                self.rng.expovariate(self.per_pair_rate), self._tick, src, dst
            )

    def stop(self):
        self.active = False

    def _tick(self, src, dst):
        if not self.active:
            return
        self._inject(src, dst)
        self.sim.post(
            self.rng.expovariate(self.per_pair_rate), self._tick, src, dst
        )

    def _inject(self, src, dst):
        if src.ap is None or src.ip is None or dst.ip is None:
            return  # mid-roam / not onboarded: the radio has no link
        packet = make_udp_packet(src.ip, dst.ip, 40000, 40000,
                                 size=self.packet_size)
        if self.samples is not None:
            self.samples.stamp(packet)
        src.send(packet)
        self.packets_injected += 1


class SteadyStream:
    """Fixed-interval packet stream towards one station (roam monitor)."""

    def __init__(self, sim, src, dst, interval_s, offset_s=0.0,
                 packet_size=1500):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.interval_s = interval_s
        self.packet_size = packet_size
        self.active = False
        self._offset_s = offset_s

    def start(self):
        self.active = True
        self.sim.post(self._offset_s, self._tick)

    def stop(self):
        self.active = False

    def _tick(self):
        if not self.active:
            return
        if self.src.ap is not None and self.src.ip is not None \
                and self.dst.ip is not None:
            packet = make_udp_packet(self.src.ip, self.dst.ip, 40000, 40001,
                                     size=self.packet_size)
            self.src.send(packet)
        self.sim.post(self.interval_s, self._tick)


