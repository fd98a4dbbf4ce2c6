"""Wireless roaming at scale: fabric roam delay vs. the CAPWAP baseline.

The fabric-wireless claim: because the WLC joins only the control plane
and APs encapsulate VXLAN locally, a roam costs one authentication plus
a map-server update — *independent of how much data the stations push*.
The centralized baseline serializes data **and** handover processing
through one controller queue, so its handover delay climbs with offered
load until the queue saturates.

Both sides drive identical stations (same pair plan, same Poisson
traffic, same monitor stream, same detach-to-restore recorder — all
from :mod:`repro.wireless.plumbing`).  One monitored station receives a
steady stream and roams on a fixed rotation between two APs on
different edges (different APs on the baseline); roam delay is the
paper's definition — from radio detach until its traffic is flowing
again at the new AP.

Everything is seeded: reruns with the same seed are bit-identical,
which the regression tests assert.
"""

from __future__ import annotations

from repro.baselines.wlc import AccessPointTunnel, WlanController
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.net.addresses import IPv4Address
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.stats.summaries import boxplot
from repro.underlay.network import UnderlayNetwork
from repro.underlay.topology import Topology
from repro.wireless.deployment import WirelessConfig, WirelessFabric
from repro.wireless.plumbing import (
    DelaySamples,
    HandoverRecorder,
    PoissonPairTraffic,
    StationPairPlan,
    SteadyStream,
    assign_static_ips,
    make_stations,
)

VN = 600
_NUM_APS = 6
_PAIRS = 8
_MONITOR_INTERVAL_S = 1e-3


def roam_rotation(sim, recorder, station, move, targets, interval_s,
                  duration_s):
    """Schedule the monitored station bouncing between two attachments.

    Shared with the inter-site handover experiment, whose two
    attachments live in different *sites* (fabric) or behind different
    *controllers* (CAPWAP anchor baseline).
    """
    t = interval_s
    side = 0   # targets[0] is the away AP; the station starts on targets[1]
    roams = 0
    while t < duration_s:
        sim.post_at(
            sim.now + t, _do_roam, sim, recorder, station, move, targets[side]
        )
        side = 1 - side
        roams += 1
        t += interval_s
    return roams


def _do_roam(sim, recorder, station, move, target):
    recorder.on_detach(station.identity, sim.now)
    move(station, target)


def _measure_fabric(rate_pps, duration_s, roam_interval_s, seed):
    """Fabric wireless: roams are control-plane work only."""
    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=_NUM_APS,
                                     seed=seed))
    wireless = WirelessFabric(net, WirelessConfig(aps_per_edge=1))
    net.define_vn("wifi", VN, "10.0.0.0/15")
    net.define_group("stations", 1, VN)
    rng = SeededRng(seed)
    sim = net.sim
    clock = HandoverRecorder()
    samples = DelaySamples(sim)

    plan = StationPairPlan(_PAIRS, _NUM_APS)
    sources = [
        wireless.create_station("src-%d" % index, "stations", VN)
        for index in range(_PAIRS)
    ]

    def monitored_sink(endpoint, packet, now):
        clock.on_delivery(endpoint.identity, now)

    dests = [
        wireless.create_station(
            "dst-%d" % index, "stations", VN,
            sink=monitored_sink if index == 0 else samples.station_sink(),
        )
        for index in range(_PAIRS)
    ]
    for index, src_ap, dst_ap in plan:
        wireless.associate(sources[index], src_ap)
        wireless.associate(dests[index], dst_ap)
    net.settle(max_time=120.0)

    # Warm caches, then offered load + the monitor stream.
    for (index, _s, _d), src in zip(plan, sources):
        net.send(src, dests[index])
    net.settle()
    traffic = PoissonPairTraffic(
        sim, rng, plan.station_pairs(sources, dests),
        rate_pps, samples=samples,
    )
    monitor = SteadyStream(sim, sources[0], dests[0], _MONITOR_INTERVAL_S)
    traffic.start()
    monitor.start()

    # The monitored station bounces between its home AP and an AP on a
    # *different* edge (plan row 0: APs 1 and 3 — distinct edges since
    # aps_per_edge=1).
    roams = roam_rotation(
        sim, clock, dests[0],
        lambda station, ap: wireless.roam(station, ap),
        targets=(wireless.aps[3], wireless.aps[plan.pairs[0][2]]),
        interval_s=roam_interval_s, duration_s=duration_s,
    )
    sim.run(until=sim.now + duration_s + 0.2)
    traffic.stop()
    monitor.stop()
    return {
        "roam_delays_s": list(clock.samples),
        "scheduled_roams": roams,
        "data_delays_s": samples.delays,
        "wlc_max_queue_s": wireless.wlc.max_queue_delay_s,
        "wlc_stats": wireless.wlc.stats.as_dict(),
    }


def _measure_capwap(rate_pps, duration_s, roam_interval_s, seed):
    """CAPWAP: handovers queue behind every data packet."""
    sim = Simulator()
    rng = SeededRng(seed)
    topo, spines, leaves = Topology.two_tier(2, _NUM_APS)
    underlay = UnderlayNetwork(sim, topo, extra_delay_jitter_s=10e-6,
                               seed=seed)
    controller = WlanController(
        sim, underlay, rloc=IPv4Address.parse("192.168.255.20"),
        node=spines[0], service_s=28e-6,
    )
    aps = [
        AccessPointTunnel(sim, "ap-%d" % i, leaves[i], controller, underlay,
                          IPv4Address(0xC0A80001 + i))
        for i in range(_NUM_APS)
    ]
    clock = HandoverRecorder()
    samples = DelaySamples(sim)

    plan = StationPairPlan(_PAIRS, _NUM_APS)
    sources = assign_static_ips(
        make_stations(_PAIRS, prefix="src"), base_ip=0x0A000100)

    def monitored_sink(endpoint, packet, now):
        clock.on_delivery(endpoint.identity, now)

    dests = make_stations(_PAIRS, prefix="dst")
    assign_static_ips(dests, base_ip=0x0A000200)
    dests[0].sink = monitored_sink
    for station in dests[1:]:
        station.sink = samples.station_sink()
    for index, src_ap, dst_ap in plan:
        aps[src_ap].attach_station(sources[index])
        aps[dst_ap].attach_station(dests[index])
    sim.run()

    traffic = PoissonPairTraffic(
        sim, rng, plan.station_pairs(sources, dests),
        rate_pps, samples=samples,
    )
    monitor = SteadyStream(sim, sources[0], dests[0], _MONITOR_INTERVAL_S)
    traffic.start()
    monitor.start()

    def capwap_move(station, target_ap):
        station.ap.detach_station(station)
        target_ap.attach_station(station)

    roams = roam_rotation(
        sim, clock, dests[0], capwap_move,
        targets=(aps[3], aps[plan.pairs[0][2]]),
        interval_s=roam_interval_s, duration_s=duration_s,
    )
    sim.run(until=sim.now + duration_s + 0.2)
    traffic.stop()
    monitor.stop()
    return {
        "roam_delays_s": list(clock.samples),
        "scheduled_roams": roams,
        "data_delays_s": samples.delays,
        "controller_max_queue_s": controller.max_queue_delay_s,
        "handovers_processed": controller.handovers_processed,
    }


def run_roam_delay_sweep(rates=(2000, 12000, 40000), duration_s=0.4,
                         roam_interval_s=0.05, seed=61):
    """Roam delay vs offered data load, both wireless designs.

    Returns rows with ``fabric_roam_median_s`` (flat: the WLC never
    touches data) and ``capwap_roam_median_s`` (climbs with the
    controller queue — the top rate exceeds the controller's ~35.7k pps
    service capacity, the regime the paper's bottleneck argument is
    about, while the distributed fabric absorbs it without noticing).
    """
    rows = []
    for rate in rates:
        fabric = _measure_fabric(rate, duration_s, roam_interval_s, seed)
        capwap = _measure_capwap(rate, duration_s, roam_interval_s, seed)
        rows.append({
            "rate_pps": rate,
            "fabric_roam_median_s": boxplot(fabric["roam_delays_s"]).median,
            "capwap_roam_median_s": boxplot(capwap["roam_delays_s"]).median,
            "fabric_roams": len(fabric["roam_delays_s"]),
            "capwap_roams": len(capwap["roam_delays_s"]),
            "fabric_data_median_s": boxplot(fabric["data_delays_s"]).median,
            "capwap_data_median_s": boxplot(capwap["data_delays_s"]).median,
            "capwap_ctrl_queue_s": capwap["controller_max_queue_s"],
            "fabric_wlc_queue_s": fabric["wlc_max_queue_s"],
        })
    return rows


def format_roam_sweep(rows):
    from repro.experiments.reporting import format_table
    return format_table(
        ["offered pps", "fabric roam ms", "CAPWAP roam ms",
         "fabric data us", "CAPWAP data us"],
        [["%d" % r["rate_pps"],
          "%.2f" % (1e3 * r["fabric_roam_median_s"]),
          "%.2f" % (1e3 * r["capwap_roam_median_s"]),
          "%.0f" % (1e6 * r["fabric_data_median_s"]),
          "%.0f" % (1e6 * r["capwap_data_median_s"])]
         for r in rows],
        title="Roam delay vs offered load: fabric wireless vs CAPWAP",
    )
