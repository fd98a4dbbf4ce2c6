"""Sec. 3.2.2 ablation: the default-route-to-border design decision.

"A drawback of using a reactive protocol such as LISP is the initial
packet loss until the edge router downloads the route for a new
destination.  We have overcome this issue by installing a default route
in all edge routers that points to the border router, and by
synchronizing the routing state in the border ..."

This experiment measures what the decision buys: for a population of
fresh flows,

* **with** the default route: zero first-packet loss, and a modest
  first-packet delay penalty (the border detour);
* **without** it: every first packet (and everything else sent inside
  the resolution window) is lost.
"""

from __future__ import annotations

from repro.fabric.network import FabricConfig, FabricNetwork
from repro.sim.rng import SeededRng

VN = 800


def _build(default_route, num_pairs=20, seed=61):
    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=4, seed=seed))
    net.define_vn("office", VN, "10.80.0.0/16")
    net.define_group("users", 1, VN)
    for edge in net.edges:
        edge.default_route_to_border = default_route
    rng = SeededRng(seed)
    pairs = []
    for index in range(num_pairs):
        src = net.create_endpoint("src-%d" % index, "users", VN)
        dst = net.create_endpoint("dst-%d" % index, "users", VN)
        src_edge = rng.randint(0, 3)
        dst_edge = (src_edge + 1 + rng.randint(0, 2)) % 4
        net.admit(src, src_edge)
        net.admit(dst, dst_edge)
        pairs.append((src, dst))
    net.settle(max_time=120.0)
    return net, pairs


def run_ablation(num_pairs=20, packets_per_flow=4, gap_s=0.5e-3, seed=61):
    """Fresh flows in both modes; returns per-mode loss and delay stats.

    Each flow sends ``packets_per_flow`` packets ``gap_s`` apart — tight
    enough that the early ones land inside the resolution window.
    """
    results = {}
    for label, default_route in (("default-route", True), ("drop-on-miss", False)):
        net, pairs = _build(default_route, num_pairs=num_pairs, seed=seed)
        sim = net.sim
        first_delays = []
        sent = 0

        def first_packet_sink(endpoint, packet, now):
            if packet.meta.get("sequence") == 0:
                first_delays.append(now - packet.meta["sent_at"])

        for src, dst in pairs:
            dst.sink = first_packet_sink
        start = sim.now
        for flow_index, (src, dst) in enumerate(pairs):
            for sequence in range(packets_per_flow):
                def fire(src=src, dst=dst, sequence=sequence):
                    packet = net.send(src, dst.ip, size=400)
                    packet.meta["sequence"] = sequence
                    packet.meta["sent_at"] = sim.now
                sim.post_at(start + flow_index * 1e-4 + sequence * gap_s, fire)
                sent += 1
        net.settle(max_time=120.0)

        delivered = sum(dst.packets_received for _src, dst in pairs)
        results[label] = {
            "sent": sent,
            "delivered": delivered,
            "lost": sent - delivered,
            "loss_rate": (sent - delivered) / sent,
            "first_packet_delays_s": list(first_delays),
            "first_packet_deliveries": len(first_delays),
        }
    return results
