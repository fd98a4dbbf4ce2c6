"""Multi-site experiments: inter-site first packets, handover, scaling.

Three questions about the transit design, mirroring the single-site
methodology (figs. 7/11 and the sec. 3.2.2 ablation):

* **First-packet cost** — an inter-site flow's first packet crosses the
  transit and may wait for aggregate resolution at the border; how much
  worse is it than an intra-site first packet, and does anything get
  lost?
* **Inter-site handover** — when an endpoint roams between sites, how
  long is the delivery gap for an ongoing stream, and does the stream
  survive at all (home-border anchoring)?
* **Horizontal scaling** — as the site count grows, does transit
  control-plane load stay aggregate-bound (per-site, not per-endpoint)?
"""

from __future__ import annotations

from repro.multisite.network import MultiSiteConfig, MultiSiteNetwork
from repro.stats.summaries import boxplot

VN = 900


def build_campus(num_sites, edges_per_site=2, endpoints_per_site=2,
                 seed=71, transit_delay_s=2e-3):
    """A federated deployment with ``endpoints_per_site`` users per site.

    Returns ``(net, per_site)`` where ``per_site[i]`` lists site *i*'s
    onboarded endpoints.
    """
    net = MultiSiteNetwork(MultiSiteConfig(
        num_sites=num_sites, edges_per_site=edges_per_site,
        transit_delay_s=transit_delay_s, seed=seed,
    ))
    net.define_vn("campus", VN, "10.96.0.0/13")
    net.define_group("users", 1, VN)
    net.allow("users", "users")
    per_site = []
    for site_index in range(num_sites):
        bucket = []
        for ep_index in range(endpoints_per_site):
            endpoint = net.create_endpoint(
                "site%d-ep%d" % (site_index, ep_index), "users", VN)
            net.admit(endpoint, site_index, ep_index % edges_per_site)
            bucket.append(endpoint)
        per_site.append(bucket)
    net.settle(max_time=120.0)
    return net, per_site


def _first_packet_delays(net, pairs, gap_s=5e-3):
    """Send one fresh packet per (src, dst) pair; return delivery delays.

    Pairs are staggered so resolutions do not queue behind each other —
    the measured quantity is per-flow first-packet latency, not
    control-plane congestion (fig. 7c covers that separately).
    """
    sim = net.sim
    delays = []

    def sink(endpoint, packet, now):
        sent_at = packet.meta.get("sent_at")
        if sent_at is not None:
            delays.append(now - sent_at)

    for _src, dst in pairs:
        dst.sink = sink
    start = sim.now
    for index, (src, dst) in enumerate(pairs):
        def fire(src=src, dst=dst):
            packet = net.send(src, dst.ip, size=400)
            packet.meta["sent_at"] = sim.now
        sim.post_at(start + index * gap_s, fire)
    net.settle(max_time=120.0)
    for _src, dst in pairs:
        dst.sink = None
    return delays


def run_intersite_first_packet(num_sites=3, flows=12, seed=71):
    """Intra- vs inter-site first-packet latency on fresh flows.

    Returns boxplot stats for both populations, the delivered/sent
    accounting, and the transit's control message count.
    """
    # Each site contributes len(bucket) - 1 pairs per population, so
    # ceil(flows / num_sites) + 1 endpoints per site honors ``flows``.
    per_site_pairs = -(-flows // num_sites)
    net, per_site = build_campus(num_sites, endpoints_per_site=per_site_pairs + 1,
                                 seed=seed)
    intra_pairs = []
    inter_pairs = []
    for site_index in range(num_sites):
        bucket = per_site[site_index]
        remote = per_site[(site_index + 1) % num_sites]
        for flow in range(len(bucket) - 1):
            if len(intra_pairs) < flows:
                intra_pairs.append((bucket[flow], bucket[flow + 1]))
            if len(inter_pairs) < flows and num_sites > 1:
                inter_pairs.append((bucket[flow], remote[flow]))
    intra = _first_packet_delays(net, intra_pairs)
    inter = _first_packet_delays(net, inter_pairs) if inter_pairs else []
    return {
        "intra_delays_s": intra,
        "inter_delays_s": inter,
        "intra_box": boxplot(intra) if intra else None,
        "inter_box": boxplot(inter) if inter else None,
        "intra_sent": len(intra_pairs),
        "inter_sent": len(inter_pairs),
        "stretch": (boxplot(inter).median / boxplot(intra).median
                    if inter and intra else None),
        "transit_messages": net.transit_message_count(),
        "net": net,
    }


def run_intersite_handover(stream_interval_s=2e-3, stream_packets=400,
                           roam_at_packet=200, seed=73):
    """Roam a streamed-to endpoint across sites mid-stream (fig. 11 idea).

    A peer in site 1 streams to a mover homed in site 0; mid-stream the
    mover roams to site 1.  Before the roam the stream crosses the
    transit; after it, delivery is site-local (the peer's site resolves
    the mover's foreign EID from its own registration).  Returns delivery
    accounting and the maximum delivery gap around the roam.
    """
    net, per_site = build_campus(2, endpoints_per_site=2, seed=seed)
    mover = per_site[0][0]
    peer = per_site[1][0]
    sim = net.sim

    arrivals = []
    mover.sink = lambda endpoint, packet, now: arrivals.append(now)

    start = sim.now + 0.1
    for index in range(stream_packets):
        sim.post_at(start + index * stream_interval_s,
                    lambda: net.send(peer, mover.ip, size=400))
    roam_time = start + roam_at_packet * stream_interval_s
    sim.post_at(roam_time, lambda: net.roam(mover, 1, 1))
    net.settle(max_time=300.0)
    mover.sink = None

    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    return {
        "sent": stream_packets,
        "delivered": len(arrivals),
        "lost": stream_packets - len(arrivals),
        "max_gap_s": max(gaps) if gaps else None,
        "stream_interval_s": stream_interval_s,
        "roam_time": roam_time,
        "net": net,
    }


def run_site_scaling(site_counts=(1, 2, 4, 8), flows_per_site=6, seed=79):
    """Sweep the site count; report first-packet latency + transit load.

    Every site sends ``flows_per_site`` fresh flows to the next site
    (ring pattern; with one site the flows stay local, giving the
    single-site baseline).  Returns one row per site count.
    """
    rows = []
    for count in site_counts:
        net, per_site = build_campus(
            count, endpoints_per_site=flows_per_site + 1, seed=seed)
        pairs = []
        for site_index in range(count):
            bucket = per_site[site_index]
            remote = per_site[(site_index + 1) % count]
            for flow in range(flows_per_site):
                pairs.append((bucket[flow], remote[flow + 1]))
        before = net.transit_message_count()
        delays = _first_packet_delays(net, pairs)
        stats = boxplot(delays) if delays else None
        rows.append({
            "sites": count,
            "flows": len(pairs),
            "delivered": len(delays),
            "median_first_packet_s": stats.median if stats else None,
            # whisker_high is the 97.5th percentile (95% whisker band)
            "p97_5_first_packet_s": stats.whisker_high if stats else None,
            "transit_messages": net.transit_message_count(),
            "transit_messages_resolution": net.transit_message_count() - before,
            "transit_aggregates": net.transit.aggregate_count,
        })
    return rows
