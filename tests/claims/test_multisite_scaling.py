"""Multi-site horizontal scaling — sites federate without a state blowup.

Sweeps the site count and reports inter-site first-packet latency plus
transit control-plane message counts.  The claims under test:

* first-packet latency across the transit is dominated by transit RTT
  and stays **flat** as sites are added (resolution is one aggregate
  round trip, not a function of federation size);
* transit control-plane load grows with the number of **sites**
  (aggregates + per-border resolutions), never with the number of
  endpoints — the transit map-server holds zero host routes.
"""

from repro.experiments.multisite import run_site_scaling
from repro.experiments.reporting import format_table


def test_site_count_scaling():
    rows = run_site_scaling(site_counts=(1, 2, 4, 8), flows_per_site=6)
    print(format_table(
        ["sites", "flows", "median 1st pkt (s)", "p97.5 (s)",
         "transit msgs", "aggregates"],
        [[row["sites"], row["flows"],
          "%.2e" % row["median_first_packet_s"],
          "%.2e" % row["p97_5_first_packet_s"],
          row["transit_messages"], row["transit_aggregates"]]
         for row in rows],
        title="Multi-site: first-packet latency and transit load vs site count",
    ))
    by_sites = {row["sites"]: row for row in rows}

    # No first packet is lost at any scale (border buffering during
    # transit resolution extends the sec. 3.2.2 no-loss property).
    for row in rows:
        assert row["delivered"] == row["flows"]

    # Inter-site costs the transit detour over the single-site baseline...
    assert by_sites[2]["median_first_packet_s"] > \
        2 * by_sites[1]["median_first_packet_s"]
    # ...but stays flat as the federation grows.
    assert by_sites[8]["median_first_packet_s"] < \
        2 * by_sites[2]["median_first_packet_s"]

    # Transit state is one aggregate per site (one VN) — never endpoints.
    for row in rows:
        assert row["transit_aggregates"] == row["sites"]
    # Control messages scale with sites, not with flows/endpoints:
    # bounded by a small constant per site.
    for row in rows:
        assert row["transit_messages"] <= 4 * row["sites"]
    assert by_sites[8]["transit_messages"] <= \
        4 * (by_sites[8]["sites"] / by_sites[2]["sites"]) * by_sites[2]["transit_messages"]
