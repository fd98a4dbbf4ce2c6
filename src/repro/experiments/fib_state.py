"""Fig. 9 + Table 5 + the sec. 4.2 "70% reduction" headline.

Runs the campus workload for both buildings, samples FIB occupancy
hourly, and summarizes:

* fig. 9 — the border vs. edge time series (diurnal/weekly pattern);
* table 5 — all/day/night means and the edge-vs-border decrease;
* the headline — overall forwarding-state reduction versus a proactive
  deployment in which *every* router holds every route (each edge would
  carry the border's table).
"""

from __future__ import annotations

from repro.workloads.campus import BUILDING_A, BUILDING_B, CampusWorkload


def run_building(profile, weeks=1, time_scale=12.0, seed=5):
    """One building's study; returns the workload (holding both series)."""
    workload = CampusWorkload(profile, seed=seed, time_scale=time_scale)
    workload.run(weeks=weeks)
    return workload


def run_table5(weeks=1, time_scale=12.0, seed=5):
    """Both buildings' table-5 rows.

    Returns ``{"A": rows, "B": rows}`` where rows has border/edge dicts
    with all/day/night means plus ``decrease_all``.
    """
    results = {}
    for key, profile in (("A", BUILDING_A), ("B", BUILDING_B)):
        workload = run_building(profile, weeks=weeks, time_scale=time_scale, seed=seed)
        results[key] = workload.summarize()
    return results


def state_reduction_vs_proactive(workload):
    """The sec. 4.2 headline: total fabric forwarding state, SDA vs
    push-everything.

    Proactive baseline: every edge holds the full route table (what BGP
    without aggregation would install), i.e. ``edges * border_mean``.
    SDA: edges hold their reactive caches; borders hold the full table.
    Returns the fractional reduction in *total* data-plane entries.
    """
    border_mean = workload.border_series.overall_mean() or 0.0
    edge_mean = workload.edge_series.overall_mean() or 0.0
    num_edges = workload.profile.num_edges
    num_borders = workload.profile.num_borders
    proactive_total = (num_edges + num_borders) * border_mean
    sda_total = num_borders * border_mean + num_edges * edge_mean
    if proactive_total == 0:
        return 0.0
    return 1.0 - sda_total / proactive_total


def weekly_pattern(workload):
    """Fig. 9 checkpoints: border day>night contrast and edge flatness.

    Returns (border_day_night_ratio, edge_day_night_ratio); the border
    ratio should be visibly > 1 while the edge ratio stays near 1
    (edges retain cached routes overnight).
    """
    summary = workload.summarize()
    border = summary["border"]
    edge = summary["edge"]
    border_ratio = (border["day"] or 0.0) / max(border["night"] or 1.0, 1.0)
    edge_ratio = (edge["day"] or 0.0) / max(edge["night"] or 1.0, 1.0)
    return border_ratio, edge_ratio
