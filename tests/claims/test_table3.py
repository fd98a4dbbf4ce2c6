"""Tables 3 & 4 — deployment inventories, built and verified operable."""

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import (
    TABLE3_PAPER,
    TABLE4_PAPER,
    build_and_check,
    table3_realized,
    table4_realized,
)
from repro.workloads.campus import BUILDING_A


def test_table3_deployments():
    realized = table3_realized()
    rows = []
    for name in TABLE3_PAPER:
        paper, ours = TABLE3_PAPER[name], realized[name]
        rows.append([name, paper["borders"], ours["borders"],
                     paper["edges"], ours["edges"],
                     paper["endpoints"], ours["endpoints"]])
    print(format_table(
        ["deployment", "borders(paper)", "borders", "edges(paper)", "edges",
         "endpoints(paper)", "endpoints"],
        rows, title="Table 3: deployments"))
    for name, row in TABLE3_PAPER.items():
        assert realized[name] == row


def test_table4_campus_details():
    realized = table4_realized()
    rows = []
    for name in TABLE4_PAPER:
        paper, ours = TABLE4_PAPER[name], realized[name]
        rows.append([name, paper["total_ap"], ours["total_ap"],
                     paper["ap_per_edge"], ours["ap_per_edge"]])
    print(format_table(
        ["building", "APs(paper)", "APs", "AP/edge(paper)", "AP/edge"],
        rows, title="Table 4: campus deployment details"))
    for name, row in TABLE4_PAPER.items():
        assert realized[name]["total_ap"] == row["total_ap"]


def test_building_a_is_operable():
    """Not just declared: the building A deployment onboards everyone."""
    fabric, onboarded = build_and_check(BUILDING_A)
    print("Building A built: %d/%d endpoints onboarded, %d routes registered"
          % (onboarded, BUILDING_A.total_endpoints,
             fabric.routing_server.route_count))
    assert onboarded == BUILDING_A.total_endpoints
    assert fabric.routing_server.route_count == 3 * onboarded
