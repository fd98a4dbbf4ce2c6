"""Sec. 4.1 scale-out ablation — more routing servers, lower delay.

The paper claims the architecture "scales horizontally": splitting the
request load over k servers returns delay to the uncongested floor.  This
test drives 2400 qps (1.5x the paper's warehouse requirement) at 1, 2
and 4 servers.
"""

from repro.experiments.reporting import format_table
from repro.experiments.routing_server import run_horizontal_scaling


def test_horizontal_scaling_reduces_delay():
    results = run_horizontal_scaling(server_counts=(1, 2, 4),
                                     total_qps=2400, queries=6000)
    rows = [[count, "%.2e" % stats.median, "%.2e" % stats.whisker_high]
            for count, stats in results.items()]
    print(format_table(["servers", "median delay (s)", "p97.5 (s)"],
                       rows, title="Sec 4.1: request delay vs routing servers @2400qps"))
    # Delay falls monotonically with server count and approaches the
    # service-time floor (no queueing) by 4 servers.
    assert results[2].median < results[1].median
    assert results[4].median <= results[2].median
    assert results[1].median / results[4].median > 1.2
    # Tail collapses too.
    assert results[4].whisker_high < results[1].whisker_high
