"""Fig. 7a/7b/7c — routing server scalability.

Paper findings reproduced here:
  7a/7b: request & update delay FLAT in the number of routes (10..10k);
  7c:    request delay RISES with offered load (500..2000 qps).
"""

from repro.experiments.reporting import format_boxplot_row, format_table
from repro.experiments.routing_server import (
    flatness_ratio,
    run_fig7a,
    run_fig7b,
    run_fig7c,
)

HEADERS = ["x", "p2.5", "q1", "median", "q3", "p97.5"]


def test_fig7a_request_delay_vs_routes():
    results = run_fig7a(route_counts=(10, 100, 1000, 10000), queries=4000)
    rows = [format_boxplot_row(str(count), stats)
            for count, stats in results.items()]
    print(format_table(HEADERS, rows,
                       title="Fig 7a: request delay vs #routes (rel. to 1-route min)"))
    # The paper's finding: flat — medians within a few percent.
    assert flatness_ratio(results) < 1.1


def test_fig7b_update_delay_vs_routes():
    results = run_fig7b(route_counts=(10, 100, 1000, 10000), queries=4000)
    rows = [format_boxplot_row(str(count), stats)
            for count, stats in results.items()]
    print(format_table(HEADERS, rows,
                       title="Fig 7b: update delay vs #routes (rel. to 1-route min)"))
    assert flatness_ratio(results) < 1.1


def test_fig7c_request_delay_vs_rate():
    results = run_fig7c(rates=(500, 1000, 1500, 2000), queries=4000)
    rows = [format_boxplot_row("%d qps" % rate, stats)
            for rate, stats in results.items()]
    print(format_table(HEADERS, rows,
                       title="Fig 7c: request delay vs queries/s (rel. to min)"))
    # Rising curve with widening whiskers (paper: ~1.0 -> ~2.25 median).
    assert results[2000].median > results[500].median * 1.3
    assert results[2000].whisker_high > results[500].whisker_high
    # The 800 qps design point (paper's warehouse requirement) is healthy:
    # the 1000 qps median is nowhere near queue collapse.
    assert results[1000].median < 2.0
