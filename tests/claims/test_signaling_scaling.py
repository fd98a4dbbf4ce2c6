"""Sec. 3.4 — handover signaling: linear in roamers vs. linear in routers.

Paper claim reproduced: "handover signaling is linear with the number of
roaming endpoints, as opposed to proactive protocols, in which it also
depends on the number of routers".
"""

from repro.experiments.handover import run_signaling_scaling
from repro.experiments.reporting import format_table


def test_signaling_scaling_with_fabric_size():
    rows_data = run_signaling_scaling(edge_counts=(25, 50, 100))
    rows = [[r["edges"], "%.1f" % r["lisp_msgs_per_move"],
             "%.1f" % r["bgp_msgs_per_move"]] for r in rows_data]
    print(format_table(
        ["edges", "LISP msgs/move", "BGP msgs/move"],
        rows, title="Sec 3.4: mobility signaling vs fabric size"))

    lisp = [r["lisp_msgs_per_move"] for r in rows_data]
    bgp = [r["bgp_msgs_per_move"] for r in rows_data]
    # BGP signaling tracks the edge count (~N-1 per move).
    assert bgp[-1] > 3 * bgp[0] * 0.8
    for row in rows_data:
        assert row["bgp_msgs_per_move"] >= row["edges"] * 0.9
    # LISP signaling per move is bounded by the active-talker count and
    # does not grow with the fabric (allow 2x noise from SMR bursts).
    assert lisp[-1] < lisp[0] * 2 + 4
    # At every size the reactive protocol signals less per move.
    for row in rows_data:
        assert row["lisp_msgs_per_move"] < row["bgp_msgs_per_move"]
