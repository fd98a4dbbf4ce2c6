"""Sec. 5.4 — policy update strategies: move endpoints vs. edit the matrix.

Paper finding reproduced: which strategy signals less depends on the
group structure — many small groups favour moving endpoints, few large
groups favour editing the matrix; the crossover exists.
"""

from repro.experiments.policy_update import run_comparison
from repro.experiments.reporting import format_table


def test_policy_update_strategies():
    rows_data = run_comparison(shapes=[(2, 24), (4, 12), (8, 6), (16, 3)])
    rows = [[r["num_groups"], r["endpoints_per_group"],
             r["move_endpoints_msgs"], r["edit_matrix_msgs"],
             "move" if r["move_wins"] else "edit"]
            for r in rows_data]
    print(format_table(
        ["groups", "endpoints/group", "move msgs", "edit msgs", "cheaper"],
        rows, title="Sec 5.4: signaling cost of the two update strategies"))

    # The trade-off is real: each strategy wins somewhere.
    winners = {row["move_wins"] for row in rows_data}
    assert winners == {True, False}
    # Few large groups: editing the matrix is cheaper (few rule pushes vs
    # many per-endpoint re-auths).
    assert not rows_data[0]["move_wins"]
    # Many small groups: moving endpoints is cheaper.
    assert rows_data[-1]["move_wins"]
    # Move cost scales with endpoints, not with fabric-wide rule fan-out.
    assert rows_data[-1]["move_endpoints_msgs"] < rows_data[0]["move_endpoints_msgs"]
