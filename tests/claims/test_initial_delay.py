"""Sec. 3.2.2 ablation — what the default route to the border buys.

The paper installs a border-pointing default route specifically to kill
the reactive protocol's initial packet loss.  This test turns the
mechanism off and on and measures the difference.
"""

from repro.experiments.initial_delay import run_ablation
from repro.experiments.reporting import format_table


def test_default_route_eliminates_initial_loss():
    results = run_ablation(num_pairs=20)
    rows = [
        [label, r["sent"], r["delivered"], "%.0f%%" % (100 * r["loss_rate"])]
        for label, r in results.items()
    ]
    print(format_table(["mode", "sent", "delivered", "loss"],
                       rows, title="Sec 3.2.2: initial-connection loss"))

    with_default = results["default-route"]
    without = results["drop-on-miss"]
    # The design decision's payoff: no loss with the default route ...
    assert with_default["loss_rate"] == 0.0
    # ... vs. real first-window loss without it.
    assert without["loss_rate"] > 0.10
    # Every flow's first packet arrived in default-route mode.
    assert with_default["first_packet_deliveries"] == 20
