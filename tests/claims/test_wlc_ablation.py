"""Sec. 2 motivation ablation — centralized WLC vs SDA distributed plane.

Reproduces the two failure modes the paper cites for the traditional
centralized wireless model: the controller bottleneck under load, and
triangular routing (path stretch).
"""

from repro.experiments.reporting import format_table
from repro.experiments.wlc_ablation import run_bottleneck_sweep, run_path_stretch


def test_wlc_bottleneck_vs_sda():
    rows_data = run_bottleneck_sweep(rates=(2000, 12000, 36000))
    rows = [[r["rate_pps"], "%.0f" % (1e6 * r["wlc_median_s"]),
             "%.0f" % (1e6 * r["sda_median_s"])] for r in rows_data]
    print(format_table(
        ["offered pps", "WLC median us", "SDA median us"],
        rows, title="Centralized WLC vs SDA distributed data plane"))

    low, high = rows_data[0], rows_data[-1]
    # The controller's single queue inflates delay as load grows ...
    assert high["wlc_median_s"] > 3 * low["wlc_median_s"]
    # ... while the distributed plane barely moves.
    assert high["sda_median_s"] < 2 * low["sda_median_s"]
    # At high load the centralized plane is clearly worse.
    assert high["wlc_median_s"] > 2 * high["sda_median_s"]


def test_wlc_triangular_routing():
    stretch = run_path_stretch()
    print("WLC path stretch (AP -> controller -> AP vs direct): %.1fx" % stretch)
    # Hairpinning through an off-path controller costs real distance.
    assert stretch >= 1.5
