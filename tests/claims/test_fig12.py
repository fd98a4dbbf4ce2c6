"""Fig. 12 — permille of ACL hits landing on drop rules (egress waste).

Paper findings reproduced:
  * worst case ~0.2 permille (2 in 10k packets);
  * ordering VPN > branch > campus;
  * the transient spike right after a policy update, which decays once
    users learn the destination is closed (sec. 5.3).
"""

from repro.experiments.drops import run_fig12, transient_after_policy_update
from repro.experiments.reporting import format_table


def test_fig12_permille_drops():
    results = run_fig12(days=5)
    rows = [[name, "%.4f" % permille] for name, permille in results.items()]
    print(format_table(["device", "permille drops"], rows,
                       title="Fig 12: permille hits on drop rules (5 days)"))
    assert results["VPN"] > results["Branch"] > results["Campus"]
    # Paper's bound: even the VPN gateway stays around 0.2 permille.
    assert results["VPN"] <= 0.25
    assert results["Campus"] >= 0.0


def test_policy_update_transient():
    transient, steady = transient_after_policy_update()
    print("drop permille: transient after policy update = %.2f, steady = %.4f"
          % (transient, steady))
    # Sec. 5.3: "after a new policy is applied, there is a transient
    # period with an increase in drops" that then decays.
    assert transient > 20 * steady
