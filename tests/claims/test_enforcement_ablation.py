"""Sec. 5.3 ablation — ingress vs. egress policy enforcement (and fig. 13).

Paper trade-off reproduced:
  * egress enforcement holds less ACL state fabric-wide;
  * ingress enforcement saves the bandwidth of carrying to-be-dropped
    traffic across the underlay;
  * only egress keeps policy fresh for free after an endpoint group
    change (fig. 13's staleness problem).
"""

from repro.experiments.enforcement import run_ablation, staleness_after_group_move
from repro.experiments.reporting import format_table


def test_enforcement_state_vs_bandwidth():
    results = run_ablation(flows=250)
    rows = []
    for mode in ("egress", "ingress"):
        r = results[mode]
        rows.append([mode, r["acl_rules_total"], r["policy_drops"],
                     r["denied_bytes_crossed_underlay"]])
    print(format_table(
        ["enforcement", "ACL rules (fabric)", "drops", "denied bytes over underlay"],
        rows, title="Sec 5.3: enforcement point trade-off"))

    egress, ingress = results["egress"], results["ingress"]
    assert egress["acl_rules_total"] <= ingress["acl_rules_total"]
    assert ingress["denied_bytes_crossed_underlay"] \
        < egress["denied_bytes_crossed_underlay"]
    # Both modes enforce the same policy in the end.
    assert egress["policy_drops"] > 0 and ingress["policy_drops"] > 0


def test_group_change_staleness():
    outcome = staleness_after_group_move()
    rows = [[mode, result["new_policy_enforced_immediately"]]
            for mode, result in outcome.items()]
    print(format_table(["enforcement", "fresh policy on first packet"],
                       rows, title="Fig 13: policy freshness after a group move"))
    assert outcome["egress"]["new_policy_enforced_immediately"]
    assert not outcome["ingress"]["new_policy_enforced_immediately"]
