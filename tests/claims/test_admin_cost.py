"""Table 1 "simplified administration" row — group rules vs. IP ACLs.

The paper's qualitative claim quantified: expressing the same intent as a
G-group connectivity matrix over N endpoints needs O(G^2) group rules but
O(N^2) legacy ACL lines.
"""

from repro.core.types import GroupId
from repro.experiments.reporting import format_table
from repro.net.addresses import Prefix
from repro.policy import ConnectivityMatrix, GroupAcl, IpAcl


def _build(num_groups, endpoints_per_group):
    matrix = ConnectivityMatrix()
    for src in range(1, num_groups + 1):
        dst = src % num_groups + 1
        matrix.allow(GroupId(src), GroupId(dst))
    members = {
        gid: [Prefix.parse("10.%d.%d.%d/32" % (gid, i // 250, i % 250))
              for i in range(endpoints_per_group)]
        for gid in range(1, num_groups + 1)
    }
    return matrix, members


def test_rule_count_scaling():
    rows = []
    for endpoints_per_group in (10, 40, 160):
        matrix, members = _build(num_groups=6,
                                 endpoints_per_group=endpoints_per_group)
        group_acl = GroupAcl()
        group_acl.program(matrix.rules())
        legacy = IpAcl.from_matrix(matrix, members)
        rows.append((endpoints_per_group, len(group_acl), len(legacy)))
    print(format_table(
        ["endpoints/group", "group rules", "IP ACL lines"],
        rows, title="Table 1: administration state, same intent"))
    # Group rules are constant in endpoint count; IP lines grow ~N^2.
    assert rows[0][1] == rows[-1][1]
    assert rows[-1][2] > 200 * rows[0][2] / 20
    growth = rows[-1][2] / rows[0][2]
    assert growth >= (160 / 10) ** 2 * 0.8
