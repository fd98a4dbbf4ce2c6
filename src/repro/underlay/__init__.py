"""Underlay substrate: topology, link-state IGP (OSPF/IS-IS-like) and the
packet delivery fabric the overlay rides on.

The paper's underlay is "a network with plain IP connectivity" running
OSPF or IS-IS with ECMP (sec. 3.3).  Two of its properties matter to the
overlay and are modelled faithfully:

* **Reachability announcements** — edge routers monitor the IGP's address
  announcements to learn whether other edges' underlay addresses (RLOCs)
  are reachable, and fall back to the border default route on outage
  (sec. 5.1).  A rebooting edge stays silent in the IGP, which is one of
  the two loop mitigations of sec. 5.2.
* **Path cost/delay** — encapsulated packets take a shortest path;
  :class:`UnderlayNetwork` forwards every flow on one such path and
  does not spread load over equal-cost ones.
"""

from repro.underlay.topology import Topology, TopologyLink
from repro.underlay.linkstate import LinkStateRouter, LinkStateAdvertisement, IgpDomain
from repro.underlay.network import UnderlayNetwork

__all__ = [
    "Topology",
    "TopologyLink",
    "LinkStateRouter",
    "LinkStateAdvertisement",
    "IgpDomain",
    "UnderlayNetwork",
]
