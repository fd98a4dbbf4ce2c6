"""The SDA fabric: data plane devices and their assembly.

This package implements the paper's sec. 3 design:

* :class:`EdgeRouter` — encap/decap, VRF-based macro segmentation,
  reactive route resolution with default-to-border fallback, roaming
  detection, egress group-policy enforcement (fig. 4 pipelines).
* :class:`BorderRouter` — pubsub-synchronized FIB, external connectivity.
* :class:`FabricNetwork` — builds the underlay + control plane + data
  plane into one operable object with admission/roam/send verbs.
* Host onboarding (fig. 3), mobility (figs. 5-6), L2 services (sec. 3.5)
  and DHCP.
"""

from repro.fabric.endpoint import Endpoint
from repro.fabric.dhcp import DhcpServer, DhcpPool
from repro.fabric.vrf import VrfTable, LocalEndpointEntry
from repro.fabric.edge import EdgeRouter
from repro.fabric.border import BorderRouter
from repro.fabric.network import FabricNetwork, FabricConfig
from repro.fabric.l2 import L2Gateway

__all__ = [
    "Endpoint",
    "DhcpServer",
    "DhcpPool",
    "VrfTable",
    "LocalEndpointEntry",
    "EdgeRouter",
    "BorderRouter",
    "FabricNetwork",
    "FabricConfig",
    "L2Gateway",
]
