"""repro — a reproduction of "SD-Access: Practical Experiences in
Designing and Deploying Software Defined Enterprise Networks"
(Paillisse et al., CoNEXT 2020).

The package implements the SDA campus fabric end to end over a
deterministic discrete-event simulator:

* a LISP control plane with a centralized routing server (Patricia-trie
  map-server, Map-Request/Register/Notify, SMR, pub/sub border sync);
* a policy plane (RADIUS-style onboarding, VNs + GroupIds, connectivity
  matrix, SXP distribution, group-based ACLs);
* a VXLAN-GPO data plane with edge/border routers, reactive route
  resolution with default-to-border fallback, L3 mobility and L2 services;
* a link-state underlay with reachability tracking;
* a multi-site fabric: sites federated over a LISP transit with an
  aggregates-only transit control plane, group tags carried across
  sites in the data plane, and home-border-anchored inter-site roaming;
* fabric-enabled wireless: a control-plane-only WLC that authenticates
  stations and registers their location as registrar, APs that
  VXLAN-GPO-encapsulate locally, and map-server-driven roaming;
* the paper's baselines (proactive BGP with a route reflector, a
  centralized WLAN controller) and the evaluation workloads (campus
  FIB study, warehouse massive mobility, distributed campus, wireless
  campus mobility).

Quickstart::

    from repro import FabricNetwork, FabricConfig

    net = FabricNetwork(FabricConfig(num_borders=1, num_edges=4))
    net.define_vn("corp", 4098, "10.1.0.0/16")
    net.define_group("employees", 10, 4098)
    net.define_group("printers", 20, 4098)
    net.allow("employees", "printers")

    alice = net.create_endpoint("alice", "employees", 4098)
    printer = net.create_endpoint("printer-1", "printers", 4098)
    net.admit(alice, 0)
    net.admit(printer, 2)
    net.settle()

    net.send(alice, printer)
    net.settle()
    assert printer.packets_received == 1
"""

from repro.core import (
    GroupId,
    VNId,
    ReproError,
    ConfigurationError,
    AuthenticationError,
    PolicyError,
)
from repro.sim import Simulator, SeededRng
from repro.net import IPv4Address, IPv6Address, MacAddress, Prefix, PatriciaTrie
from repro.fabric import (
    FabricNetwork,
    FabricConfig,
    EdgeRouter,
    BorderRouter,
    Endpoint,
)
from repro.lisp import RoutingServer, MapCache, MappingDatabase, MappingRecord
from repro.multisite import (
    MultiSiteNetwork,
    MultiSiteConfig,
    TransitControlPlane,
)
from repro.policy import (
    PolicyServer,
    SegmentationPlan,
    ConnectivityMatrix,
    GroupAcl,
)
from repro.wireless import (
    FabricAp,
    FabricWlc,
    Station,
    WirelessConfig,
    WirelessFabric,
)

__version__ = "1.2.0"

__all__ = [
    "GroupId",
    "VNId",
    "ReproError",
    "ConfigurationError",
    "AuthenticationError",
    "PolicyError",
    "Simulator",
    "SeededRng",
    "IPv4Address",
    "IPv6Address",
    "MacAddress",
    "Prefix",
    "PatriciaTrie",
    "FabricNetwork",
    "FabricConfig",
    "EdgeRouter",
    "BorderRouter",
    "Endpoint",
    "RoutingServer",
    "MapCache",
    "MappingDatabase",
    "MappingRecord",
    "MultiSiteNetwork",
    "MultiSiteConfig",
    "TransitControlPlane",
    "PolicyServer",
    "SegmentationPlan",
    "ConnectivityMatrix",
    "GroupAcl",
    "FabricAp",
    "FabricWlc",
    "Station",
    "WirelessConfig",
    "WirelessFabric",
    "__version__",
]
