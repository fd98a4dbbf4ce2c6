"""Chaos claims: recovery speed vs a BGP control plane.

Two measurements:

* **Control-plane outage under mobility** — the same scripted scenario
  is run against the fabric (routing server crashes cold, edges retry
  unacked Map-Registers with backoff and refresh soft state) and
  against the proactive baseline (the route reflector goes dark;
  advertisements sent during the outage are simply lost, and the
  session only reconciles at the next periodic full re-advertisement,
  the BGP table-scan/session-restart timescale).  For every endpoint
  that moves *during* the outage we record its **staleness window** —
  move time until the consumer's table holds the new location.  The
  asserted ratio (BGP total staleness over fabric
  total staleness, higher is better) is the paper's availability
  argument in one number: reactive soft state + retries reconverge in
  retry-backoff time, a pushed table waits for the scanner.

* **Chaos campus** — the standard :class:`ChaosCampusWorkload` schedule
  (link flap, server crash, border death, spine death, access-switch
  death) with live probes: every fault heals, no stale mapping
  survives, and the probes see real blackhole time.
"""

from repro.baselines.bgp import BgpPeer, BgpRouteReflector
from repro.core.retry import RetryPolicy
from repro.experiments.reporting import format_table
from repro.fabric import FabricConfig, FabricNetwork
from repro.net.addresses import IPv4Address
from repro.sim.simulator import Simulator
from repro.underlay.network import UnderlayNetwork
from repro.underlay.topology import Topology
from repro.workloads.chaos_campus import ChaosCampusWorkload

_SEED = 17
_VN = 100
_NUM_EDGES = 4
_NUM_HOSTS = 6
_OUTAGE_AT = 1.0
_OUTAGE_S = 2.0
# Moves land strictly inside the outage window.
_MOVE_TIMES = [1.2, 1.5, 1.8, 2.1, 2.4, 2.7]
_BGP_READV_S = 30.0     # periodic full re-advertisement (table scan)
_POLL_S = 0.01          # staleness-window measurement granularity


# --------------------------------------------------------------- fabric side
def _run_fabric_outage():
    """Returns the list of per-move staleness windows (seconds)."""
    net = FabricNetwork(FabricConfig(
        num_borders=1, num_edges=_NUM_EDGES, seed=_SEED,
        register_retry=RetryPolicy(base_s=0.1, multiplier=2.0,
                                   max_delay_s=0.5, max_attempts=10),
        register_refresh_s=0.5,
    ))
    net.define_vn("corp", _VN, "10.40.0.0/16")
    net.define_group("hosts", 1, _VN)
    hosts = []
    for index in range(_NUM_HOSTS):
        host = net.create_endpoint("h%d" % index, "hosts", _VN)
        net.admit(host, index % (_NUM_EDGES - 1))
        hosts.append(host)
    net.settle()
    server = net.routing_server

    pending = {}    # identity -> (move_t, expected_rloc, prefix)
    windows = []

    def _move(index):
        host = hosts[index]
        target = (net.edges.index(host.edge) + 1) % _NUM_EDGES
        net.roam(host, target)
        pending[host.identity] = (net.sim.now, net.edges[target].rloc,
                                  host.ip.to_prefix())

    def _check():
        if not server.crashed:
            for identity in sorted(pending):
                move_t, rloc, prefix = pending[identity]
                record = server.database.lookup_exact(_VN, prefix)
                if record is not None and record.rloc == rloc:
                    windows.append(net.sim.now - move_t)
                    del pending[identity]
        net.sim.schedule_daemon(_POLL_S, _check)

    net.sim.schedule(_OUTAGE_AT, net.crash_routing_server, 0)
    net.sim.schedule(_OUTAGE_AT + _OUTAGE_S, net.restart_routing_server, 0)
    for index, at in enumerate(_MOVE_TIMES):
        net.sim.schedule(at, _move, index)
    net.sim.schedule_daemon(_POLL_S, _check)
    net.run_for(_OUTAGE_AT + _OUTAGE_S + 5.0)
    net.settle()
    assert not pending, "unrecovered moves: %s" % sorted(pending)
    return windows


# ------------------------------------------------------------------ BGP side
def _run_bgp_outage():
    """Same scripted outage against the route-reflector baseline."""
    sim = Simulator()
    topology, spines, leaves = Topology.two_tier(num_spines=2,
                                                 num_leaves=_NUM_EDGES + 1)
    underlay = UnderlayNetwork(sim, topology, seed=_SEED)
    reflector = BgpRouteReflector(
        sim, underlay, rloc=IPv4Address.parse("192.168.255.10"),
        node=spines[0], seed=_SEED + 1)

    pending = {}    # eid -> (move_t, expected_rloc)
    windows = []

    def _on_update(vn, eid, rloc, now):
        entry = pending.get(eid)
        if entry is not None and rloc == entry[1]:
            windows.append(now - entry[0])
            del pending[eid]

    peers = [
        BgpPeer(sim, "bgp-edge-%d" % index,
                IPv4Address(0xC0A80001 + index), leaves[index],
                underlay, reflector)
        for index in range(_NUM_EDGES)
    ]
    consumer = BgpPeer(sim, "bgp-consumer",
                       IPv4Address(0xC0A800F0), leaves[_NUM_EDGES],
                       underlay, reflector, on_update=_on_update)
    assert consumer.table_size == 0

    base_ip = int(IPv4Address.parse("10.40.0.10"))
    owner = {}      # eid -> peer index
    eids = []
    for index in range(_NUM_HOSTS):
        eid = IPv4Address(base_ip + index).to_prefix()
        eids.append(eid)
        owner[eid] = index % (_NUM_EDGES - 1)

    def _rescan():
        """The periodic full table walk every origin session replays."""
        for eid in eids:
            peers[owner[eid]].advertise(_VN, eid)
        sim.schedule_daemon(_BGP_READV_S, _rescan)

    def _move(index):
        eid = eids[index]
        previous = owner[eid]
        owner[eid] = (previous + 1) % _NUM_EDGES
        # Withdraw + re-advertise race the dark reflector and are lost.
        peers[previous].advertise(_VN, eid, withdrawn=True)
        peers[owner[eid]].advertise(_VN, eid)
        pending[eid] = (sim.now, peers[owner[eid]].rloc)

    for eid in eids:                        # converged steady state
        peers[owner[eid]].advertise(_VN, eid)
    sim.schedule(_OUTAGE_AT,
                 underlay.set_announced, reflector.rloc, False)
    sim.schedule(_OUTAGE_AT + _OUTAGE_S,
                 underlay.set_announced, reflector.rloc, True)
    for index, at in enumerate(_MOVE_TIMES):
        sim.schedule(at, _move, index)
    sim.schedule_daemon(_BGP_READV_S, _rescan)
    sim.run(until=_BGP_READV_S + 10.0)
    assert not pending, "unreconciled BGP moves: %s" % sorted(
        str(k) for k in pending)
    return windows


def test_control_plane_outage_staleness():
    fabric, bgp = _run_fabric_outage(), _run_bgp_outage()
    assert len(fabric) == len(bgp) == len(_MOVE_TIMES)
    fabric_total = sum(fabric)
    bgp_total = sum(bgp)
    speedup = bgp_total / fabric_total
    print(format_table(
        ["plane", "moves", "total_stale_s", "max_stale_s"],
        [["fabric", "%d" % len(fabric), "%.3f" % fabric_total,
          "%.3f" % max(fabric)],
         ["bgp-rr", "%d" % len(bgp), "%.3f" % bgp_total,
          "%.3f" % max(bgp)]],
        title="Control-plane outage: mapping staleness per move",
    ))
    # Every fabric window is bounded by the outage plus one retry
    # backoff; the BGP windows wait for the 30 s table walk.
    assert max(fabric) < _OUTAGE_S + 1.0
    assert min(bgp) > _BGP_READV_S - _OUTAGE_AT - _OUTAGE_S - 1.0
    assert speedup > 2.0


def test_chaos_campus_schedule():
    summary = ChaosCampusWorkload(seed=_SEED).run(duration_s=12.0)
    probes = summary["probes"]
    faults = summary["faults"]
    print(format_table(
        ["metric", "value"],
        [[key, "%s" % probes[key]] for key in sorted(probes)],
        title="Chaos campus: probe-plane summary",
    ))
    assert faults["faults_injected"] == faults["faults_healed"] == 5
    assert summary["oracle_violations"] == 0
    assert probes["blackhole_s"] > 0          # the access-switch death
    assert probes["reconvergence_count"] >= 1
