#!/usr/bin/env python3
"""One ruler for the SDA reproduction: ``python3 bench/run.py``.

With no arguments it runs the five workloads, each in its own
subprocess, and prints every end-to-end metric by name with unit,
median, quartiles and sample count.  ``--workload NAME`` runs one
workload in this process — the form the benchmark driver uses:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

and its last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  README.md documents the
workloads, the metrics and every other flag.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit("bench/run.py: %s has no repro package; run from a checkout"
             % SRC_DIR)
sys.path.insert(0, SRC_DIR)

import layers       # noqa: E402
import probes       # noqa: E402
import report       # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

MIN_TIMED_REPS = 3
MAX_TIMED_REPS = 12

#: ledger keys that must agree, per packet-equivalent, between the fast
#: path (megaflow + trains) and the default per-packet path
EQUIVALENCE_KEYS = (
    "received", "fabric.edge.local_deliveries", "fabric.edge.encapsulated",
    "fabric.edge.to_border", "fabric.edge.policy_drops", "policy.acl.evals",
    "policy.acl.drops", "fabric.border.relayed")


# ---------------------------------------------------------------------- one rep
def run_rep(workload, seed, quick, tracer=None):
    """Build a fresh instance, run the measured phase, read it back."""
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(seed, quick)
    if tracer is not None:
        tracer.reset()
    cpu_started = time.process_time()
    measure_started = time.perf_counter()
    if tracer is not None:
        with tracer.span(tracing.UNATTRIBUTED):
            workload.measure(state)
    else:
        workload.measure(state)
    wall_s = time.perf_counter() - measure_started
    cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.remove()     # the read-back below is not part of the trace

    delta = workloads.counts_delta(state)
    ops, failed, violations = workload.outcome(state, delta)
    sim_metrics = workloads.roam_delay_metrics(state.roam_delays_s)
    sim_metrics.update(state.extra_sim)
    ctrl_msgs = delta["lisp.mapserver.msgs"] + delta["multisite.ctrl_handled"]
    if violations:
        failed = ops      # a rep whose invariants fail has no good op
    digest_input = {"ledger": workloads.device_ledger(state), "ops": ops,
                    "failed": failed, "sim": sim_metrics}
    digest = hashlib.sha256(
        json.dumps(digest_input, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "setup_s": measure_started - started,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "steal_share": max(0.0, 1.0 - cpu_s / wall_s),
        "ops": ops,
        "failed": failed,
        "events": delta["sim.events"],
        "ctrl_msgs": ctrl_msgs,
        "sim": sim_metrics,
        "sim_digest": digest,
        "violations": violations,
        "counts": delta,
    }


def recorded_digest(workload_name, seed, quick):
    with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
        recorded = json.load(handle)
    key = "%s:%d%s" % (workload_name, seed, ":quick" if quick else "")
    return recorded.get(key)


# ---------------------------------------------------------------------- untraced run
def run_untraced(workload, seed, reps, seconds, quick):
    """Warm-up + timed reps of a fresh same-seed instance; end-to-end metrics."""
    prov = report.provenance()
    if not quick:
        run_rep(workload, seed, quick=True)      # discarded warm-up, 1/10 size
    timed = []
    while True:
        timed.append(run_rep(workload, seed, quick))
        if quick:
            break
        if reps is not None:
            if len(timed) >= reps:
                break
        elif (len(timed) >= MAX_TIMED_REPS
              or (len(timed) >= MIN_TIMED_REPS
                  and sum(rep["wall_s"] for rep in timed) >= seconds)):
            break

    first = timed[0]
    violations = [v for rep in timed for v in rep["violations"]]
    for field in ("sim_digest", "ops", "events", "ctrl_msgs"):
        if any(rep[field] != first[field] for rep in timed):
            violations.append("%s differs between reps of one seed" % field)
    expected = recorded_digest(workload.name, seed, quick)
    if expected is not None and expected != first["sim_digest"]:
        violations.append("sim_digest %s is not the recorded %s"
                          % (first["sim_digest"][:16], expected[:16]))

    ops = first["ops"]
    metrics = {
        # every rep does the same ops, so the median of ops/wall is ops
        # over the median wall
        "ops_per_s": report.metric(
            "ops_per_s", [ops / rep["wall_s"] for rep in timed]),
        "setup_s": report.metric("setup_s", [rep["setup_s"] for rep in timed]),
        "peak_rss_mb": report.metric("peak_rss_mb", [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        "failed_share": report.metric(
            "failed_share", [rep["failed"] / ops for rep in timed]),
        "ctrl_msgs_per_op": report.metric(
            "ctrl_msgs_per_op", [rep["ctrl_msgs"] / ops for rep in timed]),
        "events_per_op": report.metric(
            "events_per_op", [rep["events"] / ops for rep in timed]),
    }
    for name in ("roam_delay_p50_sim_ms", "roam_delay_p99_sim_ms",
                 "fib_reduction"):
        if name in first["sim"]:
            metrics[name] = report.metric(
                name, [rep["sim"][name] for rep in timed])
    steal = [rep["steal_share"] for rep in timed]
    return {
        "workload": workload.name,
        "op_unit": workload.op_unit,
        "seed": seed,
        "quick": quick,
        "reps": len(timed),
        "provenance": prov,
        "noisy": report.is_noisy(prov, steal),
        "raw": {key: [rep[key] for rep in timed]
                for key in ("wall_s", "cpu_s", "setup_s", "steal_share")},
        "roam_delay_samples": first["sim"]["roam_delay_samples"],
        "correct": not violations,
        "violations": violations,
        "sim_digest": first["sim_digest"],
        "attempted": ops * len(timed),
        "failed": sum(rep["failed"] for rep in timed),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- traced run
def run_traced(workload, seed, quick, with_probes=True):
    """One untraced rep (counters, baseline wall), one traced rep, probes."""
    if not quick:
        run_rep(workload, seed, quick=True)
    plain = run_rep(workload, seed, quick)

    entries, class_components = layers.resolve()
    tracer = tracing.Tracer()
    tracer.profile.owner_of = tracing.owner_resolver(class_components)
    tracer.install(entries)
    try:
        traced = run_rep(workload, seed, quick, tracer=tracer)
    finally:
        tracer.remove()

    violations = plain["violations"] + traced["violations"]
    if traced["sim_digest"] != plain["sim_digest"]:
        violations.append("tracing changed the sim_digest")

    layer = counter_metrics(plain["counts"])
    layer.update(trace_metrics(tracer, traced["wall_s"], plain["wall_s"]))
    ops = plain["ops"]
    layer["failed_share"] = plain["failed"] / ops
    for name in ("roam_delay_p50_sim_ms", "roam_delay_p99_sim_ms",
                 "fib_reduction"):
        layer[name] = plain["sim"].get(name, 0.0)
    if with_probes:
        layer.update(probes.run_probes())

    os.makedirs(report.OUT_DIR, exist_ok=True)
    trace_path = os.path.join(report.OUT_DIR, "trace-%s.jsonl" % workload.name)
    with open(trace_path, "w") as handle:
        for record in tracer.span_records():
            handle.write(json.dumps(record) + "\n")
    return {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "provenance": report.provenance(),
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "self_s": tracer.self_seconds(),
        "calls": tracer.calls(),
        "spans_written": len(tracer.spans),
        "trace_file": os.path.relpath(trace_path, report.ROOT),
        "correct": not violations,
        "violations": violations,
        "sim_digest": plain["sim_digest"],
        "attempted": ops,
        "failed": plain["failed"],
        "layer_metrics": layer,
    }


def ratio(part, whole):
    return part / whole if whole else 0.0


def counter_metrics(counts):
    """Per-layer exact counters (source C) from the untraced rep."""
    lookups = counts["net.megaflow.hits"] + counts["net.megaflow.misses"]
    edge_lookups = (counts["fabric.edge.megaflow_hits"]
                    + counts["fabric.edge.megaflow_misses"])
    cache_lookups = counts["lisp.mapcache.hits"] + counts["lisp.mapcache.misses"]
    auth_lookups = (counts["policy.server.cache_hits"]
                    + counts["policy.server.cache_misses"])
    return {
        "sim.events": counts["sim.events"],
        "sim.compactions": counts["sim.compactions"],
        "net.megaflow.lookups": lookups,
        "net.megaflow.hit_ratio": ratio(counts["net.megaflow.hits"], lookups),
        "net.megaflow.flushes": counts["net.megaflow.flushes"],
        "lisp.mapcache.lookups": cache_lookups,
        "lisp.mapcache.hit_ratio": ratio(counts["lisp.mapcache.hits"],
                                         cache_lookups),
        "lisp.mapcache.expirations": counts["lisp.mapcache.expirations"],
        "lisp.mapserver.msgs": counts["lisp.mapserver.msgs"],
        "lisp.mapserver.max_depth": counts["lisp.mapserver.max_depth"],
        "lisp.mapserver.shed": counts["lisp.mapserver.shed"],
        "policy.acl.evals": counts["policy.acl.evals"],
        "policy.server.auths": counts["policy.server.auths"],
        "policy.server.cache_hit_ratio": ratio(
            counts["policy.server.cache_hits"], auth_lookups),
        "policy.sxp.updates": counts["policy.sxp.updates"],
        "underlay.sends": counts["underlay.sends"],
        "underlay.blackholed": counts["underlay.blackholed"],
        "underlay.spf_runs": counts["underlay.spf_runs"],
        "fabric.edge.pkts_in": counts["fabric.edge.pkts_in"],
        # share of edge forwarding decisions that left the fast path;
        # with megaflow off every decision is a slow-path one
        "fabric.edge.slowpath_share": (
            ratio(counts["fabric.edge.megaflow_misses"], edge_lookups)
            if edge_lookups else 1.0),
        "fabric.border.relayed": counts["fabric.border.relayed"],
        # packets that vanished without any drop counter saying why
        "fabric.unaccounted_pkts": (
            counts["sent"] - workloads.served_packets(counts)
            - workloads.counted_losses(counts)),
        "wireless.wlc.ops": counts["wireless.wlc.ops"],
        "wireless.ap.pkts": counts["wireless.ap.pkts"],
        "multisite.transit.msgs": counts["multisite.transit.msgs"],
        "multisite.away_registers": counts["multisite.away_registers"],
        "core.retries": counts["core.retries"],
    }


#: traced component -> per-layer metric carrying its self time
SELF_METRICS = {
    "sim.kernel": "sim.kernel_self_s",
    "sim.schedule": "sim.schedule_self_s",
    "net.trie": "net.trie.self_s",
    "net.vxlan": "net.vxlan.self_s",
    "net.megaflow": "net.megaflow.self_s",
    "lisp.mapcache": "lisp.mapcache.self_s",
    "lisp.mapserver": "lisp.mapserver.self_s",
    "lisp.mapdb": "lisp.mapdb.self_s",
    "policy.acl": "policy.acl.self_s",
    "policy.server": "policy.server.self_s",
    "policy.sxp": "policy.sxp.self_s",
    "underlay": "underlay.self_s",
    "underlay.spf": "underlay.spf_self_s",
    "fabric.edge": "fabric.edge.self_s",
    "fabric.border": "fabric.border.self_s",
    "fabric.facade": "fabric.facade.self_s",
    "wireless.wlc": "wireless.wlc.self_s",
    "wireless.ap": "wireless.ap.self_s",
    "wireless.facade": "wireless.facade.self_s",
    "multisite": "multisite.self_s",
    "core.serialqueue": "core.serialqueue.self_s",
    "core.batcher": "core.batcher.self_s",
    "workloads": "workloads.self_s",
}


def trace_metrics(tracer, traced_wall_s, untraced_wall_s):
    """Per-layer self times, call counts and tap values (source T)."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    cancels = tracer.taps.get("sim.cancels", 0)
    metrics = {name: self_s.get(comp, 0.0)
               for comp, name in SELF_METRICS.items()}
    attributed = sum(metrics.values())
    accounted = sum(self_s.values())
    metrics.update({
        "sim.kernel_share": ratio(metrics["sim.kernel_self_s"], traced_wall_s),
        # the sim.schedule component is schedule*() plus cancel()
        "sim.schedule_calls": calls.get("sim.schedule", 0) - cancels,
        "sim.cancelled_share": ratio(
            cancels, calls.get("sim.schedule", 0) - cancels),
        "lisp.mapcache.sweeps": tracer.taps.get("mapcache.sweeps", 0),
        "net.trie.calls": calls.get("net.trie", 0),
        "net.trie.self_share": ratio(metrics["net.trie.self_s"], traced_wall_s),
        "net.vxlan.calls": calls.get("net.vxlan", 0),
        "lisp.mapdb.ops": calls.get("lisp.mapdb", 0),
        "policy.server.self_share": ratio(metrics["policy.server.self_s"],
                                          traced_wall_s),
        "core.serialqueue.submits": sum(
            len(values) for name, values in tracer.taps.items()
            if name.startswith("queue_wait_s:")),
        "workloads.self_share": ratio(metrics["workloads.self_s"],
                                      traced_wall_s),
        "trace.overhead_ratio": ratio(traced_wall_s, untraced_wall_s),
        # whatever no named layer owns, plus the clock reads the books
        # cannot see (they close to well under 1% of the traced wall)
        "trace.unattributed_share": ratio(
            traced_wall_s - attributed, traced_wall_s),
        "trace.books_gap_share": ratio(
            abs(traced_wall_s - accounted), traced_wall_s),
    })
    batches = tracer.taps.get("batch_items", [])
    metrics["core.batcher.flushes"] = len(batches)
    metrics["core.batcher.items_per_flush"] = ratio(sum(batches), len(batches))
    for owner, name in (("RoutingServer", "lisp.mapserver"),
                        ("FabricWlc", "wireless.wlc")):
        waits = sorted(tracer.taps.get("queue_wait_s:" + owner, []))
        metrics[name + ".queue_wait_p99_sim_ms"] = (
            workloads.percentile(waits, 0.99) * 1e3 if waits else 0.0)
    return metrics


# ---------------------------------------------------------------------- modes
def contract_line(correct, attempted, failed, values, catalogue):
    """The driver's result object: every named metric, as measured."""
    metrics = {}
    for entry in catalogue:
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    return json.dumps({"correct": correct, "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def run_one(args):
    """``--workload NAME``: run in this process, print, return exit code."""
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    benchmark = report.load_benchmark_json()
    if args.trace:
        result = run_traced(workload, seed, args.quick)
        print("== %s traced  seed=%s  wall %.3f s traced / %.3f s untraced"
              % (workload.name, seed, result["traced_wall_s"],
                 result["untraced_wall_s"]))
        units = {e["name"]: e["unit"] for e in benchmark["per_layer"]}
        report.print_layers(result["layer_metrics"], units)
        for violation in result["violations"]:
            print("  VIOLATION: %s" % violation)
        values, catalogue = result["layer_metrics"], benchmark["per_layer"]
    else:
        reps = args.reps
        if reps is None and args.seconds is None:
            reps = workload.default_reps
        result = run_untraced(workload, seed, reps, args.seconds, args.quick)
        report.print_result(result)
        values = {name: entry["median"]
                  for name, entry in result["metrics"].items()}
        catalogue = benchmark["end_to_end"]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    print(contract_line(result["correct"], result["attempted"],
                        result["failed"], values, catalogue))
    return 0 if result["correct"] else 1


def run_suite(args):
    """Every workload, each in its own subprocess; one merged result file."""
    os.makedirs(report.OUT_DIR, exist_ok=True)
    kind = "traced" if args.trace else "suite"
    merged = {"quick": args.quick, "traced": bool(args.trace), "results": {}}
    ok = True
    for name in workloads.WORKLOADS:
        part = os.path.join(report.OUT_DIR, "result-%s%s.json"
                            % (name, "-traced" if args.trace else ""))
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--out", part,
                   "--trace", str(int(args.trace))]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, capture_output=True, text=True)
        # the child's last line is the driver's JSON; the table is above it
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(done.stderr)
        ok = ok and done.returncode == 0
        if os.path.exists(part):
            with open(part) as handle:
                merged["results"][name] = json.load(handle)
    out = args.out or os.path.join(report.OUT_DIR, "result-%s.json" % kind)
    with open(out, "w") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
    print("%s: %s, results in %s"
          % (kind, "all correct" if ok else "FAILED", out))
    return 0 if ok else 1


def run_probes_mode(args):
    os.makedirs(report.OUT_DIR, exist_ok=True)
    values = probes.run_probes()
    units = {name: unit for name, (_probe, unit) in probes.PROBES.items()}
    print("== probes (fastest of %d batches each)" % probes.BATCHES)
    report.print_layers(values, units)
    out = args.out or os.path.join(report.OUT_DIR, "result-probes.json")
    with open(out, "w") as handle:
        json.dump({"provenance": report.provenance(), "probes": values},
                  handle, indent=1, sort_keys=True)
    return 0


def run_selfcheck():
    """Correctness only: invariants and digests at quick size, plus the
    fast-path vs per-packet ledger equivalence on identical traffic."""
    failures = []
    for workload in workloads.WORKLOADS.values():
        seed = workload.default_seed
        reps = [run_rep(workload, seed, quick=True) for _ in range(2)]
        problems = reps[0]["violations"] + reps[1]["violations"]
        if reps[0]["sim_digest"] != reps[1]["sim_digest"]:
            problems.append("sim_digest differs between reps")
        expected = recorded_digest(workload.name, seed, quick=True)
        if expected is not None and expected != reps[0]["sim_digest"]:
            problems.append("sim_digest is not the recorded one")
        print("selfcheck %-16s %s" % (workload.name,
                                      "; ".join(problems) or "ok"))
        failures += problems

    steady = workloads.WORKLOADS["wired_steady"]
    perpacket = workloads.WORKLOADS["wired_perpacket"]
    ledgers = []
    for workload in (steady, perpacket):
        state = workload.setup(perpacket.default_seed, quick=False)
        state.duration_s = perpacket.duration_s(quick=False)
        workload.measure(state)
        ledgers.append(workloads.counts_delta(state))
    differing = [key for key in EQUIVALENCE_KEYS
                 if ledgers[0][key] != ledgers[1][key]]
    print("selfcheck fast path == per-packet ledger: %s"
          % ("differs on " + ", ".join(differing) if differing else "ok"))
    failures += differing
    return 1 if failures else 0


def run_compare(args):
    with open(args.compare[0]) as handle:
        base = json.load(handle)
    with open(args.compare[1]) as handle:
        new = json.load(handle)
    try:
        ok = report.compare(base, new)
    except ValueError as error:
        print("compare: %s" % error, file=sys.stderr)
        return 2
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="SDA reproduction benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload in this process "
                             "(default: all five, one subprocess each)")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--reps", type=int, help="timed reps per workload")
    parser.add_argument("--seconds", type=float,
                        help="keep adding timed reps until this much measured "
                             "time (at least %d reps)" % MIN_TIMED_REPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass: per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--probes", action="store_true",
                        help="run only the isolated layer micro-probes")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 1 rep at about 1/10 size")
    parser.add_argument("--selfcheck", action="store_true",
                        help="correctness checks only")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two suite result files")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.selfcheck:
        return run_selfcheck()
    if args.probes:
        return run_probes_mode(args)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
