"""Metric catalogue, summary statistics, provenance and ``--compare``.

``END_TO_END`` is the suite's catalogue: all nine end-to-end metrics
with the bounds ``--compare`` gates on when both sides ran the same
seed.  ``BENCHMARK.json`` carries the driver's subset — the metrics
that are defined and non-zero on every workload — with bounds wide
enough for its seed-to-seed comparison (README.md, "The driver's view").
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: exact: deterministic per seed, any worsening is a regression
EXACT = "exact"

#: name -> (unit, better, bound); bound is a share of the base median.
#: ``setup_s`` also tolerates 5 ms absolute (tiny set-ups are all noise).
END_TO_END = {
    "ops_per_s": ("op/s", "higher", 0.05),
    "setup_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "failed_share": ("ratio", "lower", EXACT),
    "roam_delay_p50_sim_ms": ("ms", "lower", EXACT),
    "roam_delay_p99_sim_ms": ("ms", "lower", EXACT),
    "ctrl_msgs_per_op": ("count/op", "lower", EXACT),
    "events_per_op": ("count/op", "lower", EXACT),
    "fib_reduction": ("ratio", "higher", EXACT),
}
SETUP_ABS_TOLERANCE_S = 0.005

#: a rep is noisy when the hypervisor or a neighbour took this much CPU
STEAL_LIMIT = 0.05


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- statistics
def summarize(values):
    """Median and quartiles of a sample (quartiles collapse below n=2)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def metric(name, values):
    unit, better, bound = END_TO_END[name]
    entry = {"unit": unit, "better": better, "bound": bound}
    entry.update(summarize(values))
    return entry


# ---------------------------------------------------------------------- provenance
def _git(*args):
    try:
        done = subprocess.run(("git", "-C", ROOT) + args, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance():
    """Where and on what this number was measured."""
    status = _git("status", "--porcelain")
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load,
    }


def is_noisy(prov, steal_shares):
    load = prov.get("loadavg_1m_at_start")
    if load is not None and load > (prov.get("nproc") or 1):
        return True
    return any(share > STEAL_LIMIT for share in steal_shares)


# ---------------------------------------------------------------------- printing
def format_value(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def print_result(result, stream=None):
    stream = stream or sys.stdout
    prov = result["provenance"]
    stream.write(
        "== %s  seed=%s reps=%d%s%s  [%s%s, py %s, %s, nproc=%s, load=%s]\n" % (
            result["workload"], result["seed"], result["reps"],
            " quick" if result["quick"] else "",
            " NOISY" if result["noisy"] else "",
            (prov["git_sha"] or "unknown")[:10],
            "+dirty" if prov["git_dirty"] else "",
            prov["python"], prov["cpu_model"], prov["nproc"],
            format_value(prov["loadavg_1m_at_start"])))
    for name, entry in result["metrics"].items():
        stream.write("  %-26s %12s %-9s q1=%s q3=%s n=%d\n" % (
            name, format_value(entry["median"]), entry["unit"],
            format_value(entry["q1"]), format_value(entry["q3"]), entry["n"]))
    if result["roam_delay_samples"]:
        stream.write("  %-26s %12d samples per rep\n"
                     % ("roam_delay_*", result["roam_delay_samples"]))
    stream.write("  sim_digest %s  correct=%s\n"
                 % (result["sim_digest"], result["correct"]))
    for violation in result["violations"]:
        stream.write("  VIOLATION: %s\n" % violation)


def print_layers(layer_metrics, units, stream=None):
    stream = stream or sys.stdout
    for name in sorted(layer_metrics):
        stream.write("  %-40s %14s %s\n" % (
            name, format_value(layer_metrics[name]), units.get(name, "")))


# ---------------------------------------------------------------------- compare
def _worse_by(base, new, better):
    """Signed share of ``base`` by which ``new`` is worse (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else (
            float("inf") if (new > 0) == (better == "lower") else float("-inf"))
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _dominates(ours, theirs, better):
    """Every value of ``ours`` reads better than every value of ``theirs``."""
    if better == "lower":
        return max(ours) < min(theirs)
    return min(ours) > max(theirs)


def verdict(name, base, new, base_noisy=False, new_noisy=False):
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric."""
    better, bound = base["better"], base["bound"]
    worse_by = _worse_by(base["median"], new["median"], better)
    if bound == EXACT:
        if worse_by > 0:
            return "worse"
        return "better" if worse_by < 0 else "same"
    if name == "setup_s" and base["median"] > 0:
        bound = max(bound, SETUP_ABS_TOLERANCE_S / base["median"])
    spread = max(
        ((entry["q3"] - entry["q1"]) / abs(entry["median"])
         for entry in (base, new) if entry["median"]), default=0.0)
    if base_noisy or new_noisy or spread > bound:
        # Too blurred to call — unless the two samples do not even overlap.
        if _dominates(new["values"], base["values"], better):
            return "better"
        if worse_by > bound and _dominates(base["values"], new["values"], better):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if -worse_by > bound else "same"


def compare(base_doc, new_doc, stream=None):
    """Print one row per (workload, end-to-end metric); True if none worse."""
    stream = stream or sys.stdout
    for doc in (base_doc, new_doc):
        if doc.get("quick"):
            raise ValueError("refusing to compare --quick results")
    ok = True
    stream.write("%-16s %-24s %14s %14s %9s %7s  %s\n" % (
        "workload", "metric", "base median", "new median", "new/base",
        "bound", "verdict"))
    for workload, base in base_doc["results"].items():
        new = new_doc["results"].get(workload)
        if new is None:
            continue
        if base["seed"] != new["seed"]:
            raise ValueError("%s: seeds differ (%s vs %s)"
                             % (workload, base["seed"], new["seed"]))
        for name, base_entry in base["metrics"].items():
            new_entry = new["metrics"].get(name)
            if new_entry is None:
                continue
            result = verdict(name, base_entry, new_entry,
                             base["noisy"], new["noisy"])
            ok = ok and result != "worse"
            ratio = (new_entry["median"] / base_entry["median"]
                     if base_entry["median"] else float("nan"))
            stream.write(
                "%-16s %-24s %14s %14s %9.4f %7s  %s\n"
                "%-16s %-24s   [%s .. %s]   [%s .. %s]  (base = first file)\n" % (
                    workload, name, format_value(base_entry["median"]),
                    format_value(new_entry["median"]), ratio,
                    base_entry["bound"], result, "", "",
                    format_value(base_entry["q1"]),
                    format_value(base_entry["q3"]),
                    format_value(new_entry["q1"]),
                    format_value(new_entry["q3"])))
        if base["sim_digest"] != new["sim_digest"]:
            ok = False
            stream.write("%-16s sim_digest differs: worse\n" % workload)
    return ok
