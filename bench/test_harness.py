"""Harness self-tests: ``python -m pytest bench -q`` (not part of tier-1)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import layers       # noqa: E402
import report       # noqa: E402
import run          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402


# ---------------------------------------------------------------------- shadow stack
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def synthetic_tree(clock, tracer):
    """root(a) spends 1, calls b twice; b spends 2 and recurses once
    into itself via a (a -> b -> a -> b)."""
    def leaf():
        clock.spend(0.5)

    leaf = tracer.wrap(leaf, "c")

    def b(depth):
        clock.spend(2.0)
        leaf()
        if depth:
            a(depth - 1)

    b = tracer.wrap(b, "b")

    def a(depth):
        clock.spend(1.0)
        b(depth)
        b(0)

    a = tracer.wrap(a, "a")
    return a


def test_self_times_sum_to_root_inclusive_with_recursion():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    a = synthetic_tree(clock, tracer)
    with tracer.span("root"):
        clock.spend(0.25)
        a(1)
    self_s = tracer.self_seconds()
    # a runs twice (1.0 each), b four times (2.0 each), leaf four times
    assert self_s == {"root": 0.25, "a": 2.0, "b": 8.0, "c": 2.0}
    assert sum(self_s.values()) == clock.now
    assert tracer.calls() == {"root": 1, "a": 2, "b": 4, "c": 4}
    assert len(tracer.stack) == 1


def test_same_component_helpers_are_one_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def helper():
        clock.spend(1.0)

    helper = tracer.wrap(helper, "x")

    def entry():
        clock.spend(1.0)
        helper()
        helper()

    entry = tracer.wrap(entry, "x")
    with tracer.span("root"):
        entry()
    assert tracer.self_seconds()["x"] == 3.0
    assert tracer.calls()["x"] == 1


def test_exception_unwinds_the_stack():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.spend(1.0)
        raise RuntimeError("boom")

    boom = tracer.wrap(boom, "b")

    def outer():
        clock.spend(1.0)
        try:
            boom()
        except RuntimeError:
            clock.spend(0.5)

    outer = tracer.wrap(outer, "a")
    with tracer.span("root"):
        outer()
    assert tracer.self_seconds() == {"root": 0.0, "a": 1.5, "b": 1.0}
    assert len(tracer.stack) == 1


def test_events_are_roots_and_kernel_is_run_minus_callbacks():
    from repro.sim.simulator import Simulator

    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    class Device:
        def __init__(self, sim):
            self.sim = sim

        def tick(self, remaining):
            clock.spend(2.0)
            if remaining:
                self.sim.schedule(1.0, self.tick, remaining - 1)

    tracer.profile.owner_of = tracing.owner_resolver({Device: "dev"})
    tracer.install([])
    try:
        sim = Simulator()
        device = Device(sim)
        sim.schedule(1.0, device.tick, 2)
        with tracer.span("root"):
            sim.run()
    finally:
        tracer.remove()
    self_s = tracer.self_seconds()
    assert self_s["dev"] == 6.0
    assert self_s[tracing.KERNEL] == 0.0        # the fake clock only moves in tick
    assert tracer.roots == 4                    # the block + three events
    assert sum(self_s.values()) == clock.now


def test_callback_exception_leaves_a_usable_stack():
    from repro.sim.simulator import Simulator

    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def explode():
        clock.spend(1.0)
        raise RuntimeError("boom")

    tracer.install([])
    try:
        sim = Simulator()
        sim.schedule(1.0, explode)
        with tracer.span("root"):
            with pytest.raises(RuntimeError):
                sim.run()
            sim.schedule(1.0, clock.spend, 2.0)
            sim.run()
    finally:
        tracer.remove()
    assert len(tracer.stack) == 1
    assert sum(tracer.self_seconds().values()) == clock.now == 3.0


def test_span_sampling_keeps_first_roots_then_one_in_n():
    tracer = tracing.Tracer(clock=FakeClock())
    kept = 0
    for _ in range(tracing.FULL_ROOTS + 4 * tracing.SAMPLE_EVERY):
        tracer.begin_root()
        kept += tracer.recording
    assert kept == tracing.FULL_ROOTS + 4


# ---------------------------------------------------------------------- shims
def class_attributes():
    entries, _ = layers.resolve()
    holders = {holder for entry in entries for holder, _name in entry["holders"]}
    from repro.sim.simulator import Simulator
    holders.add(Simulator)
    return {holder: dict(vars(holder)) for holder in holders}


def test_shims_are_fully_removed_after_a_traced_run():
    before = class_attributes()
    result = run.run_traced(workloads.WORKLOADS["intersite_churn"], 5,
                            quick=True, with_probes=False)
    after = class_attributes()
    assert result["correct"], result["violations"]
    for holder, attributes in before.items():
        for name, value in attributes.items():
            assert after[holder][name] is value, (holder, name)
    layer = result["layer_metrics"]
    assert layer["trace.books_gap_share"] < 0.01
    assert abs(layer["trace.unattributed_share"]) < 0.15
    assert layer["multisite.self_s"] > 0.0
    assert layer["trace.overhead_ratio"] > 1.0


def test_by_type_bills_inherited_methods_to_the_subclass_layer():
    entries, _ = layers.resolve()
    from repro.multisite.transit import TransitControlPlane
    inherited = [entry for entry in entries
                 if entry["component"] == "lisp.mapserver"]
    assert inherited
    assert all(entry["by_type"] == {TransitControlPlane: "multisite"}
               for entry in inherited)


# ---------------------------------------------------------------------- catalogue
def test_output_matches_benchmark_json_names():
    benchmark = report.load_benchmark_json()
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert benchmark["paths"] == ["bench"]
    workload = workloads.WORKLOADS["roam_storm"]

    untraced = run.run_untraced(workload, 1, reps=None, seconds=None, quick=True)
    assert untraced["correct"], untraced["violations"]
    for entry in benchmark["end_to_end"]:
        assert untraced["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert untraced["metrics"][entry["name"]]["median"] > 0
    assert set(untraced["metrics"]) <= set(report.END_TO_END)

    traced = run.run_traced(workload, 1, quick=True)
    named = {entry["name"] for entry in benchmark["per_layer"]}
    assert named == set(traced["layer_metrics"])
    assert len(named) <= 128
    line = json.loads(run.contract_line(
        traced["correct"], traced["attempted"], traced["failed"],
        traced["layer_metrics"], benchmark["per_layer"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_driver_invocation_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "wired_steady", "--seed", "7", "--quick", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {
        entry["name"] for entry in report.load_benchmark_json()["end_to_end"]}


# ---------------------------------------------------------------------- compare
def entry(name, values):
    return report.metric(name, values)


@pytest.mark.parametrize("base, new, expected", [
    ([100, 101, 99, 100, 100], [100, 100, 101, 99, 100], "same"),
    ([100, 101, 99, 100, 100], [90, 91, 89, 90, 90], "worse"),
    ([100, 101, 99, 100, 100], [110, 111, 109, 110, 110], "better"),
    ([100, 120, 80, 100, 100], [97, 118, 79, 98, 96], "unresolved"),
    ([100, 120, 80, 100, 100], [140, 150, 130, 141, 139], "better"),
    ([100, 120, 80, 100, 100], [50, 60, 40, 51, 49], "worse"),
])
def test_compare_verdict_on_a_bounded_metric(base, new, expected):
    assert report.verdict("ops_per_s", entry("ops_per_s", base),
                          entry("ops_per_s", new)) == expected


def test_compare_verdicts_noisy_exact_and_small_setups():
    steady = entry("ops_per_s", [100, 101, 99, 100, 100])
    slower = entry("ops_per_s", [97, 98, 96, 97, 97])
    assert report.verdict("ops_per_s", steady, slower) == "same"
    assert report.verdict("ops_per_s", steady, steady, new_noisy=True) \
        == "unresolved"
    exact = entry("events_per_op", [1.5, 1.5, 1.5])
    assert report.verdict("events_per_op", exact, exact) == "same"
    assert report.verdict("events_per_op", exact,
                          entry("events_per_op", [1.5001] * 3)) == "worse"
    assert report.verdict("events_per_op", exact,
                          entry("events_per_op", [1.4] * 3)) == "better"
    # 20 ms -> 24 ms is +20% but inside the 5 ms absolute tolerance
    assert report.verdict("setup_s", entry("setup_s", [0.020] * 3),
                          entry("setup_s", [0.024] * 3)) == "same"
    assert report.verdict("setup_s", entry("setup_s", [1.0] * 3),
                          entry("setup_s", [1.2] * 3)) == "worse"


def suite_doc(ops, quick=False, digest="d"):
    return {"quick": quick, "results": {"w": {
        "seed": 1, "noisy": False, "sim_digest": digest,
        "metrics": {"ops_per_s": entry("ops_per_s", ops)}}}}


def test_compare_exit_status_and_quick_refusal(tmp_path, capsys):
    base, worse = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(suite_doc([100, 101, 99])))
    worse.write_text(json.dumps(suite_doc([80, 81, 79])))
    assert run.main(["--compare", str(base), str(base)]) == 0
    assert run.main(["--compare", str(base), str(worse)]) == 1
    assert "worse" in capsys.readouterr().out
    quick = tmp_path / "q.json"
    quick.write_text(json.dumps(suite_doc([100, 101, 99], quick=True)))
    assert run.main(["--compare", str(base), str(quick)]) == 2
    changed = tmp_path / "c.json"
    changed.write_text(json.dumps(suite_doc([100, 101, 99], digest="e")))
    assert run.main(["--compare", str(base), str(changed)]) == 1


# ---------------------------------------------------------------------- determinism
def test_digest_is_stable_across_pythonhashseed():
    digests = set()
    for hashseed in ("0", "1", "4242"):
        out = os.path.join(report.OUT_DIR, "test-digest-%s.json" % hashseed)
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             "intersite_churn", "--quick", "--out", out],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        with open(out) as handle:
            digests.add(json.load(handle)["sim_digest"])
        os.remove(out)
    assert len(digests) == 1


def test_recorded_digests_cover_the_default_seeds():
    for workload in workloads.WORKLOADS.values():
        for quick in (False, True):
            assert run.recorded_digest(workload.name, workload.default_seed,
                                       quick), workload.name
