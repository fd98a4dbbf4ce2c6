"""Unit tests for the bench-trajectory regression gate."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "check_trajectory",
    os.path.join(REPO_ROOT, "benchmarks", "check_trajectory.py"),
)
check_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_trajectory)


def _row(fastpath_env=False, **benches):
    return {"fastpath_env": fastpath_env, "benches": benches}


def _write(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 2, "rows": rows}))
    return str(path)


def test_speedup_regression_detected():
    previous = _row(storm={"speedup": 8.0})
    newest = _row(storm={"speedup": 5.0})
    regressions = check_trajectory.compare_rows(previous, newest)
    assert regressions == [("storm.speedup", 8.0, 5.0)]
    # Within tolerance: 25% lower than 8.0 is the 6.0 floor.
    assert not check_trajectory.compare_rows(previous,
                                             _row(storm={"speedup": 6.5}))


def test_sim_delay_regression_is_lower_better():
    previous = _row(storm={"after": {"roam_delay_p99_s": 0.004}})
    newest = _row(storm={"after": {"roam_delay_p99_s": 0.010}})
    regressions = check_trajectory.compare_rows(previous, newest)
    assert [r[0] for r in regressions] == ["storm.after.roam_delay_p99_s"]
    improved = _row(storm={"after": {"roam_delay_p99_s": 0.002}})
    assert not check_trajectory.compare_rows(previous, improved)


def test_wallclock_rates_gated_only_on_request():
    previous = _row(fwd={"forwarded_pkts_per_s": 1e6})
    newest = _row(fwd={"forwarded_pkts_per_s": 1e5})
    assert not check_trajectory.compare_rows(previous, newest)
    gated = check_trajectory.compare_rows(previous, newest, wallclock=True)
    assert [r[0] for r in gated] == ["fwd.forwarded_pkts_per_s"]


def test_new_and_removed_benches_skipped():
    previous = _row(old_bench={"speedup": 4.0})
    newest = _row(new_bench={"speedup": 1.0})
    assert not check_trajectory.compare_rows(previous, newest)


def test_check_file_compares_same_env_rows(tmp_path, capsys):
    rows = [
        _row(fastpath_env=False, storm={"speedup": 8.0}),
        _row(fastpath_env=True, storm={"speedup": 9.0}),
        _row(fastpath_env=False, storm={"speedup": 2.0}),
    ]
    path = _write(tmp_path, "BENCH_test.json", rows)
    regressions = check_trajectory.check_file(path)
    # Newest (env=False) compared against the first row, not the env=True one.
    assert [(r[1], r[2]) for r in regressions] == [(8.0, 2.0)]
    assert check_trajectory.main([path]) == 1


def test_check_file_gates_every_env_group(tmp_path):
    # CI appends an off-row then an on-row; a regression in the off-row
    # must be caught even though it is not the file's newest row.
    rows = [
        _row(fastpath_env=False, storm={"speedup": 8.0}),
        _row(fastpath_env=True, storm={"speedup": 9.0}),
        _row(fastpath_env=False, storm={"speedup": 2.0}),
        _row(fastpath_env=True, storm={"speedup": 9.1}),
    ]
    path = _write(tmp_path, "BENCH_both.json", rows)
    regressions = check_trajectory.check_file(path)
    assert [(r[1], r[2]) for r in regressions] == [(8.0, 2.0)]
    assert check_trajectory.main([path]) == 1


def test_single_row_and_schema1_files_pass(tmp_path):
    path = _write(tmp_path, "BENCH_single.json",
                  [_row(storm={"speedup": 3.0})])
    assert check_trajectory.check_file(path) == []
    legacy = tmp_path / "BENCH_legacy.json"
    legacy.write_text(json.dumps({
        "schema": 1, "fastpath_env": False, "benches": {"b": {"speedup": 2}},
    }))
    assert check_trajectory.check_file(str(legacy)) == []
    assert check_trajectory.main([path, str(legacy)]) == 0


def test_recording_a_row_is_opt_in(tmp_path):
    """A plain bench session leaves ``BENCH_*.json`` byte-identical;
    only ``REPRO_BENCH_RECORD=1`` appends a row (tier-1 must not dirty
    the tree).  Runs the real conftest on a copy of the directory."""
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    shutil.copy(os.path.join(REPO_ROOT, "benchmarks", "conftest.py"), bench_dir)
    _write(bench_dir, "BENCH_ctrlplane.json", [_row(storm={"speedup": 8.0})])
    (bench_dir / "test_probe.py").write_text(
        "def test_probe(trajectory):\n"
        "    trajectory('probe', {'speedup': 2.0})\n")
    tracked = bench_dir / "BENCH_ctrlplane.json"
    before = tracked.read_bytes()

    def session(**extra_env):
        env = {key: value for key, value in os.environ.items()
               if key != "REPRO_BENCH_RECORD"}
        env.update(extra_env)
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(bench_dir)],
            cwd=str(tmp_path), env=env, check=True, capture_output=True)

    session()
    assert tracked.read_bytes() == before
    session(REPRO_BENCH_RECORD="1")
    rows_before = json.loads(before)["rows"]
    rows_after = json.loads(tracked.read_text())["rows"]
    assert len(rows_after) == len(rows_before) + 1
    assert rows_after[:-1] == rows_before
    assert rows_after[-1]["benches"] == {"probe": {"speedup": 2.0}}
