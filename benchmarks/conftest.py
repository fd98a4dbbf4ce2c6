"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the rows/series the figure draws, so ``pytest benchmarks/
--benchmark-only -s`` doubles as the reproduction report generator.

Scenario benches (campus weeks, warehouse mobility) run the full
simulation once per round — they measure end-to-end reproduction cost and
assert the paper's qualitative findings; micro benches (trie, map-server)
use tight pytest-benchmark loops.

Two pieces of perf-tracking plumbing live here:

* the ``trajectory`` fixture collects machine-readable metrics from the
  perf benches; with ``REPRO_BENCH_RECORD=1`` (the CI ``fastpath-smoke``
  lane — a plain test run leaves the tracked files alone) a new **row**
  is appended at session end to
  ``benchmarks/BENCH_<file>.json`` (``ctrlplane`` by default; the
  data-plane benches record under ``dataplane``, the inter-site roaming
  bench under ``intersite``).  Each row is one session's metrics plus
  the fast-path env setting; the committed files therefore carry the
  perf trajectory across PRs, and ``benchmarks/check_trajectory.py``
  gates CI on the newest row not regressing against the previous
  same-env row (legacy schema-1 files are migrated to a first row);
* ``fastpath_flags`` reads ``REPRO_FASTPATH`` so the CI smoke lane can
  run the storm/signaling/dataplane benches with the batching/
  session-cache/megaflow/packet-train knobs both off
  (``REPRO_FASTPATH=0``, the default) and on (``REPRO_FASTPATH=1``) —
  a regression hiding behind any flag value cannot land silently.
"""

import json
import os

import pytest

#: file key -> {bench name -> metrics dict}, via the ``trajectory`` fixture.
_TRAJECTORY = {}

#: rows kept per BENCH file (oldest rows rotate out).
_MAX_ROWS = 40


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks which paper figure/table a bench regenerates"
    )


@pytest.fixture
def report():
    """Print helper that survives pytest's output capture settings."""
    def _print(text):
        print("\n" + text)
    return _print


def _env_on(name):
    return os.environ.get(name, "0").lower() not in ("0", "", "false", "off")


def fastpath_enabled():
    """True when the smoke lane asked for the fast-path flags on."""
    return _env_on("REPRO_FASTPATH")


@pytest.fixture
def fastpath_flags():
    """Fast-path knobs for workload profiles, env-driven."""
    on = fastpath_enabled()
    return {"batching": on, "session_cache": on, "megaflow": on,
            "packet_trains": on}


@pytest.fixture
def trajectory():
    """Record a bench's metrics into ``BENCH_<file>.json``."""
    def _record(name, metrics, file="ctrlplane"):
        _TRAJECTORY.setdefault(file, {})[name] = metrics
    return _record


def _load_rows(path):
    """Existing trajectory rows (schema-1 files become the first row)."""
    if not os.path.exists(path):
        return []
    try:
        with open(path) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return []
    if existing.get("schema") == 1:
        return [{
            "fastpath_env": existing.get("fastpath_env", False),
            "benches": existing.get("benches", {}),
        }]
    return list(existing.get("rows", []))


def pytest_sessionfinish(session, exitstatus):
    if not _env_on("REPRO_BENCH_RECORD"):
        return
    for file_key, benches in _TRAJECTORY.items():
        if not benches:
            continue
        path = os.path.join(os.path.dirname(__file__),
                            "BENCH_%s.json" % file_key)
        rows = _load_rows(path)
        rows.append({
            "fastpath_env": fastpath_enabled(),
            "benches": benches,
        })
        payload = {
            "schema": 2,
            "rows": rows[-_MAX_ROWS:],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
