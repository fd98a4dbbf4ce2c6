"""Cross-process determinism: digests survive PYTHONHASHSEED changes.

CI diffs ``python -m repro.tools.report`` output across hash seeds; this
test is the same gate in-repo, so a reintroduced ``hash()`` dependence
fails tier-1 before it ever reaches CI.  ``PYTHONHASHSEED`` is fixed at
interpreter startup, so the tool must run in subprocesses.  One run is
plain and the other carries the full observability bundle
(``--out-dir``), which must not move a counter either.

The digests are also pinned, so a deterministic behaviour change (an
``items()`` order slip, a reordered event) fails too, not only a
hash-seed dependence.  They are identical on CPython 3.9, 3.11 and 3.12.
To re-baseline on purpose, run
``PYTHONPATH=src python -m repro.tools.report 20.0``, paste its four
lines into ``PINNED`` and say in the commit why the simulated behaviour
changed.
"""

import json
import os
import subprocess
import sys

from repro.stats import ledger_digest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINNED = """\
wireless_campus 5643e4d534e978e8a355bbb7fbc872b577966e26dbe765221003155ef889db15
distributed_wireless_campus b7bbae843d85711baaab7fe2ed950dd13814df2088b752fd5672b2dc7f8d472c
chaos_campus b890c0b49f7f33928c26bab77ab2dcbf9f223c7d29a0988dad14f351f38f991f
overload_storm 73e17dca4a79f39ac8f1c3691e7ebc506d5aeb1d7608974b98df386061b67253
"""


def _run(hash_seed, *options):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.tools.report", "20.0", *options],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_digests_identical_across_hash_seeds(tmp_path):
    assert _run("1") == PINNED
    assert _run("31337", "--out-dir", str(tmp_path)) == PINNED
    # Each written ledger is the object its printed digest hashes.
    for line in PINNED.splitlines():
        name, digest = line.split()
        with open(tmp_path / ("%s_ledger.json" % name)) as handle:
            assert ledger_digest(json.load(handle)) == digest
