"""Validate exported observability trace files (the CI report lane's gate).

Two formats are checked, selected by file extension:

* ``*.jsonl`` — the span-per-line export of
  :meth:`repro.obs.trace.Tracer.export_jsonl`.  Every line must carry
  the full span schema (ids, name, device, sim-time bounds, attrs),
  span ids must be unique, and every parent reference must resolve to a
  span *in the same trace* — the causal-linkage property the tracing
  tentpole exists for.
* ``*.json`` — the Chrome ``trace_event`` export of
  :meth:`~repro.obs.trace.Tracer.export_chrome`; checked for the shape
  Perfetto / ``chrome://tracing`` require (``traceEvents`` list, ``X``
  events with numeric ``ts``/``dur`` and ``pid``/``tid``).

Usage::

    python -m repro.tools.check_trace trace.jsonl trace_chrome.json \
        [--min-spans N] [--min-traces N] [--min-sites N]

Exit status 0 when every file validates (and the thresholds hold), 1
otherwise, with one diagnostic line per problem.
"""

from __future__ import annotations

import argparse
import json
import sys

#: required span fields -> accepted types (None encoded separately).
_SPAN_FIELDS = {
    "trace_id": (int,),
    "span_id": (int,),
    "name": (str,),
    "device": (str,),
    "start_s": (int, float),
    "end_s": (int, float),
    "attrs": (dict,),
}


def check_spans(rows):
    """Validate parsed span dicts; returns a list of problem strings."""
    problems = []
    by_id = {}
    for index, row in enumerate(rows):
        where = "span %d" % index
        if not isinstance(row, dict):
            problems.append("%s: not an object" % where)
            continue
        for field, types in _SPAN_FIELDS.items():
            value = row.get(field)
            if not isinstance(value, types) or isinstance(value, bool):
                problems.append(
                    "%s: field %r missing or mistyped (%r)" % (where, field, value)
                )
        parent = row.get("parent_id")
        if parent is not None and not isinstance(parent, int):
            problems.append("%s: parent_id must be int or null" % where)
        span_id = row.get("span_id")
        if isinstance(span_id, int):
            if span_id in by_id:
                problems.append("%s: duplicate span_id %d" % (where, span_id))
            else:
                by_id[span_id] = row
        start, end = row.get("start_s"), row.get("end_s")
        if (
            isinstance(start, (int, float))
            and isinstance(end, (int, float))
            and end < start
        ):
            problems.append("%s: end_s < start_s" % where)
    # Causal linkage: every parent resolves, within the same trace.
    for index, row in enumerate(rows):
        parent = row.get("parent_id") if isinstance(row, dict) else None
        if parent is None:
            continue
        target = by_id.get(parent)
        if target is None:
            problems.append("span %d: parent_id %d unresolved" % (index, parent))
        elif target.get("trace_id") != row.get("trace_id"):
            problems.append(
                "span %d: parent %d belongs to another trace" % (index, parent)
            )
    return problems


def load_jsonl(path):
    rows = []
    problems = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError as exc:
                problems.append("line %d: bad JSON (%s)" % (lineno, exc))
    return rows, problems


def check_chrome(path):
    """Validate a Chrome ``trace_event`` JSON file; returns problems."""
    problems = []
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except ValueError as exc:
        return ["bad JSON (%s)" % exc]
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    complete = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append("event %d: not an object" % index)
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not isinstance(event.get("name"), str):
            problems.append("event %d: missing ph/name" % index)
            continue
        if ph == "X":
            complete += 1
            for field in ("ts", "dur"):
                if not isinstance(event.get(field), (int, float)):
                    problems.append("event %d: %r must be numeric" % (index, field))
            for field in ("pid", "tid"):
                if not isinstance(event.get(field), int):
                    problems.append("event %d: %r must be int" % (index, field))
    if not complete:
        problems.append("no complete ('X') events")
    return problems


def site_count(rows):
    """Distinct ``siteN.`` device prefixes seen across spans."""
    sites = set()
    for row in rows:
        device = row.get("device") if isinstance(row, dict) else None
        if isinstance(device, str) and device.startswith("site"):
            prefix = device.split(".", 1)[0]
            if prefix[4:].isdigit():
                sites.add(prefix)
    return len(sites)


def check_file(path, min_spans=0, min_traces=0, min_sites=0):
    """Validate one file; returns (span_count, problems)."""
    if path.endswith(".jsonl"):
        rows, problems = load_jsonl(path)
        problems += check_spans(rows)
        if len(rows) < min_spans:
            problems.append("%d spans < --min-spans %d" % (len(rows), min_spans))
        traces = {r.get("trace_id") for r in rows if isinstance(r, dict)}
        if min_traces and len(traces) < min_traces:
            problems.append("%d traces < --min-traces %d" % (len(traces), min_traces))
        if min_sites and site_count(rows) < min_sites:
            problems.append("%d sites < --min-sites %d" % (site_count(rows), min_sites))
        return len(rows), problems
    return 0, check_chrome(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="trace files (.jsonl/.json)")
    parser.add_argument("--min-spans", type=int, default=0)
    parser.add_argument("--min-traces", type=int, default=0)
    parser.add_argument(
        "--min-sites",
        type=int,
        default=0,
        help="require spans from this many distinct siteN. device prefixes",
    )
    args = parser.parse_args(argv)
    failed = False
    for path in args.files:
        spans, problems = check_file(
            path,
            min_spans=args.min_spans,
            min_traces=args.min_traces,
            min_sites=args.min_sites,
        )
        if problems:
            failed = True
            for problem in problems:
                print("%s: %s" % (path, problem))
        else:
            print("%s: ok (%s)" % (path, "%d spans" % spans if spans else "chrome"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
