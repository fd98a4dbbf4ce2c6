"""Operational tooling (scenario report, trace schema checker).

Unlike :mod:`repro.experiments`, nothing here reproduces a paper figure;
these are the scripts CI runs to keep the reproduction trustworthy:
:mod:`repro.tools.report` prints the canonical scenarios' ledger digests,
which must be identical across processes and ``PYTHONHASHSEED`` values,
and exports their traces, metrics and profiles; and
:mod:`repro.tools.check_trace` validates those traces.
"""
