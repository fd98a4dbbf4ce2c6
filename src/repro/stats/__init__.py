"""Statistics helpers for the experiment harness.

The paper reports boxplots (fig. 7), weekly time series (fig. 9), CDFs
(fig. 11) and permille rates (fig. 12); this package computes those
summaries from raw sample lists without any plotting dependency — the
benches print the numeric series the figures draw.
"""

from repro.stats.recorders import DelaySamples, HandoverRecorder
from repro.stats.summaries import (
    BoxplotStats,
    boxplot,
    cdf_points,
    percentile,
    ledger_digest,
    relative_to_min,
    mean,
    TimeSeries,
)

__all__ = [
    "BoxplotStats",
    "DelaySamples",
    "HandoverRecorder",
    "boxplot",
    "cdf_points",
    "ledger_digest",
    "percentile",
    "relative_to_min",
    "mean",
    "TimeSeries",
]
