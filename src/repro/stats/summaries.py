"""Summary statistics: percentiles, boxplots, CDFs, time series."""

from __future__ import annotations

import hashlib
import json

from repro.core.errors import ConfigurationError


def ledger_digest(ledger):
    """Stable hex digest of a counter ledger (the determinism lane's unit).

    Canonical JSON with sorted keys, so the digest depends on the
    ledger's content only — never on dict insertion order.
    """
    payload = json.dumps(ledger, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def mean(samples):
    samples = list(samples)
    if not samples:
        raise ConfigurationError("mean of empty sample set")
    return sum(samples) / len(samples)


def percentile(samples, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    data = sorted(samples)
    if not data:
        raise ConfigurationError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ConfigurationError("percentile q=%r out of [0, 100]" % q)
    if len(data) == 1:
        return data[0]
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    fraction = position - low
    return data[low] + (data[high] - data[low]) * fraction


class BoxplotStats:
    """The five-plus-two numbers a boxplot draws.

    Whiskers follow the paper's figures (95% band): low/high whiskers at
    the 2.5th and 97.5th percentiles.
    """

    __slots__ = ("minimum", "whisker_low", "q1", "median", "q3",
                 "whisker_high", "maximum", "count", "mean")

    def __init__(self, samples, whisker_band=95.0):
        data = sorted(samples)
        if not data:
            raise ConfigurationError("boxplot of empty sample set")
        tail = (100.0 - whisker_band) / 2.0
        self.minimum = data[0]
        self.maximum = data[-1]
        self.whisker_low = percentile(data, tail)
        self.q1 = percentile(data, 25)
        self.median = percentile(data, 50)
        self.q3 = percentile(data, 75)
        self.whisker_high = percentile(data, 100.0 - tail)
        self.count = len(data)
        self.mean = sum(data) / len(data)

    def as_dict(self):
        return {
            "min": self.minimum,
            "p2.5": self.whisker_low,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "p97.5": self.whisker_high,
            "max": self.maximum,
            "mean": self.mean,
            "count": self.count,
        }

    def __repr__(self):
        return "BoxplotStats(median=%.4g, iqr=[%.4g, %.4g], n=%d)" % (
            self.median, self.q1, self.q3, self.count
        )


def boxplot(samples, whisker_band=95.0):
    return BoxplotStats(samples, whisker_band=whisker_band)


def cdf_points(samples, num_points=100):
    """Empirical CDF as (value, fraction<=value) pairs."""
    data = sorted(samples)
    if not data:
        raise ConfigurationError("cdf of empty sample set")
    points = []
    n = len(data)
    if num_points >= n:
        for index, value in enumerate(data):
            points.append((value, (index + 1) / n))
        return points
    step = n / num_points
    position = step
    while position <= n:
        index = min(int(round(position)) - 1, n - 1)
        points.append((data[index], (index + 1) / n))
        position += step
    if points[-1][1] < 1.0:
        points.append((data[-1], 1.0))
    return points


def relative_to_min(samples):
    """Normalize samples to their minimum (the paper's normalization)."""
    data = list(samples)
    if not data:
        raise ConfigurationError("relative_to_min of empty sample set")
    floor = min(data)
    if floor <= 0:
        raise ConfigurationError("relative_to_min needs positive samples")
    return [value / floor for value in data]


class TimeSeries:
    """Timestamped samples with windowed aggregation (fig. 9 plumbing)."""

    def __init__(self):
        self._times = []
        self._values = []

    def __len__(self):
        return len(self._times)

    def append(self, time, value):
        if self._times and time < self._times[-1]:
            raise ConfigurationError("time series must be appended in order")
        self._times.append(time)
        self._values.append(value)

    def times(self):
        return list(self._times)

    def values(self):
        return list(self._values)

    def window_mean(self, start, end):
        """Mean of samples with start <= t < end (None if empty)."""
        window = [
            value for time, value in zip(self._times, self._values)
            if start <= time < end
        ]
        if not window:
            return None
        return sum(window) / len(window)

    def mean_where(self, predicate):
        """Mean over samples whose *time* satisfies the predicate."""
        window = [
            value for time, value in zip(self._times, self._values)
            if predicate(time)
        ]
        if not window:
            return None
        return sum(window) / len(window)

    def overall_mean(self):
        if not self._values:
            return None
        return sum(self._values) / len(self._values)

    def resample_hourly(self):
        """(hour index, value) pairs assuming time is in seconds."""
        return [(t / 3600.0, v) for t, v in zip(self._times, self._values)]
