"""Declarative event-counter bundles shared by fabric devices.

Every router and server in the simulation exposes a block of integer
counters (packets in, drops by cause, control messages by type).  The
seed grew three hand-rolled variants of the same class; this module is
the single shape they all share: subclasses list their field names in
``FIELDS`` and get zero-initialisation, ``as_dict`` and ``reset`` for
free, so experiments can diff/aggregate any device's counters uniformly.

``METRIC_NAMES`` is a per-subclass map of legacy field name to its
normalized metric name (``wireless_in`` → ``wireless_packets_in``).  The
legacy names stay the real instance attributes, so hot paths and the
workload ledger digests are untouched; :meth:`metric_dict` exports under
the normalized spelling, which is what the metric registry enumerates.
A map that names an unknown field, or renames a field onto another real
field, raises ``TypeError`` when the subclass is defined.
"""

from __future__ import annotations


class Counters:
    """Base class for a fixed set of named integer counters.

    Subclasses declare ``FIELDS`` (a tuple of attribute names); instances
    start every field at zero.  Fields remain plain attributes, so hot
    paths keep doing ``counters.policy_drops += 1`` with no indirection.
    """

    FIELDS = ()

    #: legacy field -> normalized metric name (subclasses override);
    #: fields not listed here export under their own name unchanged
    METRIC_NAMES = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for field, metric in cls.METRIC_NAMES.items():
            if field not in cls.FIELDS:
                raise TypeError(
                    "%s.METRIC_NAMES maps unknown field %r"
                    % (cls.__name__, field)
                )
            if metric != field and metric in cls.FIELDS:
                raise TypeError(
                    "%s.METRIC_NAMES name %r shadows a real field"
                    % (cls.__name__, metric)
                )

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def as_dict(self):
        return {field: getattr(self, field) for field in self.FIELDS}

    def reset(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def metric_dict(self):
        """Like :meth:`as_dict`, but keyed by normalized metric names."""
        names = self.METRIC_NAMES
        return {
            names.get(field, field): getattr(self, field)
            for field in self.FIELDS
        }

    def __repr__(self):
        nonzero = ", ".join(
            "%s=%d" % (field, getattr(self, field))
            for field in self.FIELDS
            if getattr(self, field)
        )
        return "%s(%s)" % (type(self).__name__, nonzero or "all zero")
