"""Identifier types used across the SDA fabric.

The paper (sec. 3.2.1) defines two segmentation identifiers:

* **VN** (Virtual Network) — a 24-bit identifier carried in the VXLAN VNI
  field, providing "macro" segmentation (isolated routing domains).
* **GroupId** (a.k.a. Scalable Group Tag, SGT) — a 16-bit identifier carried
  in the VXLAN-GPO Group Policy ID field, providing "micro" segmentation
  inside a VN.

Both are modelled as small value classes wrapping an ``int`` with range
validation, so that a GroupId can never silently flow into a field expecting
a VN.  They are hashable, ordered and cheap.
"""

from __future__ import annotations

import functools

from repro.core.errors import ConfigurationError

VN_BITS = 24
GROUP_BITS = 16
MAX_VN = (1 << VN_BITS) - 1
MAX_GROUP = (1 << GROUP_BITS) - 1


@functools.total_ordering
class _BoundedId:
    """An immutable integer identifier constrained to ``[0, max_value]``."""

    __slots__ = ("_value",)

    _max_value = 0
    _label = "id"

    def __init__(self, value):
        value = int(value)
        if not 0 <= value <= self._max_value:
            raise ConfigurationError(
                "%s %d out of range [0, %d]" % (self._label, value, self._max_value)
            )
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def value(self):
        """The wrapped integer value."""
        return self._value

    def __int__(self):
        return self._value

    def __index__(self):
        return self._value

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, type(self)):
            return self._value < other._value
        if isinstance(other, int):
            return self._value < other
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self._value))

    def __repr__(self):
        return "%s(%d)" % (type(self).__name__, self._value)


class VNId(_BoundedId):
    """A 24-bit Virtual Network identifier (VXLAN VNI)."""

    __slots__ = ()
    _max_value = MAX_VN
    _label = "VN"


class GroupId(_BoundedId):
    """A 16-bit endpoint group identifier (Scalable Group Tag)."""

    __slots__ = ()
    _max_value = MAX_GROUP
    _label = "GroupId"


#: The default VN endpoints land in when the operator does not segment.
DEFAULT_VN = VNId(1)

#: Group assigned to traffic whose source group could not be determined.
UNKNOWN_GROUP = GroupId(0)


class EndpointId(str):
    """Unique endpoint identity as known to the policy server.

    This models the RADIUS identity (username, device certificate CN or MAC
    for MAB) — *not* the endpoint's IP, which is assigned later by DHCP.
    """

    __slots__ = ()
