"""Identifier types used across the SDA fabric.

The paper (sec. 3.2.1) defines two segmentation identifiers:

* **VN** (Virtual Network) — a 24-bit identifier carried in the VXLAN VNI
  field, providing "macro" segmentation (isolated routing domains).
* **GroupId** (a.k.a. Scalable Group Tag, SGT) — a 16-bit identifier carried
  in the VXLAN-GPO Group Policy ID field, providing "micro" segmentation
  inside a VN.

Both are ``int`` subclasses that check their range once, at construction.
Everything else is plain ``int``: an id hashes and compares equal to the
integer it holds, so ``VNId(5) == GroupId(5) == 5`` and a table keyed by
one answers a lookup by any of them.  The per-packet path (megaflow keys,
VRF, ACL and map-cache lookups) therefore uses ids as keys directly and
runs no Python code for them.  What the types still give is the range
check and a ``repr`` that names the kind (``VNId(5)``); keeping a VN out
of a group field is the caller's job, as it is for any other ``int``.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError

VN_BITS = 24
GROUP_BITS = 16
MAX_VN = (1 << VN_BITS) - 1
MAX_GROUP = (1 << GROUP_BITS) - 1


class _BoundedId(int):
    """An integer identifier constrained to ``[0, _max_value]``.

    No instance attributes (``__slots__ = ()``), so an id is as
    immutable as the ``int`` it is.
    """

    __slots__ = ()

    _max_value = 0
    _label = "id"

    def __new__(cls, value):
        self = int.__new__(cls, value)
        if not 0 <= self <= cls._max_value:
            raise ConfigurationError(
                "%s %d out of range [0, %d]" % (cls._label, self, cls._max_value)
            )
        return self

    def __repr__(self):
        return "%s(%d)" % (type(self).__name__, self)


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
