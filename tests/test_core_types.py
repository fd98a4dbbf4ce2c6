"""Unit tests for core identifier types."""

import pytest

from repro.core import (
    ConfigurationError,
    DEFAULT_VN,
    GroupId,
    UNKNOWN_GROUP,
    VNId,
)
from repro.core.types import MAX_GROUP, MAX_VN


class TestVNId:
    def test_range(self):
        assert int(VNId(0)) == 0
        assert int(VNId(MAX_VN)) == MAX_VN
        with pytest.raises(ConfigurationError):
            VNId(MAX_VN + 1)
        with pytest.raises(ConfigurationError):
            VNId(-1)

    def test_equality_with_int(self):
        assert VNId(5) == 5
        assert VNId(5) == VNId(5)
        assert VNId(5) != VNId(6)

    def test_ordering(self):
        assert VNId(1) < VNId(2)
        assert VNId(3) < 4

    def test_hashes_and_compares_as_int(self):
        # Ids are ints: a table keyed by plain ints answers a lookup by
        # an id (and the reverse), so install and lookup sites never
        # have to agree on the key type for a hit.
        assert VNId(5) == 5 and hash(VNId(5)) == hash(5)
        assert {5: "x"}[VNId(5)] == "x"
        assert {VNId(5): "x"}[5] == "x"
        assert {(5, 7): "pair"}[(VNId(5), GroupId(7))] == "pair"
        assert isinstance(VNId(5), int) and isinstance(GroupId(5), int)

    def test_immutable(self):
        vn = VNId(5)
        with pytest.raises(AttributeError):
            vn.value = 6
        with pytest.raises(AttributeError):
            GroupId(5).anything = 1

    def test_no_python_level_dunders(self):
        # Hashing, comparing and int() run in C: the per-packet path
        # keys dicts with ids and must not enter Python code for them.
        for cls in (VNId, GroupId):
            for name in ("__eq__", "__hash__", "__int__", "__index__",
                         "__lt__"):
                assert getattr(cls, name) is getattr(int, name), name

    def test_index_protocol(self):
        assert list(range(10))[VNId(3)] == 3


class TestGroupId:
    def test_range(self):
        assert int(GroupId(MAX_GROUP)) == MAX_GROUP
        with pytest.raises(ConfigurationError):
            GroupId(MAX_GROUP + 1)
        with pytest.raises(ConfigurationError):
            GroupId(-1)

    def test_repr(self):
        assert repr(GroupId(7)) == "GroupId(7)"
        assert repr(VNId(5)) == "VNId(5)"
        assert "%d" % GroupId(7) == "7"


def test_well_known_values():
    assert int(DEFAULT_VN) == 1
    assert int(UNKNOWN_GROUP) == 0
