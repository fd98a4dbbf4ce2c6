"""Unit tests for the edge map-cache."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.types import GroupId, VNId
from repro.lisp import MapCache
from repro.net.addresses import IPv4Address, MacAddress, Prefix

VN = VNId(10)


@pytest.fixture
def cache(sim):
    return MapCache(sim, default_ttl=100.0, negative_ttl=10.0)


def _eid(text="10.0.0.5/32"):
    return Prefix.parse(text)


def _rloc(text="192.168.0.1"):
    return IPv4Address.parse(text)


class TestInstallLookup:
    def test_install_and_lookup(self, cache):
        assert cache.install(VN, _eid(), _rloc(), group=GroupId(7))
        entry = cache.lookup(VN, IPv4Address.parse("10.0.0.5"))
        assert entry is not None and not entry.negative
        assert str(entry.rloc) == "192.168.0.1"
        assert cache.hits == 1

    def test_miss_counted(self, cache):
        assert cache.lookup(VN, IPv4Address.parse("10.0.0.5")) is None
        assert cache.misses == 1

    def test_vn_isolation(self, cache):
        cache.install(VN, _eid(), _rloc())
        assert cache.lookup(VNId(99), IPv4Address.parse("10.0.0.5")) is None

    def test_eid_must_be_prefix(self, cache):
        with pytest.raises(ConfigurationError):
            cache.install(VN, "10.0.0.5", _rloc())

    def test_stale_version_rejected(self, cache):
        cache.install(VN, _eid(), _rloc("192.168.0.2"), version=5)
        assert not cache.install(VN, _eid(), _rloc("192.168.0.1"), version=3)
        entry = cache.lookup(VN, IPv4Address.parse("10.0.0.5"))
        assert str(entry.rloc) == "192.168.0.2"

    def test_newer_version_overwrites(self, cache):
        cache.install(VN, _eid(), _rloc("192.168.0.1"), version=1)
        assert cache.install(VN, _eid(), _rloc("192.168.0.2"), version=2)
        entry = cache.lookup(VN, IPv4Address.parse("10.0.0.5"))
        assert str(entry.rloc) == "192.168.0.2"

    def test_mac_entries(self, cache, sim):
        mac = MacAddress.parse("02:00:00:00:00:01")
        cache.install(VN, mac.to_prefix(), _rloc())
        assert cache.lookup(VN, mac) is not None


class TestTtl:
    def test_expiry_on_lookup(self, cache, sim):
        cache.install(VN, _eid(), _rloc())
        sim.run(until=150.0)
        assert cache.lookup(VN, IPv4Address.parse("10.0.0.5")) is None
        assert cache.expirations == 1

    def test_custom_ttl(self, cache, sim):
        cache.install(VN, _eid(), _rloc(), ttl=1000.0)
        sim.run(until=150.0)
        assert cache.lookup(VN, IPv4Address.parse("10.0.0.5")) is not None

    def test_sweep_removes_expired(self, cache, sim):
        cache.install(VN, _eid("10.0.0.1/32"), _rloc())
        cache.install(VN, _eid("10.0.0.2/32"), _rloc(), ttl=1000.0)
        sim.run(until=150.0)
        assert cache.sweep() == 1
        assert len(cache) == 1

    def test_len_counts_live_positive_only(self, cache, sim):
        cache.install(VN, _eid("10.0.0.1/32"), _rloc())
        cache.install_negative(VN, _eid("10.0.0.2/32"))
        assert len(cache) == 1


class TestNegative:
    def test_negative_entry_returned(self, cache):
        cache.install_negative(VN, _eid())
        entry = cache.lookup(VN, IPv4Address.parse("10.0.0.5"))
        assert entry is not None and entry.negative

    def test_negative_expires_fast(self, cache, sim):
        cache.install_negative(VN, _eid())
        sim.run(until=15.0)
        assert cache.lookup(VN, IPv4Address.parse("10.0.0.5")) is None

    def test_positive_replaces_negative(self, cache):
        cache.install_negative(VN, _eid())
        cache.install(VN, _eid(), _rloc(), version=1)
        entry = cache.lookup(VN, IPv4Address.parse("10.0.0.5"))
        assert not entry.negative

    def test_negative_replaces_positive_and_its_rloc_count(self, cache):
        cache.install(VN, _eid(), _rloc())
        cache.install_negative(VN, _eid())
        assert cache.lookup(VN, IPv4Address.parse("10.0.0.5")).negative
        assert len(cache) == 0
        # The displaced positive entry left the per-RLOC index too.
        assert cache._rloc_counts[(int(VN), "ipv4")] == {}
        assert cache.invalidate_rloc(_rloc()) == 0


class TestInvalidation:
    def test_invalidate_exact(self, cache):
        cache.install(VN, _eid(), _rloc())
        assert cache.invalidate(VN, _eid())
        assert cache.lookup(VN, IPv4Address.parse("10.0.0.5")) is None
        assert not cache.invalidate(VN, _eid())

    def test_invalidate_rloc_bulk(self, cache):
        victim = _rloc("192.168.0.9")
        cache.install(VN, _eid("10.0.0.1/32"), victim)
        cache.install(VN, _eid("10.0.0.2/32"), victim)
        cache.install(VN, _eid("10.0.0.3/32"), _rloc("192.168.0.1"))
        assert cache.invalidate_rloc(victim) == 2
        assert len(cache) == 1

    def test_occupancy_by_family(self, cache):
        cache.install(VN, _eid(), _rloc())
        mac = MacAddress.parse("02:00:00:00:00:01")
        cache.install(VN, mac.to_prefix(), _rloc())
        assert cache.occupancy(family="ipv4") == 1
        assert cache.occupancy(family="mac") == 1
        assert cache.occupancy() == 2

    def test_entries_iteration(self, cache):
        cache.install(VN, _eid(), _rloc())
        cache.install_negative(VN, _eid("10.0.0.9/32"))
        assert len(list(cache.entries())) == 1
        assert len(list(cache.entries(include_negative=True))) == 2


class TestLookupFastPath:
    """Memoized trie resolution: repeat lookups on one flow stay correct
    across installs, invalidations and expiry."""

    def test_repeat_lookup_hits_the_hot_entry(self, cache):
        cache.install(VN, _eid(), _rloc())
        addr = IPv4Address.parse("10.0.0.5")
        first = cache.lookup(VN, addr)
        second = cache.lookup(VN, addr)
        assert second is first
        assert cache.hits == 2

    def test_more_specific_install_overrides_hot_entry(self, cache):
        cache.install(VN, Prefix.parse("10.0.0.0/24"), _rloc("192.168.0.1"))
        addr = IPv4Address.parse("10.0.0.5")
        assert cache.lookup(VN, addr).rloc == _rloc("192.168.0.1")
        # A more specific prefix changes the longest-prefix answer; a
        # repeat lookup must not keep serving the /24.
        cache.install(VN, _eid("10.0.0.5/32"), _rloc("192.168.0.2"))
        assert cache.lookup(VN, addr).rloc == _rloc("192.168.0.2")

    def test_invalidate_clears_hot_entry(self, cache):
        cache.install(VN, _eid(), _rloc())
        addr = IPv4Address.parse("10.0.0.5")
        assert cache.lookup(VN, addr) is not None
        cache.invalidate(VN, _eid())
        assert cache.lookup(VN, addr) is None

    def test_hot_entry_expires_like_any_other(self, cache):
        cache.install(VN, _eid(), _rloc(), ttl=10.0)
        addr = IPv4Address.parse("10.0.0.5")
        assert cache.lookup(VN, addr) is not None
        cache.sim.run(until=11.0)
        assert cache.lookup(VN, addr) is None
        assert cache.expirations == 1


class TestSweepShortCircuit:
    """The soonest-expiry / RLOC indices behind sweep + invalidate_rloc."""

    def test_sweep_skips_tries_with_nothing_expiring(self, cache):
        for i in range(1, 6):
            cache.install(VN, _eid("10.0.0.%d/32" % i), _rloc(), ttl=50.0)
        cache.sim.run(until=10.0)
        assert cache.sweep() == 0
        assert len(cache) == 5
        cache.sim.run(until=60.0)
        assert cache.sweep() == 5
        assert len(cache) == 0
        # A sweep after everything is gone is a no-op again.
        assert cache.sweep() == 0

    def test_sweep_tracks_next_soonest_expiry(self, cache):
        cache.install(VN, _eid("10.0.0.1/32"), _rloc(), ttl=10.0)
        cache.install(VN, _eid("10.0.0.2/32"), _rloc(), ttl=30.0)
        cache.sim.run(until=15.0)
        assert cache.sweep() == 1
        cache.sim.run(until=31.0)
        assert cache.sweep() == 1

    def test_invalidate_rloc_skips_unrelated_tries(self, cache):
        a = _rloc("192.168.0.1")
        b = _rloc("192.168.0.2")
        cache.install(VN, _eid("10.0.0.1/32"), a)
        cache.install(VN, _eid("10.0.0.2/32"), b)
        mac = MacAddress(0x02_00_00_00_00_01).to_prefix()
        cache.install(VN, mac, b)
        assert cache.invalidate_rloc(a) == 1
        assert cache.invalidate_rloc(a) == 0     # index says: nothing left
        assert cache.invalidate_rloc(b) == 2
        assert len(cache) == 0

    def test_rloc_index_survives_replacement(self, cache):
        a = _rloc("192.168.0.1")
        b = _rloc("192.168.0.2")
        cache.install(VN, _eid(), a)
        cache.install(VN, _eid(), b, version=2)  # same EID moves to b
        assert cache.invalidate_rloc(a) == 0
        assert cache.invalidate_rloc(b) == 1
