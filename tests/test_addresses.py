"""Unit tests for address types and prefixes."""

import pytest

from repro.core.errors import ConfigurationError
from repro.net.addresses import (
    IPv4Address,
    IPv6Address,
    MacAddress,
    Prefix,
    ip_address,
)


class TestIPv4:
    def test_parse_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"):
            assert str(IPv4Address.parse(text)) == text

    def test_parse_invalid(self):
        for text in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"):
            with pytest.raises(ConfigurationError):
                IPv4Address.parse(text)

    def test_value_range(self):
        with pytest.raises(ConfigurationError):
            IPv4Address(1 << 32)
        with pytest.raises(ConfigurationError):
            IPv4Address(-1)

    def test_bytes_roundtrip(self):
        addr = IPv4Address.parse("10.20.30.40")
        assert IPv4Address.from_bytes(addr.to_bytes()) == addr

    def test_bit_indexing_msb_first(self):
        addr = IPv4Address.parse("128.0.0.1")
        assert addr.bit(0) == 1
        assert addr.bit(1) == 0
        assert addr.bit(31) == 1

    def test_equality_and_hash(self):
        a = IPv4Address.parse("10.0.0.1")
        b = IPv4Address.parse("10.0.0.1")
        assert a == b and hash(a) == hash(b)
        assert a != IPv4Address.parse("10.0.0.2")

    def test_families_never_equal(self):
        v4 = IPv4Address(1)
        mac = MacAddress(1)
        assert v4 != mac

    def test_immutable(self):
        addr = IPv4Address(1)
        with pytest.raises(AttributeError):
            addr.value = 5

    def test_ordering(self):
        assert IPv4Address(1) < IPv4Address(2)


class TestIPv6:
    def test_parse_full_form(self):
        addr = IPv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert str(addr) == "2001:db8::1"

    def test_parse_compressed(self):
        assert int(IPv6Address.parse("::1")) == 1
        assert int(IPv6Address.parse("::")) == 0
        assert str(IPv6Address.parse("fe80::1")) == "fe80::1"

    def test_double_compression_rejected(self):
        with pytest.raises(ConfigurationError):
            IPv6Address.parse("1::2::3")

    def test_invalid_group(self):
        with pytest.raises(ConfigurationError):
            IPv6Address.parse("2001:db8::zzzz")

    def test_too_many_groups(self):
        with pytest.raises(ConfigurationError):
            IPv6Address.parse("1:2:3:4:5:6:7:8:9")

    def test_bytes_roundtrip(self):
        addr = IPv6Address.parse("2001:db8::42")
        assert IPv6Address.from_bytes(addr.to_bytes()) == addr

    def test_str_compresses_longest_zero_run(self):
        addr = IPv6Address.parse("1:0:0:2:0:0:0:3")
        assert str(addr) == "1:0:0:2::3"


class TestMac:
    def test_parse_roundtrip(self):
        assert str(MacAddress.parse("AA:BB:CC:DD:EE:FF")) == "aa:bb:cc:dd:ee:ff"

    def test_invalid(self):
        for text in ("aa:bb:cc:dd:ee", "aa:bb:cc:dd:ee:ff:00", "gg:bb:cc:dd:ee:ff"):
            with pytest.raises(ConfigurationError):
                MacAddress.parse(text)

    def test_broadcast_flag(self):
        assert MacAddress((1 << 48) - 1).is_broadcast
        assert not MacAddress(1).is_broadcast

    def test_multicast_flag(self):
        assert MacAddress.parse("01:00:5e:00:00:01").is_multicast
        assert not MacAddress.parse("00:00:5e:00:00:01").is_multicast


def test_ip_address_dispatch():
    assert ip_address("10.0.0.1").family == "ipv4"
    assert ip_address("::1").family == "ipv6"


class TestPrefix:
    def test_parse_and_str(self, pfx):
        assert str(pfx("10.0.0.0/8")) == "10.0.0.0/8"

    def test_canonicalizes_host_bits(self, pfx):
        assert str(pfx("10.1.2.3/8")) == "10.0.0.0/8"

    def test_bare_address_is_host_prefix(self, pfx):
        prefix = pfx("10.1.2.3")
        assert prefix.length == 32 and prefix.is_host

    def test_invalid_length(self, ip):
        with pytest.raises(ConfigurationError):
            Prefix(ip("10.0.0.0"), 33)
        with pytest.raises(ConfigurationError):
            Prefix(ip("10.0.0.0"), -1)

    def test_contains_address(self, pfx, ip):
        prefix = pfx("10.1.0.0/16")
        assert prefix.contains(ip("10.1.200.3"))
        assert not prefix.contains(ip("10.2.0.1"))

    def test_contains_prefix(self, pfx):
        outer = pfx("10.0.0.0/8")
        assert outer.contains(pfx("10.1.0.0/16"))
        assert not pfx("10.1.0.0/16").contains(outer)

    def test_contains_cross_family_false(self, pfx):
        v4 = pfx("10.0.0.0/8")
        v6 = Prefix(IPv6Address.parse("::"), 0)
        assert not v4.contains(v6)

    def test_default_route(self, pfx, ip):
        default = pfx("0.0.0.0/0")
        assert default.is_default
        assert default.contains(ip("203.0.113.9"))

    def test_hosts_generator(self, pfx):
        hosts = list(pfx("10.0.0.0/29").hosts(3, offset=1))
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_hosts_overflow(self, pfx):
        with pytest.raises(ConfigurationError):
            list(pfx("10.0.0.0/30").hosts(10))

    def test_mac_prefix(self):
        mac = MacAddress.parse("aa:bb:cc:dd:ee:ff")
        prefix = mac.to_prefix()
        assert prefix.length == 48 and prefix.family == "mac"
        assert prefix.contains(mac)

    def test_equality_hash(self, pfx):
        assert pfx("10.0.0.0/8") == pfx("10.3.2.1/8")
        assert hash(pfx("10.0.0.0/8")) == hash(pfx("10.3.2.1/8"))
        assert pfx("10.0.0.0/8") != pfx("10.0.0.0/9")

    def test_prefix_immutable(self, pfx):
        prefix = pfx("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.length = 9

    def test_hash_is_fixed_at_construction_on_every_path(self, pfx):
        # The hash sits in a read-only slot; the ``to_prefix`` shortcut
        # bypasses ``__init__`` and must agree with it, or one EID would
        # land in two dict buckets.
        for addr in (IPv4Address.parse("10.1.2.3"), MacAddress(5),
                     IPv6Address.parse("2001:db8::7")):
            via_init = Prefix(addr, addr.bits)
            shortcut = addr.to_prefix()
            assert shortcut == via_init and hash(shortcut) == hash(via_init)
            assert {via_init: 1}[shortcut] == 1
            assert hash(addr) == hash(type(addr)(addr.value))
            with pytest.raises(AttributeError):
                addr._hash = 0
            with pytest.raises(AttributeError):
                shortcut._hash = 0
        assert hash(IPv4Address(1)) != hash(MacAddress(1))
        assert hash(pfx("10.0.0.0/8")) != hash(pfx("10.0.0.0/9"))
