"""Address types: IPv4, IPv6, MAC, and prefixes over any of them.

The routing server indexes endpoints by *three* keys — IPv4, IPv6 and MAC
(paper sec. 4.1: "Each endpoint requires registering 3 routes (IPv4, IPv6
and MAC addresses)").  All three address families therefore share one
interface: a fixed ``bits`` width and an integer value, which is exactly
what the Patricia trie needs for longest-prefix matching.

These are deliberately small, immutable, interned-friendly value objects;
a campus simulation holds hundreds of thousands of them.
"""

from __future__ import annotations

import functools

from repro.core.errors import ConfigurationError


@functools.total_ordering
class _Address:
    """Base class: an unsigned integer in a fixed-width bit space."""

    #: ``value`` is a plain read-only slot (``__setattr__`` refuses
    #: writes), so the trie reads the int without a Python-level call.
    #: ``_hash`` is computed once: addresses are dict keys on every
    #: per-packet path (megaflow, attachments, reachability).
    __slots__ = ("value", "_hash")

    bits = 0
    family = "abstract"

    def __init__(self, value):
        value = int(value)
        if not 0 <= value < (1 << self.bits):
            raise ConfigurationError(
                "%s value %d out of %d-bit range" % (self.family, value, self.bits)
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((self.family, value)))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __int__(self):
        return self.value

    def __index__(self):
        return self.value

    def __eq__(self, other):
        return (
            isinstance(other, _Address)
            and self.family == other.family
            and self.value == other.value
        )

    def __lt__(self, other):
        if not isinstance(other, _Address):
            return NotImplemented
        return (self.family, self.value) < (other.family, other.value)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, str(self))

    # -- trie support --------------------------------------------------------
    def bit(self, index):
        """Return bit ``index`` counting from the most significant (0)."""
        return (self.value >> (self.bits - 1 - index)) & 1

    def to_prefix(self):
        """A host prefix (/bits) covering exactly this address.

        A valid address is its own canonical host prefix, so this skips
        ``Prefix.__init__``'s checks and shares ``self``.
        """
        prefix = Prefix.__new__(Prefix)
        object.__setattr__(prefix, "address", self)
        object.__setattr__(prefix, "length", self.bits)
        object.__setattr__(prefix, "_hash",
                           hash((self.family, self.value, self.bits)))
        return prefix


class IPv4Address(_Address):
    """A 32-bit IPv4 address."""

    __slots__ = ()
    bits = 32
    family = "ipv4"

    @classmethod
    def parse(cls, text):
        """Parse dotted-quad notation (``"10.1.2.3"``)."""
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise ConfigurationError("invalid IPv4 address: %r" % text)
        value = 0
        for part in parts:
            try:
                octet = int(part)
            except ValueError:
                raise ConfigurationError("invalid IPv4 address: %r" % text)
            if not 0 <= octet <= 255:
                raise ConfigurationError("invalid IPv4 octet in %r" % text)
            value = (value << 8) | octet
        return cls(value)

    def __str__(self):
        v = self.value
        return "%d.%d.%d.%d" % ((v >> 24) & 255, (v >> 16) & 255, (v >> 8) & 255, v & 255)

    def to_bytes(self):
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data):
        if len(data) != 4:
            raise ConfigurationError("IPv4 address needs 4 bytes, got %d" % len(data))
        return cls(int.from_bytes(data, "big"))


class IPv6Address(_Address):
    """A 128-bit IPv6 address.

    Parsing supports the common ``::`` zero-compression form; that is all
    the simulator needs (no zone ids, no embedded IPv4 notation).
    """

    __slots__ = ()
    bits = 128
    family = "ipv6"

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text.count("::") > 1:
            raise ConfigurationError("invalid IPv6 address: %r" % text)
        if "::" in text:
            head, tail = text.split("::")
            head_groups = head.split(":") if head else []
            tail_groups = tail.split(":") if tail else []
            missing = 8 - len(head_groups) - len(tail_groups)
            if missing < 1:
                raise ConfigurationError("invalid IPv6 address: %r" % text)
            groups = head_groups + ["0"] * missing + tail_groups
        else:
            groups = text.split(":")
        if len(groups) != 8:
            raise ConfigurationError("invalid IPv6 address: %r" % text)
        value = 0
        for group in groups:
            if not group or len(group) > 4:
                raise ConfigurationError("invalid IPv6 group in %r" % text)
            try:
                word = int(group, 16)
            except ValueError:
                raise ConfigurationError("invalid IPv6 group in %r" % text)
            value = (value << 16) | word
        return cls(value)

    def __str__(self):
        groups = [(self.value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
        # Find the longest run of zero groups for :: compression.
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, g in enumerate(groups):
            if g == 0:
                if run_start < 0:
                    run_start, run_len = i, 1
                else:
                    run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len >= 2:
            head = ":".join("%x" % g for g in groups[:best_start])
            tail = ":".join("%x" % g for g in groups[best_start + best_len:])
            return head + "::" + tail
        return ":".join("%x" % g for g in groups)

    def to_bytes(self):
        return self.value.to_bytes(16, "big")

    @classmethod
    def from_bytes(cls, data):
        if len(data) != 16:
            raise ConfigurationError("IPv6 address needs 16 bytes, got %d" % len(data))
        return cls(int.from_bytes(data, "big"))


class MacAddress(_Address):
    """A 48-bit MAC address."""

    __slots__ = ()
    bits = 48
    family = "mac"

    @classmethod
    def parse(cls, text):
        parts = text.strip().lower().split(":")
        if len(parts) != 6:
            raise ConfigurationError("invalid MAC address: %r" % text)
        value = 0
        for part in parts:
            if len(part) != 2:
                raise ConfigurationError("invalid MAC octet in %r" % text)
            try:
                octet = int(part, 16)
            except ValueError:
                raise ConfigurationError("invalid MAC octet in %r" % text)
            value = (value << 8) | octet
        return cls(value)

    def __str__(self):
        v = self.value
        return ":".join("%02x" % ((v >> (8 * i)) & 255) for i in range(5, -1, -1))

    def to_bytes(self):
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, data):
        if len(data) != 6:
            raise ConfigurationError("MAC address needs 6 bytes, got %d" % len(data))
        return cls(int.from_bytes(data, "big"))

    @property
    def is_broadcast(self):
        return self.value == (1 << 48) - 1

    @property
    def is_multicast(self):
        return bool((self.value >> 40) & 1)


_FAMILY_CLASSES = {cls.family: cls for cls in (IPv4Address, IPv6Address, MacAddress)}


def ip_address(text):
    """Parse either an IPv4 or IPv6 address from its text form."""
    if ":" in text:
        return IPv6Address.parse(text)
    return IPv4Address.parse(text)


@functools.total_ordering
class Prefix:
    """An address prefix: the top ``length`` bits of an address.

    Works for any address family — the trie and the routing server treat
    MAC "prefixes" as /48 host entries, matching the paper's per-endpoint
    MAC registrations.
    """

    #: read-only slots, like ``_Address.value`` and ``_Address._hash``
    __slots__ = ("address", "length", "_hash")

    def __init__(self, address, length):
        if not isinstance(address, _Address):
            raise ConfigurationError("prefix needs an address, got %r" % (address,))
        length = int(length)
        if not 0 <= length <= address.bits:
            raise ConfigurationError(
                "prefix length %d invalid for %s" % (length, address.family)
            )
        # Canonicalize: zero the host bits (an address that already is
        # canonical is shared, not copied).
        host_bits = address.bits - length
        canonical = (address.value >> host_bits) << host_bits
        if canonical != address.value:
            address = type(address)(canonical)
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_hash",
                           hash((address.family, address.value, length)))

    def __setattr__(self, name, value):
        raise AttributeError("Prefix is immutable")

    @classmethod
    def parse(cls, text):
        """Parse ``"10.0.0.0/8"`` / ``"2001:db8::/32"`` / bare addresses.

        A bare address becomes a host prefix.
        """
        if "/" in text:
            addr_text, length_text = text.rsplit("/", 1)
            try:
                length = int(length_text)
            except ValueError:
                raise ConfigurationError("invalid prefix length in %r" % text)
            return cls(ip_address(addr_text), length)
        address = ip_address(text)
        return cls(address, address.bits)

    @property
    def family(self):
        return self.address.family

    @property
    def bits(self):
        return self.address.bits

    def bit(self, index):
        return self.address.bit(index)

    def contains(self, other):
        """True if ``other`` (address or prefix) falls inside this prefix."""
        if isinstance(other, Prefix):
            if other.family != self.family or other.length < self.length:
                return False
            other_addr = other.address
        else:
            if other.family != self.family:
                return False
            other_addr = other
        shift = self.address.bits - self.length
        if shift == self.address.bits:
            return True  # default route
        return (other_addr.value >> shift) == (self.address.value >> shift)

    @property
    def is_host(self):
        return self.length == self.address.bits

    @property
    def is_default(self):
        return self.length == 0

    def hosts(self, count, offset=1):
        """Yield ``count`` host addresses inside this prefix.

        Starts at ``offset`` above the network address — handy for giving
        .1 to the gateway and starting the DHCP pool at .10, say.
        """
        base = self.address.value
        space = 1 << (self.address.bits - self.length)
        if offset + count > space:
            raise ConfigurationError(
                "prefix %s cannot hold %d hosts at offset %d" % (self, count, offset)
            )
        family_cls = type(self.address)
        for i in range(count):
            yield family_cls(base + offset + i)

    def __eq__(self, other):
        return (
            isinstance(other, Prefix)
            and self.family == other.family
            and self.length == other.length
            and self.address.value == other.address.value
        )

    def __lt__(self, other):
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.family, self.address.value, self.length) < (
            other.family,
            other.address.value,
            other.length,
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "%s/%d" % (self.address, self.length)

    def __repr__(self):
        return "Prefix(%r)" % str(self)
