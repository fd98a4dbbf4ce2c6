"""VRF tables: per-VN local endpoint state on a fabric router.

The egress pipeline's first stage (fig. 4): a lookup of (VN + overlay
destination IP) in the VRF for the packet's VNI, returning the output
port *and* the destination endpoint's GroupId.  The (Overlay IP, GroupId)
association is written at onboarding and — because it is refreshed by the
authentication process whenever endpoint data changes — is always current,
which is the property that makes egress enforcement signaling-free
(sec. 5.3).
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError


class LocalEndpointEntry:
    """One locally attached endpoint in a VRF."""

    __slots__ = ("endpoint", "vn", "group", "port", "ip", "ipv6", "mac", "vlan")

    def __init__(self, endpoint, vn, group, port, ip, ipv6=None, mac=None, vlan=None):
        self.endpoint = endpoint
        self.vn = vn
        self.group = group
        self.port = port
        self.ip = ip
        self.ipv6 = ipv6
        self.mac = mac
        self.vlan = vlan

    def __repr__(self):
        return "LocalEndpointEntry(%s, vn=%d, group=%d, port=%d)" % (
            self.ip, self.vn, self.group, self.port
        )


class VrfTable:
    """Per-VN tables of locally attached endpoints, indexed three ways.

    Entries are host routes only, so a longest-prefix match over them is
    an exact match: all three indices are per-VN dicts (IPv4 and IPv6 by
    address value, MAC by address, the exact match of an L2 FIB).
    """

    def __init__(self):
        self._v4 = {}    # vn -> {address value int -> entry}
        self._v6 = {}
        self._mac = {}   # vn -> {mac -> entry}
        self._by_identity = {}
        self._count = 0

    def __len__(self):
        return self._count

    def add(self, entry):
        """Install a local endpoint (onboarding step)."""
        identity = entry.endpoint.identity
        if identity in self._by_identity:
            raise ConfigurationError("endpoint %s already in VRF" % identity)
        vn = entry.vn
        self._v4.setdefault(vn, {})[entry.ip.value] = entry
        if entry.ipv6 is not None:
            self._v6.setdefault(vn, {})[entry.ipv6.value] = entry
        if entry.mac is not None:
            self._mac.setdefault(vn, {})[entry.mac] = entry
        self._by_identity[identity] = entry
        self._count += 1
        return entry

    def remove(self, identity):
        """Remove a local endpoint (departure/roam-away); returns entry."""
        entry = self._by_identity.pop(identity, None)
        if entry is None:
            return None
        vn = entry.vn
        self._v4.get(vn, {}).pop(entry.ip.value, None)
        if entry.ipv6 is not None:
            self._v6.get(vn, {}).pop(entry.ipv6.value, None)
        if entry.mac is not None:
            self._mac.get(vn, {}).pop(entry.mac, None)
        self._count -= 1
        return entry

    def lookup_ip(self, vn, address):
        """(VN + overlay dst IP) -> local entry or ``None`` (fig. 4).

        ``address`` is an address; a non-IP family (a MAC) matches
        nothing.
        """
        family = address.family
        if family == "ipv4":
            table = self._v4.get(vn)
        elif family == "ipv6":
            table = self._v6.get(vn)
        else:
            return None
        return table.get(address.value) if table else None

    def lookup_mac(self, vn, mac):
        return self._mac.get(vn, {}).get(mac)

    def lookup_identity(self, identity):
        return self._by_identity.get(identity)

    def entries(self, vn=None):
        for entry in self._by_identity.values():
            if vn is None or entry.vn == vn:
                yield entry

    def groups_present(self):
        """Distinct GroupIds of attached endpoints.

        This is the set the edge reports to SXP (which rule rows it
        needs) — egress enforcement state is bounded by it.
        """
        return {int(entry.group) for entry in self._by_identity.values()}

    def update_group(self, identity, new_group):
        """Refresh the (Overlay IP, GroupId) association after re-auth."""
        entry = self._by_identity.get(identity)
        if entry is None:
            return None
        entry.group = new_group
        return entry
