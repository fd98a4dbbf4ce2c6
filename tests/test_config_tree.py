"""Every knob is declared once: structural guards on the config tree.

``FabricConfig`` is the only place a per-site knob is written down;
``MultiSiteConfig`` embeds one, ``WirelessConfig`` holds only what is
wireless, and the devices read the config object instead of re-declaring
its fields as constructor keywords.  These tests fail the moment a knob
is copied into a second signature again.
"""

import inspect

import pytest

from repro.core.breaker import BreakerPolicy
from repro.core.errors import ConfigurationError
from repro.fabric import FabricConfig
from repro.fabric.border import BorderRouter
from repro.fabric.edge import EdgeRouter
from repro.multisite import MultiSiteConfig
from repro.wireless import WirelessConfig
from repro.wireless.wlc import FabricWlc

FABRIC_FIELDS = set(FabricConfig._fields)
WIRELESS_FIELDS = set(WirelessConfig._fields)
#: what MultiSiteConfig derives from its own per-site counts and index
DERIVED = {"num_edges", "num_borders", "num_routing_servers", "mac_block"}


def _parameters(cls):
    return set(inspect.signature(cls.__init__).parameters) - {"self"}


MULTISITE_OWN = _parameters(MultiSiteConfig) - {"site"}


@pytest.mark.parametrize("knobs", [
    {"breaker": BreakerPolicy()},
    {"backpressure": True},
    {"registration_ttl_s": 30.0},
    {"enforcement": "sideways"},
])
def test_inert_or_unknown_settings_fail_at_construction(knobs):
    with pytest.raises(ConfigurationError):
        FabricConfig(**knobs)
    with pytest.raises(ConfigurationError):
        MultiSiteConfig(**knobs)


def test_ttl_without_refresh_stays_legal():
    config = FabricConfig(registration_ttl_s=30.0, registration_sweep_s=5.0)
    assert config.register_refresh_s is None


@pytest.mark.parametrize("device", [EdgeRouter, BorderRouter, FabricWlc])
def test_devices_redeclare_no_config_field(device):
    declared = FABRIC_FIELDS | WIRELESS_FIELDS | MULTISITE_OWN
    assert _parameters(device) & declared == set()


def test_multisite_config_forwards_every_fabric_field():
    assert MULTISITE_OWN & FABRIC_FIELDS == set()
    assert len(MULTISITE_OWN) <= 11
    defaults = FabricConfig()
    for name in sorted(FABRIC_FIELDS - DERIVED):
        config = MultiSiteConfig(**{name: getattr(defaults, name)})
        assert getattr(config.site, name) == getattr(defaults, name)
    # A forwarded knob reaches every site; seed and MAC block are per site.
    config = MultiSiteConfig(l2_services=True, seed=7)
    assert config.site_config(2).l2_services
    assert config.site_config(2).seed == 7 + 2 * 97
    assert config.site_config(2).mac_block == 2
    with pytest.raises(TypeError):
        MultiSiteConfig(no_such_knob=1)


def test_configs_are_frozen():
    with pytest.raises(AttributeError):
        FabricConfig().megaflow = True
    with pytest.raises(AttributeError):
        WirelessConfig().aps_per_edge = 2
    assert WIRELESS_FIELDS == {"aps_per_edge", "wlc_service_s", "air_delay_s",
                               "uplink_delay_s", "register_families"}
