"""Round-trip (de)serialisation of the core config dataclasses.

The uniform ``to_dict``/``from_dict`` surface added for the scenario
layer: every config round-trips exactly, unknown keys are rejected
with path-qualified messages, JSON-authored ints widen to float
fields, and data-plane profiles collapse to their registry names.
"""

import pytest

from repro.core.config import (ConfigError, ContinuityConfig,
                               DATA_PLANE_PROFILES, NetworkConfig,
                               ResilienceConfig, SignallingConfig,
                               SimConfig)
from repro.sdn.dataplane import ACACIA_OVS_PROFILE, DataPlaneProfile


CONFIG_CLASSES = [NetworkConfig, SignallingConfig, ResilienceConfig,
                  ContinuityConfig, SimConfig]


@pytest.mark.parametrize("cls", CONFIG_CLASSES,
                         ids=lambda c: c.__name__)
def test_default_config_roundtrips(cls):
    config = cls()
    assert cls.from_dict(config.to_dict()) == config


def test_nested_overrides_roundtrip():
    config = NetworkConfig(
        seed=99,
        backhaul_delay=0.27,
        signalling=SignallingConfig(rrc_delay=0.004),
        resilience=ResilienceConfig(enabled=False),
        continuity=ContinuityConfig(policy="break-before-make",
                                    context_size_bytes=123456),
        sim=SimConfig(data_plane="fluid-bg"),
    )
    data = config.to_dict()
    assert data["continuity"]["policy"] == "break-before-make"
    assert NetworkConfig.from_dict(data) == config


def test_profiles_serialise_as_registry_names():
    config = NetworkConfig(mec_profile=ACACIA_OVS_PROFILE)
    data = config.to_dict()
    assert data["mec_profile"] == "acacia-ovs"
    assert NetworkConfig.from_dict(data) == config
    assert data["central_profile"] in DATA_PLANE_PROFILES


def test_profile_accepts_inline_object():
    custom = DataPlaneProfile(name="bench", slow_path_cost=1e-4,
                              fast_path_cost=1e-6,
                              has_fast_path=True)
    restored = NetworkConfig.from_dict(
        {"mec_profile": {"name": "bench", "slow_path_cost": 1e-4,
                         "fast_path_cost": 1e-6,
                         "has_fast_path": True}})
    assert restored.mec_profile == custom


def test_unknown_top_level_key_is_path_qualified():
    with pytest.raises(ConfigError) as excinfo:
        NetworkConfig.from_dict({"bandwith": 1.0}, path="network")
    assert excinfo.value.path == "network"
    assert "bandwith" in str(excinfo.value)
    assert "valid keys" in str(excinfo.value)


def test_unknown_nested_key_names_the_nested_path():
    with pytest.raises(ConfigError) as excinfo:
        NetworkConfig.from_dict(
            {"signalling": {"rrc_latency": 0.1}}, path="network")
    assert excinfo.value.path == "network.signalling"


def test_constructor_validation_surfaces_as_config_error():
    with pytest.raises(ConfigError) as excinfo:
        NetworkConfig.from_dict(
            {"continuity": {"policy": "teleport"}}, path="network")
    assert "network.continuity" in str(excinfo.value)


def test_json_ints_widen_to_float_fields():
    config = NetworkConfig.from_dict({"radio_ul_bandwidth": 3})
    assert config.radio_ul_bandwidth == 3.0
    assert isinstance(config.radio_ul_bandwidth, float)


def test_bool_is_not_accepted_as_number():
    # bools are ints in python; the widening must not turn True into 1.0
    config = NetworkConfig.from_dict(
        {"resilience": {"enabled": True}})
    assert config.resilience.enabled is True
