"""Unit tests for the typed NoC fabric selector."""

import pytest

from repro.noc.fabric import FabricKind
from repro.noc.network import Network, NetworkConfig


class TestFabricKind:
    def test_parse_strings(self):
        assert FabricKind.parse("optimized") is FabricKind.OPTIMIZED
        assert FabricKind.parse("reference") is FabricKind.REFERENCE

    def test_parse_enum_passthrough(self):
        assert FabricKind.parse(FabricKind.REFERENCE) is FabricKind.REFERENCE

    def test_parse_invalid_names_value_and_choices(self):
        with pytest.raises(ValueError) as excinfo:
            FabricKind.parse("turbo")
        message = str(excinfo.value)
        assert "'turbo'" in message
        for kind in FabricKind:
            assert kind.value in message

    def test_names_cover_every_kind(self):
        for kind in FabricKind:
            assert FabricKind.parse(kind.value) is kind

    def test_network_accepts_string_and_enum(self):
        config = NetworkConfig(
            width=2, height=2, layers=1, pillar_locations=()
        )
        by_string = Network(config, fabric="reference")
        by_enum = Network(config, fabric=FabricKind.REFERENCE)
        assert by_string.fabric is FabricKind.REFERENCE
        assert by_string.fabric is by_enum.fabric

    def test_network_rejects_unknown_fabric(self):
        config = NetworkConfig(
            width=2, height=2, layers=1, pillar_locations=()
        )
        with pytest.raises(ValueError, match="unknown fabric"):
            Network(config, fabric="quantum")
