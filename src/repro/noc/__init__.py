"""Cycle-accurate wormhole network-on-chip substrate.

Implements the network fabric the paper builds on: a 2D mesh per device
layer with single-stage speculative routers (1-cycle), 3 virtual channels
per physical channel, 4-flit packets of 128-bit flits, credit-based flow
control, and dimension-order routing.  The third dimension is provided not
by extra mesh links but by dTDMA bus pillars (:mod:`repro.dtdma`) attached
to a subset of routers via a sixth physical channel.
"""

from repro.noc.flit import Flit, FlitType
from repro.noc.packet import Packet, MessageClass
from repro.noc.routing import Coord, Port, OPPOSITE_PORT, dimension_order_route
from repro.noc.router import Router, InputVC, OutputPort
from repro.noc.interface import NetworkInterface
from repro.noc.network import Network, NetworkConfig
from repro.noc.traffic import (
    TrafficGenerator,
    UniformRandomTraffic,
    HotspotTraffic,
    TransposeTraffic,
)

__all__ = [
    "Flit",
    "FlitType",
    "Packet",
    "MessageClass",
    "Coord",
    "Port",
    "OPPOSITE_PORT",
    "dimension_order_route",
    "Router",
    "InputVC",
    "OutputPort",
    "NetworkInterface",
    "Network",
    "NetworkConfig",
    "TrafficGenerator",
    "UniformRandomTraffic",
    "HotspotTraffic",
    "TransposeTraffic",
]
