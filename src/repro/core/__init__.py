"""The paper's primary contribution: the 3D Network-in-Memory architecture.

This package assembles the substrates into the proposed system: a 3D
stacked chip whose L2 cache banks are organized into clusters connected by
a per-layer NoC mesh, bridged vertically by dTDMA bus pillars, with CPUs
placed by a thermal-aware placement algorithm and data managed by
3D-tailored NUCA policies.
"""

from repro.core.chip import ChipConfig, ChipTopology, Cluster, NodeRole
from repro.core.placement import (
    PlacementPolicy,
    place_pillars,
    place_cpus,
    algorithm1_offsets,
)
from repro.core.latency_model import LatencyModel
from repro.core.schemes import Scheme, make_chip_config
from repro.core.system import NetworkInMemory, SystemConfig, TransactionResult

__all__ = [
    "ChipConfig",
    "ChipTopology",
    "Cluster",
    "NodeRole",
    "PlacementPolicy",
    "place_pillars",
    "place_cpus",
    "algorithm1_offsets",
    "LatencyModel",
    "Scheme",
    "make_chip_config",
    "NetworkInMemory",
    "SystemConfig",
    "TransactionResult",
]
