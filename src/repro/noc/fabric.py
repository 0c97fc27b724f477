"""Fabric selection: which NoC implementation a network is built from.

``FabricKind`` replaces the stringly-typed ``Network(fabric=...)`` /
``SystemConfig.noc_fabric`` selector.  :meth:`FabricKind.parse` is the
single validator: plain strings are still accepted at the CLI/spec
boundary, and anything else raises a ``ValueError`` naming the invalid
value and listing the valid choices.
"""

from __future__ import annotations

import enum
from typing import Union


class FabricKind(enum.Enum):
    """Which interconnect implementation to build."""

    # The allocation-free hot path (PR 3): cached route tables, shared
    # link pipeline, posted credits, flit pooling, blocked-evaluate cache.
    OPTIMIZED = "optimized"
    # The frozen pre-PR-3 fabric kept verbatim as a differential oracle.
    REFERENCE = "reference"
    # The batched structure-of-arrays fabric: the whole 3D mesh held as
    # numpy state and advanced in bulk array operations once per cycle.
    # Distribution-level equivalent to the object fabrics (arbitration
    # rotation differs under contention — see DESIGN.md "Vector fabric").
    VECTOR = "vector"

    @classmethod
    def parse(cls, value: Union["FabricKind", str]) -> "FabricKind":
        """Coerce a string or enum to a ``FabricKind``.

        The single point of fabric validation: ``Network`` and
        ``SystemConfig`` both funnel through here.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        choices = [kind.value for kind in cls]
        raise ValueError(f"unknown fabric {value!r}; choose from {choices}")


#: CLI/spec sentinel resolved by :func:`resolve_fabric` before it ever
#: reaches ``FabricKind.parse`` (and therefore before serialization, so
#: spec hashes only ever name concrete fabrics).
AUTO_FABRIC = "auto"


def resolve_fabric(mode: str) -> tuple[str, str]:
    """Resolve the ``"auto"`` fabric selector to a concrete name.

    Returns ``(fabric_name, reason)``.  Vector is the cycle-mode
    default — its occupancy-adaptive advance matches the object fabrics
    at sparse load and wins ≥10x at saturation — while model-mode specs
    record the optimized object fabric.
    """
    if mode != "cycle":
        return (
            FabricKind.OPTIMIZED.value,
            f"mode={mode!r} is not cycle-accurate; "
            "recording the optimized default",
        )
    return (
        FabricKind.VECTOR.value,
        "cycle mode defaults to the vector fabric",
    )
