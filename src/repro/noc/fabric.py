"""Fabric selection: which NoC implementation a network is built from.

``Network(fabric=...)`` builds the optimized fabric, which every
cycle-mode simulation runs, unless asked for the frozen reference
fabric kept as its differential oracle.  :meth:`FabricKind.parse` is
the single validator: plain strings are accepted, and anything else
raises a ``ValueError`` naming the invalid value and listing the valid
choices.
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

    @classmethod
    def parse(cls, value: Union["FabricKind", str]) -> "FabricKind":
        """Coerce a string or enum to a ``FabricKind``.

        The single point of fabric validation: ``Network`` funnels
        through here.
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
