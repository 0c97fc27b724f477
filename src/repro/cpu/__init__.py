"""In-order single-issue CPU model and memory-reference traces.

The paper's cores are simple in-order, single-issue SPARC processors (like
the Niagara/Cell generation it cites).  For IPC purposes such a core is a
clock: one cycle per instruction, plus stall cycles whenever a load or
instruction fetch misses the L1 and must wait for the L2 (or memory).
Stores are write-through but buffered, so they do not stall the pipeline.
"""

from repro.cpu.trace import (
    OP_READ, OP_WRITE, OP_IFETCH, Trace, TraceEvent, op_name,
)
from repro.cpu.core import InOrderCore

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "OP_IFETCH",
    "Trace",
    "TraceEvent",
    "op_name",
    "InOrderCore",
]
