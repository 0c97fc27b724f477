"""In-order single-issue core: the timing skeleton of one CPU.

The core holds one CPU's clock and instruction accounting.  Between
references it retires ``gap`` ordinary instructions at the base CPI
(:data:`repro.params.CPI_BASE`); a
reference that hits the L1 costs one (pipelined) cycle; a read or ifetch
that misses stalls the core for the full L2 transaction latency; stores
retire into the write buffer without stalling (their L2 traffic is still
generated).  That retire rule has one home, the per-CPU loop of
:meth:`repro.core.system.NetworkInMemory.run_trace`, which keeps these
fields in locals while a CPU runs and writes them back here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class InOrderCore:
    """Per-CPU clock and instruction accounting."""

    cpu_id: int
    clock: float = 0.0
    clock_at_reset: float = 0.0   # set when statistics are reset (warmup)
    instructions: float = 0.0
    memory_stall_cycles: float = 0.0
    l2_accesses: int = 0

    def reset_stats(self) -> None:
        """Zero the accounting while keeping the clock running (warmup)."""
        self.clock_at_reset = self.clock
        self.instructions = 0.0
        self.memory_stall_cycles = 0.0
        self.l2_accesses = 0

    @property
    def measured_cycles(self) -> float:
        return self.clock - self.clock_at_reset

    @property
    def ipc(self) -> float:
        cycles = self.measured_cycles
        return self.instructions / cycles if cycles > 0 else 0.0
