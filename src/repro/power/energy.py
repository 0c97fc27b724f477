"""Orion-style interconnect and Cacti-anchored cache energy model.

Per-event energies are derived from the synthesized component powers of
Table 1 and the Cacti array model:

* a **flit-hop** costs one router traversal plus one inter-router link
  traversal.  The 5-port router burns 119.55 mW; at ~3 GHz and a few
  flits per cycle of throughput this is on the order of tens of
  picojoules per flit, plus the ~1.5 mm link at ~0.2 pJ/bit/mm;
* a **bus transfer** costs the transceiver pair plus the vertical via
  run — far less than a horizontal hop, which is the energy side of the
  paper's 3D argument;
* **tag probes** and **bank accesses** use the Cacti dynamic energies.

Absolute joules are model estimates; the experiments compare schemes, so
the ratios are what matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.models.cacti import CactiModel, CacheArraySpec
from repro.params import BANK_KB, LINE_FLITS

if TYPE_CHECKING:
    from repro.core.system import NetworkInMemory, RunStats


@dataclass
class EnergyModel:
    """Per-event energies (joules)."""

    # Router traversal per flit: P_router / (f * flits-per-cycle capacity).
    router_flit_j: float = 30e-12
    # 1.5 mm inter-router wire at 128 bits, ~0.2 pJ/bit/mm.
    link_flit_j: float = 38e-12
    # Vertical bus: transceiver pair + 10 um via run per flit: tiny.
    bus_flit_j: float = 4e-12
    # Cacti-derived array energies.
    tag_probe_j: float = 0.12e-9     # 24 KB tag array read
    bank_access_j: float = 0.6e-9    # 64 KB data bank read/write
    dram_access_j: float = 18e-9     # off-chip access

    @classmethod
    def from_cacti(
        cls, bank_kb: int = BANK_KB, tag_kb: int = 24
    ) -> "EnergyModel":
        """Derive the array energies from the Cacti model."""
        cacti = CactiModel()
        return cls(
            tag_probe_j=(
                cacti.dynamic_read_energy_nj(CacheArraySpec(tag_kb)) * 0.2e-9
            ),
            bank_access_j=(
                cacti.dynamic_read_energy_nj(CacheArraySpec(bank_kb)) * 1e-9
            ),
        )


@dataclass
class EnergyBreakdown:
    """Energy of one run, split by activity (joules)."""

    network_j: float = 0.0       # horizontal flit-hops
    bus_j: float = 0.0           # vertical bus transfers
    tag_j: float = 0.0           # tag-array probes
    bank_j: float = 0.0          # data-bank accesses
    migration_j: float = 0.0     # migration + swap transfers (subset of net)
    dram_j: float = 0.0          # off-chip accesses

    @property
    def total_j(self) -> float:
        return (
            self.network_j + self.bus_j + self.tag_j + self.bank_j
            + self.dram_j
        )

    @property
    def l2_dynamic_j(self) -> float:
        """On-chip L2 subsystem energy (the paper's power argument)."""
        return self.network_j + self.bus_j + self.tag_j + self.bank_j

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            network_j=self.network_j * factor,
            bus_j=self.bus_j * factor,
            tag_j=self.tag_j * factor,
            bank_j=self.bank_j * factor,
            migration_j=self.migration_j * factor,
            dram_j=self.dram_j * factor,
        )


def account_run(
    system: "NetworkInMemory",
    stats: "RunStats",
    model: EnergyModel | None = None,
) -> EnergyBreakdown:
    """Compute the energy breakdown of a completed run.

    Uses the run's traffic counters: flit-hops and bus flits from the
    latency model, tag-probe counts from the search statistics, bank
    accesses and DRAM accesses from the L2 counters, and migration
    transfers from the migration counter.
    """
    model = model or EnergyModel()
    snapshot = system.stats.snapshot()

    hits_step1 = snapshot.get("l2.hits_step1", 0)
    hits_step2 = snapshot.get("l2.hits_step2", 0)
    misses = stats.l2_misses
    # Tag probes: step-1 hits probe the step-1 set; step-2 hits and
    # misses probe every cluster.  Use CPU 0's plan as representative.
    plan = system.l2.search.plan(0)
    step1_size = len(plan.step1)
    total_clusters = len(system.topology.clusters)
    if system.setup.perfect_search:
        tag_probes = stats.l2_accesses
    else:
        tag_probes = (
            hits_step1 * step1_size
            + (hits_step2 + misses) * total_clusters
        )

    bank_accesses = stats.l2_hits + misses  # refill writes the bank too
    migration_transfers = 2 * stats.migrations  # line + swap victim

    migration_flit_hops = 0.0
    if stats.migrations:
        # Approximate: each migration moves one cluster step (~4 hops).
        migration_flit_hops = migration_transfers * LINE_FLITS * 4.0

    return EnergyBreakdown(
        network_j=stats.flit_hops * (model.router_flit_j + model.link_flit_j),
        bus_j=stats.bus_flits * model.bus_flit_j,
        tag_j=tag_probes * model.tag_probe_j,
        bank_j=bank_accesses * model.bank_access_j,
        migration_j=(
            migration_flit_hops
            * (model.router_flit_j + model.link_flit_j)
        ),
        dram_j=misses * model.dram_access_j,
    )
