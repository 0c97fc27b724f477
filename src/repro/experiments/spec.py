"""`SimSpec`: the unified description of one simulation cell.

Every experiment in the paper's evaluation is a grid of independent
(scheme x benchmark x topology) simulations.  A :class:`SimSpec` freezes
one grid cell — everything needed to reproduce that simulation bit for
bit — and gives it a stable content hash, which is simultaneously:

* the **cache key** for the on-disk result store
  (:mod:`repro.experiments.orchestrator`),
* the **seed material** for the cell's workload RNG (via
  :func:`repro.sim.rng.derive_seed`), so results depend only on the spec,
  never on which worker process ran the cell or in which order,
* the **identity** used to match results back to cells after a sweep
  (``SimSpec`` is frozen and hashable, so it keys result dicts directly).

The workload seed is derived from the *workload-identity* subset of the
spec (benchmark, trace sizing, CPU count, base seed) rather than the full
spec, so the four schemes — and the cache-size / pillar / layer sweeps —
see identical reference traces.  Paired comparisons across schemes are
what the paper's figures plot; sharing traces removes workload noise
from those deltas.

:func:`run_spec` is the one simulation entry point; callers wanting
caching or typed results should go through :func:`repro.api.run`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.codec import (
    OMIT_DEFAULT, REQUIRED, Record, decode_fields, encode_fields,
)
from repro.core.chip import ChipTopology
from repro.core.placement import build_topology
from repro.core.schemes import Scheme, make_chip_config
from repro.core.system import MODES, NetworkInMemory, RunStats, SystemConfig
from repro.faults.injector import cache_banks, resolve_faults
from repro.faults.spec import FaultSpec
from repro.sim.rng import derive_seed
from repro.sim.trace import TraceSpec
from repro.experiments.config import ExperimentScale, current_scale

#: Bump when the simulation's semantics change incompatibly, so stale
#: cached artifacts are never mistaken for current results.
SPEC_VERSION = 1


@functools.lru_cache(maxsize=256)
def _placed_chip(
    scheme: Scheme, cache_mb: int, layers: int, pillars: int, num_cpus: int
) -> ChipTopology:
    """The scheme's placed chip; ``ValueError`` if it does not tile or place.

    Memoized: placing a chip costs about a third of a millisecond, and a
    sweep service decodes thousands of specs over a few dozen chips.
    Callers share the result and only read it.
    """
    setup = make_chip_config(
        scheme,
        cache_mb=cache_mb,
        num_layers=layers,
        num_pillars=pillars,
        num_cpus=num_cpus,
    )
    return build_topology(setup.chip, setup.placement)


@dataclass(frozen=True)
class SimSpec(Record):
    """One immutable simulation cell of an experiment grid.

    Serialized by the record codec (:mod:`repro.codec`): ``mode``,
    ``trace`` and ``faults`` are written only away from their defaults,
    so adding them left every earlier spec hash (and cached artifact)
    unchanged, while the topology fields are always written and always
    required.
    """

    scheme: Scheme
    benchmark: str
    scale: ExperimentScale
    layers: int = field(default=2, metadata=REQUIRED)
    pillars: int = field(default=8, metadata=REQUIRED)
    cache_mb: int = field(default=16, metadata=REQUIRED)
    seed: int = field(default=2006, metadata=REQUIRED)
    num_cpus: int = field(default=8, metadata=REQUIRED)
    # Pin CPUs to the 8-pillar reference floorplan while the pillar
    # budget varies (Fig 17 isolates the interconnect effect).
    fixed_floorplan: bool = field(default=False, metadata=REQUIRED)
    # Timing fidelity: "model" (analytic latency model) or "cycle"
    # (packets fly through the optimized NoC fabric).
    mode: str = field(default="model", metadata=OMIT_DEFAULT)
    # Per-cell tracing opt-in: a TraceSpec makes simulate() attach a
    # RingTracer to the system, so a single sweep cell can be traced
    # reproducibly.  None (default) keeps the NullTracer.
    trace: Optional[TraceSpec] = None
    # Fault injection opt-in: a FaultSpec degrades the cell (dead
    # pillars/links/banks, jammed ports) with random targets resolved
    # deterministically from the cell seed.  None (default) keeps the
    # run fault-unaware and every pre-existing spec hash unchanged.
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        # A mode no back end runs, a chip that does not tile or place and
        # a fault the cell's back end cannot take are refused here, not
        # by the worker that would build the cell.  The faults resolve
        # as NetworkInMemory installs them, on the same chip and seed.
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; choose from {list(MODES)}"
            )
        chip = _placed_chip(
            self.scheme, self.cache_mb, self.layers, self.pillars,
            self.num_cpus,
        )
        if self.faults is not None:
            resolve_faults(
                self.faults,
                self.seed,
                clocked=self.mode == "cycle",
                mesh=(*chip.config.mesh_dims, chip.config.num_layers),
                pillars=tuple(chip.pillar_xys),
                banks=cache_banks(chip),
            )

    @classmethod
    def make(
        cls,
        scheme: Scheme,
        benchmark: str,
        scale: Optional[ExperimentScale] = None,
        **overrides,
    ) -> "SimSpec":
        """Spec with the ambient scale (``REPRO_SCALE``) filled in."""
        scale = scale or current_scale()
        if "seed" not in overrides:
            overrides["seed"] = scale.seed
        return cls(scheme=scheme, benchmark=benchmark, scale=scale, **overrides)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The record codec's form, stamped with :data:`SPEC_VERSION` first."""
        return {"version": SPEC_VERSION, **encode_fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimSpec":
        if not isinstance(data, Mapping):
            raise TypeError("SimSpec must be an object")
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"spec version {version} incompatible with {SPEC_VERSION}"
            )
        # Cycle mode runs only the optimized fabric; a spec naming any
        # other would run as a different cell than it describes.
        fabric = data.get("fabric", "optimized")
        if fabric != "optimized":
            raise ValueError(
                f"unknown fabric {fabric!r}; cycle mode runs 'optimized' only"
            )
        return cls(**decode_fields(cls, data, extra=("version", "fabric")))

    # -- identity --------------------------------------------------------------

    def spec_hash(self) -> str:
        """Stable content hash: the cache key for this cell's results."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def workload_hash(self) -> str:
        """Hash of the workload-identity subset of the spec.

        Cells that differ only in scheme or topology share this hash and
        therefore see identical reference traces (paired comparison).
        """
        identity = json.dumps(
            {
                "benchmark": self.benchmark,
                "refs_per_cpu": self.scale.refs_per_cpu,
                "num_cpus": self.num_cpus,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(identity.encode()).hexdigest()

    def cell_seed(self) -> int:
        """Workload RNG seed for this cell.

        Derived from the workload hash through the same fold as every
        named RNG stream (:func:`repro.sim.rng.derive_seed`): a pure
        function of the spec, independent of worker process or ordering.
        """
        return derive_seed(self.seed, f"cell:{self.workload_hash()}")

    def label(self) -> str:
        """Short human-readable cell name for progress/failure reports."""
        extras = []
        if self.cache_mb != 16:
            extras.append(f"{self.cache_mb}MB")
        if self.layers != 2:
            extras.append(f"{self.layers}L")
        if self.pillars != 8:
            extras.append(f"{self.pillars}p")
        if self.faults is not None and not self.faults.is_zero:
            extras.append("faulty")
        suffix = f" [{','.join(extras)}]" if extras else ""
        return f"{self.scheme.value}/{self.benchmark}{suffix}"

    def with_overrides(self, **changes) -> "SimSpec":
        """Frozen-dataclass ``replace`` with a stable public name."""
        return replace(self, **changes)


def build_system_config(spec: SimSpec) -> SystemConfig:
    """The `SystemConfig` a spec denotes (shared by run and describe paths)."""
    config = SystemConfig(
        scheme=spec.scheme,
        cache_mb=spec.cache_mb,
        num_layers=spec.layers,
        num_pillars=spec.pillars,
        num_cpus=spec.num_cpus,
        mode=spec.mode,
        faults=spec.faults,
        fault_seed=spec.seed,
    )
    if spec.fixed_floorplan:
        config.cpu_positions_override = _reference_positions(spec)
    return config


def _reference_positions(spec: SimSpec) -> dict:
    """CPU coordinates of the scheme's default 8-pillar placement."""
    chip = _placed_chip(
        spec.scheme, spec.cache_mb, spec.layers, 8, spec.num_cpus
    )
    return dict(chip.cpu_positions)


def simulate(spec: SimSpec) -> tuple[NetworkInMemory, RunStats]:
    """Simulate one cell, returning the simulated system with its stats.

    Callers that inspect post-run system state (energy accounting, the
    CLI's ``--energy`` report) need the instance that actually ran;
    everyone else should use :func:`run_spec`.
    """
    from repro.workloads.generator import SyntheticWorkload

    config = build_system_config(spec)
    if spec.trace is not None:
        config.tracer = spec.trace.make_tracer()
    system = NetworkInMemory(config)
    workload = SyntheticWorkload(
        spec.benchmark,
        num_cpus=config.num_cpus,
        refs_per_cpu=spec.scale.refs_per_cpu,
        seed=spec.cell_seed(),
    )
    stats = system.run_trace(
        workload.traces(),
        warmup_events=spec.scale.warmup_events_for(config.num_cpus),
    )
    return system, stats


def run_spec(spec: SimSpec) -> RunStats:
    """Simulate one cell.  Pure: the result is a function of the spec only."""
    __, stats = simulate(spec)
    return stats
