"""The two-step cache-line search policy (Section 4.2.1).

Step 1: the accessing processor searches its own cluster's tag array (a
direct connection) and, in parallel, the tag arrays of the neighbouring
clusters — the in-plane adjacent clusters plus all vertically neighbouring
clusters, which receive the tag broadcast through the pillar.

Step 2: on a step-1 miss, the request is multicast to every remaining
cluster.  A miss everywhere is an L2 miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.chip import ChipTopology
from repro.sim.trace import NULL_TRACER, SEARCH_PLAN, Tracer


@dataclass(frozen=True)
class SearchPlan:
    """The clusters probed at each step for one accessing CPU."""

    cpu_id: int
    local_cluster: int
    step1: tuple[int, ...]   # local + neighbours (probed in parallel)
    step2: tuple[int, ...]   # everything else (multicast)
    steps: tuple[int, ...]   # by cluster index: the step that probes it


class SearchPolicy:
    """Builds and caches per-CPU search plans for a placed chip."""

    def __init__(
        self, topology: ChipTopology, tracer: Optional[Tracer] = None
    ):
        self.topology = topology
        self._plans: dict[int, SearchPlan] = {}
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def plan(self, cpu_id: int) -> SearchPlan:
        cached = self._plans.get(cpu_id)
        if cached is not None:
            return cached
        topo = self.topology
        local = topo.cpu_cluster(cpu_id)
        step1: list[int] = [local.index]
        for neighbor in topo.in_plane_neighbors(local):
            step1.append(neighbor.index)
        for neighbor in topo.vertical_neighbors(local):
            step1.append(neighbor.index)
        step1_set = set(step1)
        step2 = tuple(
            cluster.index
            for cluster in topo.clusters
            if cluster.index not in step1_set
        )
        plan = SearchPlan(
            cpu_id=cpu_id,
            local_cluster=local.index,
            step1=tuple(step1),
            step2=step2,
            steps=tuple(
                1 if cluster.index in step1_set else 2
                for cluster in topo.clusters
            ),
        )
        self._plans[cpu_id] = plan
        tracer = self._tracer
        if tracer.enabled:
            # Cold path (once per CPU): stamp the plan's shape at ts 0 so
            # the timeline opens with each CPU's search topology.
            track = tracer.track(f"cpu.{cpu_id}")
            tracer.emit(
                SEARCH_PLAN, 0.0, track, cpu_id, len(plan.step1), len(plan.step2)
            )
        return plan
