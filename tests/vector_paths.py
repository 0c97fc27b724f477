"""Pin the vector fabric's scalar/batched crossover in tests.

:data:`repro.noc.vector.SPARSE_THRESHOLD` is a module constant, so the
equivalence tests patch it.  An override the fabric silently ignored
would leave those tests comparing one path against itself, so
:func:`pin_crossover` also counts the steps each path takes, and
:func:`assert_pinned` checks that a pinned extreme ran only its own path.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.noc import vector
from repro.noc.vector import VectorFabric

#: Thresholds that pin every mesh and NIC step to one path.
ALWAYS_BATCHED = 0
ALWAYS_SCALAR = 10**9

_STEPS = {
    "_mesh_step_sparse": "scalar",
    "_nic_step_sparse": "scalar",
    "_mesh_step_batched": "batched",
    "_nic_step_batched": "batched",
}


@contextmanager
def pin_crossover(threshold: int):
    """Run vector fabrics under ``threshold``; yields per-path step counts.

    The counts are a ``Counter`` keyed ``"scalar"`` and ``"batched"``,
    summed over the mesh and NIC phases of every fabric that steps
    inside the block.
    """
    steps: Counter = Counter()

    def counted(path, step):
        def wrapper(self, *args):
            steps[path] += 1
            return step(self, *args)

        return wrapper

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(vector, "SPARSE_THRESHOLD", threshold)
        )
        for name, path in _STEPS.items():
            step = counted(path, getattr(VectorFabric, name))
            stack.enter_context(mock.patch.object(VectorFabric, name, step))
        yield steps


def assert_pinned(steps: Counter, threshold: int) -> None:
    """A pinned extreme took its own path and never the other one."""
    own, other = {
        ALWAYS_BATCHED: ("batched", "scalar"),
        ALWAYS_SCALAR: ("scalar", "batched"),
    }[threshold]
    assert steps[other] == 0, f"threshold {threshold} ran {dict(steps)}"
    assert steps[own] > 0, f"threshold {threshold} ran {dict(steps)}"
