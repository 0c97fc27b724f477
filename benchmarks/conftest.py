"""Shared configuration for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures at the
``quick`` experiment scale, the scale of the EXPERIMENTS.md numbers (set
``REPRO_SCALE=full`` for twice the references), and asserts the paper's
qualitative shape.  Simulations are long, so each benchmark runs exactly
one round.
"""

import pytest


@pytest.fixture()
def once(benchmark):
    """Run the benchmarked callable exactly once and return its result."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
