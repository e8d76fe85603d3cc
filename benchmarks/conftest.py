"""Benchmark-suite configuration.

Each ``test_eX_*.py`` module regenerates one experiment of DESIGN.md's
index (E1-E9), asserts the *shape* the paper predicts (who wins, what is
impossible, what never happens), and reports its wall time through
pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_FULL=1`` to run the full (paper-scale) parameter
sweeps instead of the quick ones.
"""

import os

import pytest


@pytest.fixture(scope="session")
def quick() -> bool:
    """Quick mode unless the caller asks for the full sweeps."""
    return os.environ.get("REPRO_BENCH_FULL", "") != "1"


def render(tables) -> None:
    """Print experiment tables so `pytest -s` shows the regenerated data."""
    for table in tables:
        print()
        print(table.render())
