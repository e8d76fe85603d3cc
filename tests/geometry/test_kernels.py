"""Unit tests for the batched engine's NumPy kernels and the NumPy import.

The property sweeps over whole batches live in
``tests/property/test_prop_batched_kernels.py``; this file checks single
kernel calls against hand-rolled references, that only the batched
engine ever loads NumPy, and — a coarse performance guard — that seeding
views beats computing them in pure Python.
"""

import math
import os
import random
import subprocess
import sys
import time

import pytest

from repro.geometry import Point, Tolerance, kernels
from repro.geometry.weber import _weiszfeld, sum_of_distances

needs_numpy = pytest.mark.usefixtures("numpy")


def random_coords(n, seed, scale=10.0):
    rng = random.Random(seed)
    return [
        (rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        for _ in range(n)
    ]


@needs_numpy
def test_only_the_batched_engine_imports_numpy():
    # The CLI, the daemon and a scalar run must not carry NumPy (it
    # costs a scalar process about 12 MB of peak RSS); a batched chunk
    # loads it.  REPRO_BACKEND is set to show the program ignores it.
    code = (
        "import sys\n"
        "import repro.cli, repro.serve.server\n"
        "from repro.experiments.runner import Scenario, run_batched, "
        "run_scenario\n"
        "scenario = Scenario(workload='random', n=8, f=1)\n"
        "run_scenario(scenario, 0)\n"
        "print('numpy' in sys.modules)\n"
        "run_batched(Scenario(**{**scenario.to_dict(), "
        "'engine': 'batched'}), [0])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, REPRO_BACKEND="numpy")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


@needs_numpy
class TestWeiszfeld:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_iteration(self, seed):
        tol = Tolerance()
        coords = random_coords(25, seed=seed)
        start = (0.1, 0.2)
        ((bx, by, _),) = kernels.batched_weiszfeld(
            [coords], [start], tol.eps_solver, 10_000
        )
        x, y, _ = _weiszfeld(coords, start, tol.eps_solver, 10_000)
        # Both converge to the same minimizer well below every
        # combinatorial tolerance.
        assert math.hypot(bx - x, by - y) < 1e-8

    def test_optimal_objective(self):
        tol = Tolerance()
        coords = random_coords(30, seed=7)
        pts = [Point(x, y) for x, y in coords]
        ((bx, by, _),) = kernels.batched_weiszfeld(
            [coords], [(0.0, 0.0)], tol.eps_solver, 10_000
        )
        value = sum_of_distances(Point(bx, by), pts)
        # No input point does better (the median is a global minimum).
        assert value <= min(sum_of_distances(p, pts) for p in pts) + 1e-6


@needs_numpy
class TestDistanceSums:
    def test_matches_scalar(self):
        coords = random_coords(50, seed=5)
        pts = [Point(x, y) for x, y in coords]
        sums = kernels.distance_sums(coords[:10], coords)
        for (x, y), got in zip(coords[:10], sums):
            assert abs(got - sum_of_distances(Point(x, y), pts)) < 1e-9


@needs_numpy
class TestViewKernelPerformance:
    def test_batch_views_not_slower_than_scalar_at_256(self):
        """Regression guard: seeding views must beat computing them.

        The batched engine seeds ``views`` memos from one
        ``batched_polar_views`` call instead of the pure-Python view
        table.  The expected gap at n = 256 is an order of magnitude, so
        the 1.5x assertion bound has a huge margin — it only fires when
        the kernel has silently degenerated to per-origin scalar work.
        Best-of-3 timings keep scheduler noise out.
        """
        from repro.core.configuration import Configuration
        from repro.core.views import view_table
        from repro.workloads import generate

        config = Configuration(generate("random", 256, 42))
        center = config.sec_center()
        outer = [
            p for p in config.support if not p.close_to(center, config.tol)
        ]
        args = (
            [[(p.x, p.y) for p in outer]],
            [[(q.x, q.y) for q in config.points]],
            [(center.x, center.y)],
            config.tol.eps_dist,
            config.tol.eps_angle,
        )

        def best_of(fn, repeats=3):
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
            return min(samples)

        python_s = best_of(lambda: view_table(Configuration(config.points)))
        numpy_s = best_of(lambda: kernels.batched_polar_views(*args))
        assert numpy_s <= python_s * 1.5, (
            f"batched view kernel took {numpy_s:.4f}s vs "
            f"{python_s:.4f}s pure-python at n=256"
        )
