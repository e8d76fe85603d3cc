"""Unit tests for the vectorized kernel backend switch and primitives.

The equivalence sweeps over whole configurations live in
``tests/property/test_prop_kernels.py``; this file checks the backend
plumbing itself and each kernel against a hand-rolled reference, plus a
coarse performance guard so a silent regression to the scalar path
cannot ship unnoticed.
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

NUMPY_AVAILABLE = "numpy" in kernels.available_backends()

needs_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy not importable in this environment"
)


def random_coords(n, seed, scale=10.0):
    rng = random.Random(seed)
    return [
        (rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        for _ in range(n)
    ]


class TestBackendSwitch:
    def test_default_backend_is_python(self):
        # The env-var default must stay "python": the tier-1 suite runs
        # on the reference implementation unless a user opts in.
        assert "python" in kernels.available_backends()
        assert kernels._resolve(os.environ.get("REPRO_BACKEND", "python")) in (
            "python",
            "numpy",
        )

    def test_set_backend_roundtrip(self):
        previous = kernels.set_backend("python")
        try:
            assert kernels.get_backend() == "python"
            assert not kernels.enabled_for(100)
        finally:
            kernels.set_backend(previous)

    def test_backend_context_restores(self):
        before = kernels.get_backend()
        with kernels.backend("python"):
            assert kernels.get_backend() == "python"
        assert kernels.get_backend() == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("fortran")

    @needs_numpy
    def test_enabled_for_respects_cutoff(self):
        with kernels.backend("numpy"):
            assert not kernels.enabled_for(kernels.KERNEL_MIN_N - 1)
            assert kernels.enabled_for(kernels.KERNEL_MIN_N)

    def test_python_backend_never_enabled(self):
        with kernels.backend("python"):
            assert not kernels.enabled_for(10_000)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_numpy_imported_only_for_numpy_backend(self, backend):
        # The CLI, the daemon and its forked pool workers must not carry
        # NumPy on the python backend.  The variable is set in the child
        # because the suite itself may run under REPRO_BACKEND=numpy.
        if backend == "numpy" and not NUMPY_AVAILABLE:
            pytest.skip("NumPy not importable in this environment")
        code = (
            "import sys\n"
            "import repro.cli, repro.serve.server, repro.experiments.runner\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, REPRO_BACKEND=backend)
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
        assert proc.stdout.strip() == str(backend == "numpy")


@needs_numpy
class TestNearPairs:
    def brute(self, coords, eps):
        pairs = set()
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                if math.hypot(
                    coords[i][0] - coords[j][0], coords[i][1] - coords[j][1]
                ) <= eps:
                    pairs.add((i, j))
        return pairs

    @pytest.mark.parametrize("n,eps", [(16, 0.5), (64, 1.0), (200, 2.5)])
    def test_matches_brute_force(self, n, eps):
        coords = random_coords(n, seed=n)
        got = {tuple(sorted(p)) for p in kernels.near_pairs(coords, eps)}
        assert got == self.brute(coords, eps)

    def test_grid_path_matches_dense_path(self):
        # Force the sparse grid prefilter by shrinking its cutoff.
        coords = random_coords(300, seed=3, scale=4.0)
        eps = 0.8
        dense = {tuple(sorted(p)) for p in kernels.near_pairs(coords, eps)}
        original = kernels._DENSE_PAIRS_MAX
        kernels._DENSE_PAIRS_MAX = 10
        try:
            sparse = {tuple(sorted(p)) for p in kernels.near_pairs(coords, eps)}
        finally:
            kernels._DENSE_PAIRS_MAX = original
        assert sparse == dense

    def test_coincident_points(self):
        coords = [(1.0, 1.0)] * 5 + [(9.0, 9.0)]
        got = {tuple(sorted(p)) for p in kernels.near_pairs(coords, 1e-9)}
        assert got == {(i, j) for i in range(5) for j in range(i + 1, 5)}


@needs_numpy
class TestUnitVectorSum:
    def test_matches_scalar(self):
        tol = Tolerance()
        coords = random_coords(40, seed=11)
        x, y = 0.3, -0.7
        sx, sy, k = kernels.unit_vector_sum(x, y, coords, tol.eps_dist)
        ref_sx = ref_sy = 0.0
        ref_k = 0
        for px, py in coords:
            d = math.hypot(px - x, py - y)
            if d <= tol.eps_dist:
                ref_k += 1
                continue
            ref_sx += (px - x) / d
            ref_sy += (py - y) / d
        assert k == ref_k
        assert abs(sx - ref_sx) < 1e-9
        assert abs(sy - ref_sy) < 1e-9

    def test_counts_colocated(self):
        coords = [(0.0, 0.0), (0.0, 0.0), (3.0, 4.0)]
        sx, sy, k = kernels.unit_vector_sum(0.0, 0.0, coords, 1e-9)
        assert k == 2
        assert abs(sx - 0.6) < 1e-12 and abs(sy - 0.8) < 1e-12


@needs_numpy
class TestWeiszfeld:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_iteration(self, seed):
        tol = Tolerance()
        coords = random_coords(25, seed=seed)
        start = (0.1, 0.2)
        bx, by, _ = kernels.weiszfeld(coords, start, tol.eps_solver, 10_000)
        x, y, _ = _weiszfeld(coords, start, tol.eps_solver, 10_000)
        # Both converge to the same minimizer well below every
        # combinatorial tolerance.
        assert math.hypot(bx - x, by - y) < 1e-8

    def test_optimal_objective(self):
        tol = Tolerance()
        coords = random_coords(30, seed=7)
        pts = [Point(x, y) for x, y in coords]
        bx, by, _ = kernels.weiszfeld(coords, (0.0, 0.0), tol.eps_solver, 10_000)
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
        """Regression guard: the batch view kernel must stay fast.

        The expected gap at n = 256 is an order of magnitude, so the
        1.5x assertion bound has a huge margin — it only fires when the
        kernel has silently degenerated to per-origin scalar work.
        Best-of-3 timings keep scheduler noise out.
        """
        from repro.core.configuration import Configuration
        from repro.core.views import view_table
        from repro.workloads import generate

        points = generate("random", 256, 42)

        def best_of(backend_name, repeats=3):
            samples = []
            for _ in range(repeats):
                config = Configuration(points)
                start = time.perf_counter()
                with kernels.backend(backend_name):
                    view_table(config)
                samples.append(time.perf_counter() - start)
            return min(samples)

        python_s = best_of("python")
        numpy_s = best_of("numpy")
        assert numpy_s <= python_s * 1.5, (
            f"numpy view kernel took {numpy_s:.4f}s vs "
            f"{python_s:.4f}s pure-python at n=256"
        )


@needs_numpy
class TestPairwiseDiameter:
    def test_matches_scalar(self):
        coords = random_coords(40, seed=11)
        best = 0.0
        for i, (ax, ay) in enumerate(coords):
            for bx, by in coords[i + 1 :]:
                best = max(best, math.hypot(ax - bx, ay - by))
        with kernels.backend("numpy"):
            assert abs(kernels.pairwise_diameter(coords) - best) < 1e-12

    def test_degenerate_inputs(self):
        with kernels.backend("numpy"):
            assert kernels.pairwise_diameter([]) == 0.0
            assert kernels.pairwise_diameter([(1.0, 2.0)]) == 0.0
            assert kernels.pairwise_diameter([(0.0, 0.0), (3.0, 4.0)]) == 5.0

    def test_blocked_path_matches_dense(self):
        # Above _DENSE_PAIRS_MAX the kernel switches to row blocks;
        # both paths must agree exactly on the same input.
        coords = random_coords(kernels._DENSE_PAIRS_MAX + 10, seed=13)
        with kernels.backend("numpy"):
            blocked = kernels.pairwise_diameter(coords)
        dense = max(
            math.hypot(ax - bx, ay - by)
            for i, (ax, ay) in enumerate(coords)
            for bx, by in coords[i + 1 :]
        )
        assert abs(blocked - dense) < 1e-12
