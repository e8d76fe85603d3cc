"""Unit tests for the experiment runner plumbing."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import (
    Scenario,
    executor,
    make_crashes,
    make_movement,
    make_scheduler,
    parallel_map,
    run_batch,
    run_scenario,
)
from repro.resilience import ChaosPolicy, ResilientExecutor, TraceFormatError


class TestFactories:
    @pytest.mark.parametrize(
        "name",
        ["fsync", "round-robin", "random", "laggard", "half-split", "poisson"],
    )
    def test_schedulers(self, name):
        assert make_scheduler(name) is not make_scheduler(name)  # fresh

    @pytest.mark.parametrize(
        "name",
        [
            "rigid",
            "adversarial-stop",
            "random-stop",
            "collusive-stop",
            "per-robot-speed",
        ],
    )
    def test_movements(self, name):
        assert make_movement(name).name.startswith(name.split("(")[0])

    def test_crashes(self):
        assert make_crashes("none", 5).budget == 0
        assert make_crashes("random", 0).budget == 0  # f=0 forces none
        assert make_crashes("random", 3).budget == 3
        assert make_crashes("after-move", 2).budget == 2
        assert make_crashes("elected", 2).budget == 2
        with pytest.raises(ValueError):
            make_crashes("weird", 1)


class TestScenario:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("workload", "spiral"),
            ("algorithm", "nope"),
            ("scheduler", "eager"),
            ("crashes", "weird"),
            ("movement", "teleport"),
            ("engine", "warp"),
            ("frames", "mirror"),
            ("n", 0),
            ("n", 2.5),
            ("n", "8"),
            ("n", True),
            ("f", -1),
            ("max_rounds", -1),
            ("visibility", 0),
            ("visibility", -3.0),
            ("visibility", "far"),
        ],
    )
    def test_unrunnable_scenario_refused(self, field, value):
        with pytest.raises(TraceFormatError, match=field):
            Scenario(**{"workload": "random", "n": 8, field: value})

    def test_batched_engine_with_visibility_refused(self):
        with pytest.raises(TraceFormatError, match="visibility"):
            Scenario(workload="random", n=8, engine="batched", visibility=3)

    def test_integral_floats_are_integers(self):
        scenario = Scenario(workload="random", n=8.0, f=2.0, visibility=4.0)
        assert scenario == Scenario(workload="random", n=8, f=2, visibility=4)
        assert type(scenario.n) is int and type(scenario.f) is int

    def test_label_mentions_key_parameters(self):
        s = Scenario(workload="random", n=8, f=3)
        label = s.label()
        assert "random" in label and "n=8" in label and "f=3" in label

    def test_run_scenario_deterministic(self):
        s = Scenario(workload="asymmetric", n=6, f=2, max_rounds=3000)
        r1 = run_scenario(s, seed=4)
        r2 = run_scenario(s, seed=4)
        assert r1.rounds == r2.rounds
        assert r1.verdict == r2.verdict

    def test_run_batch_length(self):
        s = Scenario(workload="multiple", n=6, max_rounds=3000)
        results = run_batch(s, range(3))
        assert len(results) == 3
        assert all(r.gathered for r in results)


def _square(x):
    return x * x


class TestParallelRunner:
    def test_parallel_map_sequential_fallback(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_map_ordering(self):
        assert parallel_map(_square, list(range(20)), workers=4) == [
            x * x for x in range(20)
        ]

    def test_executor_none_for_sequential(self):
        with executor(None) as pool:
            assert pool is None
        with executor(1) as pool:
            assert pool is None

    def test_run_batch_workers_bit_identical(self):
        """Acceptance: workers=4 equals sequential over an E1-style sweep.

        32 seeds of an E1 cell; the parallel shard must return exactly
        the sequential verdicts, round counts and final positions, in
        the same order.
        """
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=2,
            scheduler="random",
            crashes="random",
            movement="random-stop",
            max_rounds=5_000,
        )
        seeds = range(32)
        sequential = run_batch(scenario, seeds)
        parallel = run_batch(scenario, seeds, workers=4)
        assert [r.verdict for r in sequential] == [r.verdict for r in parallel]
        assert [r.rounds for r in sequential] == [r.rounds for r in parallel]
        assert [r.final_positions for r in sequential] == [
            r.final_positions for r in parallel
        ]

    def test_run_batch_shared_pool(self):
        scenario = Scenario(workload="multiple", n=6, max_rounds=3000)
        with executor(2) as pool:
            first = run_batch(scenario, range(2), pool=pool)
            second = run_batch(scenario, range(2), pool=pool)
        assert [r.rounds for r in first] == [r.rounds for r in second]


class TestBatchedChunks:
    """How ``run_batch`` splits a batched sweep into pool work units."""

    @pytest.fixture
    def dispatched(self, monkeypatch):
        """Record the chunks ``run_batch`` hands its pool, which never
        starts: each seed gets a placeholder result."""
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_ARCHIVE_DIR", raising=False)
        calls = []

        def fake_map(self, fn, items, **kwargs):
            calls.append([list(chunk) for chunk in items])
            return [[None] * len(chunk) for chunk in items]

        monkeypatch.setattr(ResilientExecutor, "map_resilient", fake_map)
        return calls

    @pytest.mark.parametrize("via", ["pool", "workers"])
    @pytest.mark.parametrize(
        "total, width, sizes",
        [
            # Fewer than width * batch_size seeds: one even share each.
            (64, 2, [32, 32]),
            (65, 2, [33, 32]),
            (3, 8, [1, 1, 1]),
            # Enough to fill every worker: full batch_size chunks.
            (128, 2, [64, 64]),
            (130, 2, [64, 64, 2]),
            (150, 2, [64, 64, 22]),
            (130, 1, [64, 64, 2]),
            (0, 2, []),
        ],
    )
    def test_chunk_sizes(self, dispatched, via, total, width, sizes):
        scenario = Scenario(workload="random", n=8, f=2, engine="batched")
        seeds = list(range(100, 100 + total))
        with ResilientExecutor(width) as pool:
            kwargs = {"pool": pool} if via == "pool" else {"workers": width}
            run_batch(
                scenario, seeds, batch_size=64, chaos=ChaosPolicy(), **kwargs
            )
        [chunks] = dispatched
        assert [len(chunk) for chunk in chunks] == sizes
        # Contiguous slices in seed order: flattening restores the seeds.
        assert [seed for chunk in chunks for seed in chunk] == seeds


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "e1", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17",
            "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
        ]

    def test_unknown_experiment_raises(self):
        from repro.experiments import run_experiment

        with pytest.raises(ValueError):
            run_experiment("e99")
