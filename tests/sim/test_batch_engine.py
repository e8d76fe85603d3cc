"""Unit tests for the batched (lockstep) engine.

The heavy seed-for-seed scalar comparison lives in
``tests/integration/test_batched_equivalence.py``; this module covers
the engine's own contract: constructor validation, determinism, chunk
invariance at the runner level, and the trace restriction.
"""

import sys

import pytest

from repro.algorithms import WaitFreeGather
from repro.core import Configuration
from repro.experiments.runner import (
    DEFAULT_BATCH_SIZE,
    Scenario,
    build_simulation,
    run_batch,
    run_batched,
    run_scenario,
)
from repro.geometry import kernels
from repro.sim import BatchedSimulation, RoundRobin, Verdict
from repro.workloads import generate

needs_numpy = pytest.mark.usefixtures("numpy")


def _algorithms(k):
    return [WaitFreeGather() for _ in range(k)]


def _positions(k, n=6, base_seed=0):
    return [generate("random", n, base_seed + i) for i in range(k)]


class TestConstruction:
    @needs_numpy
    def test_mismatched_robot_counts_rejected(self):
        positions = [generate("random", 5, 1), generate("random", 7, 2)]
        with pytest.raises(ValueError, match="same robot count"):
            BatchedSimulation(_algorithms(2), positions)

    @needs_numpy
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one sim"):
            BatchedSimulation([], [])

    @needs_numpy
    def test_per_sim_sequences_must_match(self):
        with pytest.raises(ValueError, match="seed per sim"):
            BatchedSimulation(_algorithms(2), _positions(2), seeds=[1])

    def test_numpy_required(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        with pytest.raises(RuntimeError, match="NumPy"):
            BatchedSimulation(_algorithms(1), _positions(1))


@needs_numpy
class TestRuns:
    def test_deterministic_in_seeds(self):
        def run():
            sims = BatchedSimulation(
                _algorithms(4), _positions(4), seeds=[11, 12, 13, 14]
            )
            return sims.run_all()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.verdict == b.verdict
            assert a.rounds == b.rounds
            assert a.final_positions == b.final_positions
            assert a.classes_seen == b.classes_seen

    def test_every_sim_reaches_a_verdict(self):
        sims = BatchedSimulation(
            _algorithms(5), _positions(5), seeds=list(range(5))
        )
        results = sims.run_all()
        assert len(results) == 5
        for result in results:
            assert result.verdict in {
                Verdict.GATHERED,
                Verdict.STALLED,
                Verdict.IMPOSSIBLE,
                Verdict.MAX_ROUNDS,
            }
            assert result.trace is None

    def test_one_configuration_per_sim_per_round(self, monkeypatch):
        """The batched LOOK is one global-frame tower per sim: a lockstep
        round builds at most one configuration per stepped sim, where a
        private-frame LOOK would build one per robot."""
        k = 4
        sims = BatchedSimulation(
            _algorithms(k),
            _positions(k, n=8),
            schedulers=[RoundRobin() for _ in range(k)],
            seeds=list(range(k)),
        )
        assert sims.step_round() == k
        builds = {"n": 0}
        original = Configuration.__init__

        def counting(self, *args, **kwargs):
            builds["n"] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(Configuration, "__init__", counting)
        assert sims.step_round() == k
        assert 0 < builds["n"] <= k

    def test_max_rounds_retires(self):
        sims = BatchedSimulation(
            _algorithms(2), _positions(2), seeds=[1, 2], max_rounds=1
        )
        for result in sims.run_all():
            assert result.rounds <= 1


@needs_numpy
class TestRunnerWiring:
    SCENARIO = Scenario(
        workload="random",
        n=6,
        f=1,
        scheduler="round-robin",
        crashes="after-move",
        movement="rigid",
        max_rounds=2_000,
        engine="batched",
    )

    def test_chunk_composition_is_invisible(self):
        seeds = list(range(9))
        by_1 = run_batched(self.SCENARIO, seeds, batch_size=1)
        by_4 = run_batched(self.SCENARIO, seeds, batch_size=4)
        whole = run_batched(self.SCENARIO, seeds, batch_size=DEFAULT_BATCH_SIZE)
        for a, b, c in zip(by_1, by_4, whole):
            assert a.verdict == b.verdict == c.verdict
            assert a.rounds == b.rounds == c.rounds
            assert a.final_positions == b.final_positions == c.final_positions

    def test_run_scenario_dispatches_to_batched(self):
        single = run_scenario(self.SCENARIO, 3)
        batch = run_batched(self.SCENARIO, [3])[0]
        assert single.verdict == batch.verdict
        assert single.rounds == batch.rounds
        assert single.final_positions == batch.final_positions

    def test_record_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            run_scenario(self.SCENARIO, 0, record_trace=True)

    def test_build_simulation_rejects_batched(self):
        with pytest.raises(ValueError, match="run_batched"):
            build_simulation(self.SCENARIO, 0)

    def test_bad_batch_size_rejected(self):
        for size in (-2, 0):
            with pytest.raises(ValueError, match="positive"):
                run_batched(self.SCENARIO, [0, 1], batch_size=size)
            with pytest.raises(ValueError, match="positive"):
                run_batch(self.SCENARIO, [0, 1], batch_size=size)

    def test_label_prefixes_engine(self):
        assert self.SCENARIO.label().startswith("batched/")
