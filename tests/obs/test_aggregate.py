"""Cross-worker aggregation: per-seed deltas, merge, sweep determinism."""

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_batch
from repro.obs.aggregate import (
    Aggregator,
    capture_before,
    seed_payload,
    snapshot_delta,
)
from repro.obs.histogram import Histogram
from repro.resilience import ChaosPolicy, RunPolicy, SeedTimeoutError

SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)


class TestSnapshotDelta:
    def test_counters_subtract_and_drop_zeroes(self):
        before = {"counters": {"a": 3, "b": 7}}
        after = {"counters": {"a": 5, "b": 7, "c": 2}}
        delta = snapshot_delta(after, before)
        assert delta["counters"] == {"a": 2, "c": 2}

    def test_stats_subtract_count_and_total(self):
        before = {"stats": {"x": {"count": 2, "total": 4.0,
                                  "min": 1.0, "max": 3.0}}}
        before["stats"]["idle"] = {"count": 2, "total": 4.0,
                                   "min": 1.0, "max": 3.0}
        after = {"stats": {"x": {"count": 5, "total": 13.0,
                                 "min": 0.5, "max": 6.0},
                           "idle": {"count": 2, "total": 4.0,
                                    "min": 1.0, "max": 3.0}}}
        delta = snapshot_delta(after, before)
        assert delta["stats"] == {
            # count/total are the window's; min/max carried cumulative.
            "x": {"count": 3, "total": 9.0, "min": 0.5, "max": 6.0}
        }

    def test_hists_delta_by_bucket(self):
        hist = Histogram()
        hist.add(1e-3)
        before = {"hists": {"lat": hist.to_dict()}}
        hist.add(1e-2)
        after = {"hists": {"lat": hist.to_dict(),
                           "quiet": Histogram().to_dict()}}
        delta = snapshot_delta(after, before)
        assert set(delta["hists"]) == {"lat"}
        window = Histogram.from_dict(delta["hists"]["lat"])
        assert window.count == 1
        assert window.total == pytest.approx(1e-2)


class TestSeedPayload:
    def test_delta_without_resetting_registry(self):
        obs.enable()
        obs.metrics.inc("warmup", 5)
        before = capture_before()
        obs.metrics.inc("warmup", 2)
        obs.metrics.inc("fresh")
        payload = seed_payload(before)
        assert payload["metrics"]["counters"] == {"warmup": 2, "fresh": 1}
        # The cumulative registry survives the capture untouched — the
        # worker's own `--obs` view keeps accumulating.
        assert obs.metrics.snapshot()["counters"]["warmup"] == 7

    def test_span_tail_sliced_to_the_seed(self):
        obs.enable()
        obs.tracer.end(obs.tracer.begin("earlier", "run"))
        before = capture_before()
        obs.tracer.end(obs.tracer.begin("mine", "run"))
        payload = seed_payload(before)
        assert [s["name"] for s in payload["spans"]] == ["mine"]

    def test_no_spans_key_when_tracing_vetoed(self, monkeypatch):
        obs.enable()
        monkeypatch.setattr(obs.tracer, "active", False)
        payload = seed_payload(capture_before())
        assert "spans" not in payload


class _FakeResult:
    def __init__(self, rounds=10, verdict="gathered", obs_payload=None):
        self.rounds = rounds
        self.verdict = verdict
        self.obs = obs_payload


class TestAggregator:
    def test_resumed_seed_counts_without_payload(self):
        agg = Aggregator(total_seeds=2)
        agg.seed_done(_FakeResult(rounds=4, obs_payload=None))
        assert (agg.done, agg.resumed, agg.rounds) == (1, 1, 4)
        assert agg.verdicts == {"gathered": 1}

    def test_failures_split_timeouts_from_retries(self):
        agg = Aggregator()
        agg.failure("k#seed0", RuntimeError("boom"), strike=True)
        agg.failure("k#seed1", SeedTimeoutError("slow"), strike=True)
        assert (agg.retries, agg.timeouts) == (2, 1)

    def test_merge_is_order_independent(self):
        kernel = "geometry.kernels.distance_sums"
        payload_a = {"counters": {"rounds.class.W1": 3},
                     "stats": {"s": {"count": 1, "total": 2.0,
                                     "min": 2.0, "max": 2.0},
                               kernel: {"count": 1, "total": 0.5,
                                        "min": 0.5, "max": 0.5}},
                     "hists": {}}
        payload_b = {"counters": {"rounds.class.W1": 2,
                                  "rounds.class.W3": 1},
                     "stats": {"s": {"count": 2, "total": 10.0,
                                     "min": 4.0, "max": 6.0},
                               kernel: {"count": 3, "total": 1.5,
                                        "min": 0.25, "max": 1.0}},
                     "hists": {}}
        forward, backward = Aggregator(), Aggregator()
        forward.add_metrics(payload_a)
        forward.add_metrics(payload_b)
        backward.add_metrics(payload_b)
        backward.add_metrics(payload_a)
        assert forward.counters == backward.counters
        assert forward.stats == backward.stats
        assert forward.stats[kernel] == {"count": 4, "total": 2.0,
                                         "min": 0.25, "max": 1.0}
        assert forward.class_rounds() == {"W1": 5, "W3": 1}

    def test_to_dict_document_shape(self):
        agg = Aggregator(total_seeds=3)
        agg.seed_done(_FakeResult(obs_payload={
            "pid": 1234,
            "metrics": {"counters": {"rounds.total": 10,
                                     "rounds.class.W1": 10}},
            "spans": [{"id": 1}],
        }))
        doc = agg.to_dict()
        assert doc["schema"] == obs.SWEEP_METRICS_SCHEMA
        assert doc["seeds"] == {"total": 3, "done": 1, "resumed": 0,
                                "retried": 0, "timed_out": 0}
        assert doc["rounds"]["total"] == 10
        assert doc["rounds"]["by_class"] == {"W1": 10}
        assert doc["workers"] == [1234]
        assert doc["span_count"] == 1


class TestSweepAggregation:
    SEEDS = list(range(4))

    def _sweep(self, aggregator, **kwargs):
        return run_batch(
            SMALL,
            self.SEEDS,
            on_seed_result=lambda seed, result: aggregator.seed_done(result),
            on_failure=aggregator.failure,
            **kwargs,
        )

    def test_serial_merge_equals_global_registry(self):
        # In one process the registry IS the ground truth: the sum of
        # the per-seed deltas must reproduce it exactly (not roughly).
        obs.enable()
        agg = Aggregator(total_seeds=len(self.SEEDS))
        results = self._sweep(agg)
        snapshot = obs.metrics.snapshot()
        assert agg.counters == snapshot["counters"]
        assert agg.rounds == sum(r.rounds for r in results)
        assert agg.done == len(self.SEEDS)
        for name, stat in agg.stats.items():
            assert stat["count"] == snapshot["stats"][name]["count"]
            assert stat["total"] == pytest.approx(
                snapshot["stats"][name]["total"]
            )

    def test_chaotic_sweep_aggregates_like_clean_one(self):
        # Satellite determinism contract: injected faults + retries must
        # not change what the sweep *measured* — failed attempts raise
        # before the seed computes, so they contribute no metrics.
        obs.enable()
        clean = Aggregator(total_seeds=len(self.SEEDS))
        self._sweep(clean)

        obs.metrics.reset()
        obs.tracer.reset()
        chaotic = Aggregator(total_seeds=len(self.SEEDS))
        self._sweep(
            chaotic,
            chaos=ChaosPolicy.parse("seed=7,error=0.4"),
            policy=RunPolicy(retries=8, backoff=0.0),
        )
        assert chaotic.retries > 0  # the schedule is deterministic
        assert chaotic.class_rounds() == clean.class_rounds()
        assert chaotic.rounds == clean.rounds
        assert chaotic.verdicts == clean.verdicts
        assert chaotic.counters == clean.counters

    def test_four_worker_sweep_merges_all_payloads(self):
        obs.enable()
        agg = Aggregator(total_seeds=8)
        results = run_batch(
            SMALL,
            list(range(8)),
            workers=4,
            on_seed_result=lambda seed, result: agg.seed_done(result),
            on_failure=agg.failure,
        )
        assert agg.done == 8
        assert agg.resumed == 0  # every result carried a payload home
        assert agg.rounds == sum(r.rounds for r in results)
        # The merged counters equal the sum of the per-worker deltas by
        # construction; cross-check against the results themselves.
        assert agg.counters["rounds.total"] == agg.rounds
        assert agg.counters["runner.runs"] == 8
        assert sum(agg.class_rounds().values()) == agg.rounds
        assert agg.workers  # real pids reported
        assert agg.span_count > 0
        doc = agg.to_dict()
        assert doc["workers"] == sorted(agg.workers)
