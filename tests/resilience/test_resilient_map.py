"""ResilientExecutor: recovery guarantees proved under injected chaos.

Every test that injects faults asserts the recovered results are
*bit-identical* to a clean sequential run — the determinism-under-retry
contract — and the wait-freedom tests assert that one doomed item never
blocks the others from completing and being checkpointed.

Chaos schedules are found by deterministic search (`seed_where`): the
tests scan chaos seeds for one whose SHA-256 schedule fires the wanted
fault pattern, so they encode *behaviour* (kill on first attempt,
recover on retry) rather than magic constants that silently stop
triggering when the hash input format changes.
"""

import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_batch
from repro.resilience import (
    ChaosPolicy,
    ChaosInjectedError,
    ResilientExecutor,
    RunPolicy,
    SeedTimeoutError,
    WorkerCrashError,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def square(x):
    return x * x


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def slow_square(x):
    time.sleep(0.2 if x >= 10 else 0.0)
    return x * x


def pid_of(_):
    return os.getpid()


#: No backoff, generous rebuild budget: fault-heavy tests stay fast.
FAST = RunPolicy(retries=2, backoff=0.0, tick=0.02)


def seed_where(predicate, **chaos_fields):
    """First chaos seed whose schedule satisfies ``predicate(policy)``."""
    for seed in range(10_000):
        policy = ChaosPolicy(seed=seed, **chaos_fields)
        if predicate(policy):
            return policy
    raise AssertionError(
        f"no chaos seed under 10000 satisfies the schedule {chaos_fields!r}"
    )


class TestSerial:
    def test_plain_map(self):
        serial = ResilientExecutor(None, policy=FAST)
        assert serial.map_resilient(square, [1, 2, 3]) == [1, 4, 9]

    def test_on_result_fires_per_item(self):
        seen = []
        serial = ResilientExecutor(None, policy=FAST)
        serial.map_resilient(
            square, [1, 2, 3], on_result=lambda i, v: seen.append((i, v))
        )
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_injected_error_is_retried_to_success(self):
        # Fault on attempt 0, clean on attempt 1.
        chaos = seed_where(
            lambda p: p.decide("k0", 0) == "error" and p.decide("k0", 1) is None,
            error=0.5,
            match="k0",
        )
        serial = ResilientExecutor(None, policy=FAST)
        assert serial.map_resilient(
            square, [7], keys=["k0"], chaos=chaos
        ) == [49]

    def test_retry_budget_exhaustion_raises_after_the_rest_complete(self):
        # error=1.0 on one key: every attempt fails, budget exhausts.
        chaos = ChaosPolicy(error=1.0, match="k1")
        done = []
        serial = ResilientExecutor(None, policy=FAST)
        with pytest.raises(WorkerCrashError) as info:
            serial.map_resilient(
                square,
                [1, 2, 3],
                keys=["k0", "k1", "k2"],
                chaos=chaos,
                on_result=lambda i, v: done.append((i, v)),
            )
        # Wait-freedom: the two healthy items completed (and were
        # checkpointed) before the failure surfaced; the error names
        # only the doomed key.
        assert (0, 1) in done and (2, 9) in done
        assert "k1" in str(info.value) and "k0" not in str(info.value)
        assert info.value.failures is not None
        assert set(info.value.failures) == {"k1"}
        assert isinstance(info.value.failures["k1"], ChaosInjectedError)

    def test_chaos_kill_never_kills_the_orchestrator(self):
        # In serial mode a scheduled kill must convert to an exception,
        # strike the budget, and eventually fail the item — not os._exit
        # the test process.
        chaos = ChaosPolicy(kill=1.0, match="k0")
        serial = ResilientExecutor(None, policy=FAST)
        with pytest.raises(WorkerCrashError, match="k0"):
            serial.map_resilient(square, [1], keys=["k0"], chaos=chaos)


class TestPooled:
    def test_results_in_input_order(self):
        with ResilientExecutor(2, policy=FAST) as pool:
            assert pool.map_resilient(square, list(range(8))) == [
                x * x for x in range(8)
            ]

    def test_worker_kill_recovers_bit_identically(self):
        # Kill the worker on the first attempt of one item; the rebuilt
        # pool re-dispatches and the final results match sequential.
        chaos = seed_where(
            lambda p: p.decide("k2", 0) == "kill" and p.decide("k2", 1) is None,
            kill=0.5,
            match="k2",
        )
        items = list(range(5))
        keys = [f"k{i}" for i in items]
        with ResilientExecutor(2, policy=FAST) as pool:
            results = pool.map_resilient(square, items, keys=keys, chaos=chaos)
            assert results == [square(x) for x in items]
            assert pool.rebuilds >= 1

    def test_unattributable_kills_do_not_burn_retry_budgets(self):
        # retries=0: one strike kills an item.  A worker crash marks
        # every in-flight future broken, but innocent items must keep
        # their budget — only rebuilds are spent.
        chaos = seed_where(
            lambda p: p.decide("k0", 0) == "kill" and p.decide("k0", 1) is None,
            kill=0.5,
            match="k0",
        )
        items = list(range(6))
        keys = [f"k{i}" for i in items]
        policy = RunPolicy(retries=0, backoff=0.0, tick=0.02)
        with ResilientExecutor(2, policy=policy) as pool:
            results = pool.map_resilient(square, items, keys=keys, chaos=chaos)
        assert results == [square(x) for x in items]

    def test_runaway_breakage_degrades_to_serial(self):
        # kill=1.0: every pooled attempt dies, so the pool can never
        # make progress on this item; after max_pool_rebuilds the
        # executor must degrade to serial, where the kill converts to an
        # exception and the attempt counter keeps the schedule moving.
        chaos = seed_where(
            lambda p: p.decide("k0", 0) == "kill"
            # Clean somewhere within the serial retry budget.
            and any(p.decide("k0", a) is None for a in range(1, 3)),
            kill=0.5,
            match="k0",
        )
        policy = RunPolicy(retries=2, backoff=0.0, max_pool_rebuilds=0, tick=0.02)
        records = []
        obs.log_hub.add_sink(records.append)
        try:
            with ResilientExecutor(2, policy=policy) as pool:
                results = pool.map_resilient(
                    square, [3, 4], keys=["k0", "k1"], chaos=chaos
                )
                assert results == [9, 16]
                assert pool.rebuilds == 1
        finally:
            obs.log_hub.remove_sink(records.append)
        # The rebuild and the fallback reach the structured hub (and so
        # any --access-log file), not just stdlib logging.
        events = [r["event"] for r in records if r["level"] == "warning"]
        assert events.count("pool.rebuilt") == 1
        assert events.count("pool.serial_fallback") == 1

    def test_rebuild_budget_is_per_call(self):
        # A long-lived executor (the serve daemon's) must not stay
        # serial for good once its lifetime breakages pass the budget:
        # the budget covers the rebuilds of one map, not all of them.
        chaos = seed_where(
            lambda p: p.decide("k0", 0) == "kill"
            and any(p.decide("k0", a) is None for a in range(1, 3)),
            kill=0.5,
            match="k0",
        )
        policy = RunPolicy(retries=2, backoff=0.0, max_pool_rebuilds=0, tick=0.02)
        records = []
        obs.log_hub.add_sink(records.append)
        try:
            with ResilientExecutor(2, policy=policy) as pool:
                assert pool.map_resilient(
                    square, [3, 4], keys=["k0", "k1"], chaos=chaos
                ) == [9, 16]
                assert pool.rebuilds == 1
                fallbacks = [r["event"] for r in records].count(
                    "pool.serial_fallback"
                )
                assert fallbacks == 1
                pids = pool.map_resilient(pid_of, list(range(4)))
                assert pool.rebuilds == 1
        finally:
            obs.log_hub.remove_sink(records.append)
        assert os.getpid() not in pids
        events = [r["event"] for r in records]
        assert events.count("pool.serial_fallback") == fallbacks

    def test_hung_item_times_out_and_fails_as_timeout(self):
        # One item sleeps far past the deadline; it must be charged a
        # SeedTimeoutError (a TimeoutError subclass) while the healthy
        # items complete and are checkpointed.
        done = []
        policy = RunPolicy(
            timeout=0.4, retries=0, backoff=0.0, max_pool_rebuilds=2, tick=0.02
        )
        with ResilientExecutor(2, policy=policy) as pool:
            with pytest.raises(SeedTimeoutError) as info:
                pool.map_resilient(
                    sleepy,
                    [30.0, 0.0, 0.0],
                    keys=["hang", "ok1", "ok2"],
                    on_result=lambda i, v: done.append(i),
                )
        assert isinstance(info.value, TimeoutError)
        assert "hang" in str(info.value)
        assert set(done) == {1, 2}

    def test_delay_past_timeout_then_clean_retry_succeeds(self):
        # Attempt 0 is chaos-delayed past the deadline (times out, the
        # hung worker is terminated); attempt 1 is clean and must return
        # the exact value.
        chaos = seed_where(
            lambda p: p.decide("k0", 0) == "delay" and p.decide("k0", 1) is None,
            delay=0.5,
            delay_s=30.0,
            match="k0",
        )
        policy = RunPolicy(
            timeout=0.4, retries=2, backoff=0.0, max_pool_rebuilds=3, tick=0.02
        )
        with ResilientExecutor(2, policy=policy) as pool:
            results = pool.map_resilient(
                square, [6, 7], keys=["k0", "k1"], chaos=chaos
            )
        assert results == [36, 49]

    def test_pool_broken_before_submission_is_rebuilt(self):
        # A worker dies between two maps (or during a retry's backoff):
        # the next submit raises BrokenProcessPool, a RuntimeError, which
        # must rebuild the pool rather than fail the map.
        with ResilientExecutor(2, policy=FAST) as pool:
            assert pool.map_resilient(square, [1, 2]) == [1, 4]
            live = pool._pool
            os.kill(next(iter(live._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not live._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert live._broken
            items = list(range(6))
            assert pool.map_resilient(square, items) == [
                square(x) for x in items
            ]
            assert pool.rebuilds == 1


def run_callers(*calls, stagger=0.0):
    """Run each ``call()`` in its own thread, starting them ``stagger``
    seconds apart; -> each call's return value or raised exception."""
    outcomes = [None] * len(calls)

    def run(index, call):
        try:
            outcomes[index] = call()
        except Exception as exc:
            outcomes[index] = exc

    threads = [
        threading.Thread(target=run, args=(i, call))
        for i, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
        time.sleep(stagger)
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


class TestConcurrentCallers:
    """Two threads mapping on one pool: a breakage or a hung attempt in
    one caller's items tears the pool down once and costs the other
    caller's in-flight items no strike."""

    def test_kill_in_one_caller_costs_the_other_no_strike(self):
        # A's item "a1" SIGKILLs its worker on its first attempt.  B's
        # three slow items are still running or queued on that pool
        # whichever caller submits first.
        chaos = seed_where(
            lambda p: p.decide("a1", 0) == "kill" and p.decide("a1", 1) is None,
            kill=0.5,
            match="a1",
        )
        b_items = [10, 11, 12]
        b_failures = []
        policy = RunPolicy(retries=0, backoff=0.0, tick=0.02)
        with ResilientExecutor(2, policy=policy) as pool:
            a_out, b_out = run_callers(
                lambda: pool.map_resilient(
                    square, [1, 2], keys=["a0", "a1"], chaos=chaos
                ),
                lambda: pool.map_resilient(
                    slow_square,
                    b_items,
                    keys=[f"b{x}" for x in b_items],
                    chaos=chaos,
                    on_failure=lambda key, exc, strike: b_failures.append(
                        (key, strike)
                    ),
                ),
            )
            rebuilds = pool.rebuilds
        assert a_out == [1, 4]
        assert b_out == [slow_square(x) for x in b_items]
        # B was in flight on the dead pool, and re-dispatched unstruck.
        assert b_failures
        assert not any(strike for _, strike in b_failures)
        # One real breakage, one rebuild, however many callers saw it.
        assert rebuilds == 1

    def test_hung_attempt_in_one_caller_costs_the_other_no_strike(self):
        # A's item hangs past its deadline, so A tears the pool down;
        # B (no retry budget at all) has items queued on it, whose
        # futures that teardown cancels.
        b_items = list(range(10, 20))
        hung = RunPolicy(timeout=0.5, retries=0, backoff=0.0, tick=0.02)
        strict = RunPolicy(retries=0, backoff=0.0, tick=0.02)
        with ResilientExecutor(2, policy=strict) as pool:
            a_out, b_out = run_callers(
                lambda: pool.map_resilient(
                    sleepy, [30.0], keys=["hang"], policy=hung
                ),
                lambda: pool.map_resilient(
                    slow_square, b_items, keys=[f"b{x}" for x in b_items]
                ),
                # A's attempt is running before B submits.
                stagger=0.2,
            )
            rebuilds = pool.rebuilds
        assert isinstance(a_out, SeedTimeoutError)
        assert b_out == [slow_square(x) for x in b_items]
        assert rebuilds == 1

    def test_serial_items_of_concurrent_callers_take_turns(self):
        # In-process runs share the process-global obs registry, so the
        # serial path never runs two items at once.
        active, peak = [0], [0]
        lock = threading.Lock()

        def counted(x):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.02)
            with lock:
                active[0] -= 1
            return x * x

        serial = ResilientExecutor(None, policy=FAST)
        outcomes = run_callers(
            lambda: serial.map_resilient(counted, [1, 2, 3]),
            lambda: serial.map_resilient(counted, [4, 5, 6]),
        )
        assert outcomes == [[1, 4, 9], [16, 25, 36]]
        assert peak[0] == 1


class TestRunBatchUnderChaos:
    SCENARIO = Scenario(
        workload="asymmetric",
        n=6,
        f=1,
        scheduler="round-robin",
        crashes="after-move",
        movement="rigid",
        max_rounds=2_000,
    )

    def assert_batches_equal(self, a, b):
        assert len(a) == len(b)
        for left, right in zip(a, b):
            assert left.verdict == right.verdict
            assert left.rounds == right.rounds
            assert left.final_positions == right.final_positions
            assert left.total_distance == right.total_distance
            assert left.classes_seen == right.classes_seen

    def test_chaotic_parallel_sweep_matches_sequential(self, tmp_path):
        seeds = list(range(6))
        baseline = run_batch(self.SCENARIO, seeds, chaos=ChaosPolicy())
        chaos = ChaosPolicy(seed=3, kill=0.3, error=0.1)
        journal_path = str(tmp_path / "sweep.jsonl")
        chaotic = run_batch(
            self.SCENARIO,
            seeds,
            workers=2,
            policy=RunPolicy(retries=6, backoff=0.0, tick=0.02),
            chaos=chaos,
            journal_path=journal_path,
        )
        self.assert_batches_equal(baseline, chaotic)
        # Every seed was checkpointed, and the journaled results resume
        # bit-identically.
        from repro.resilience import SweepJournal

        completed = SweepJournal.peek(journal_path, self.SCENARIO.to_dict())
        assert sorted(completed) == seeds
        self.assert_batches_equal(
            baseline, [completed[seed] for seed in seeds]
        )

    def test_resume_skips_completed_seeds(self, tmp_path, monkeypatch):
        seeds = list(range(4))
        journal_path = str(tmp_path / "sweep.jsonl")
        run_batch(self.SCENARIO, seeds[:2], journal_path=journal_path)

        # Resuming over the full range must only execute the two
        # missing seeds.
        import repro.experiments.runner as runner_module

        executed = []
        original = runner_module.run_scenario

        def counting(scenario, seed, **kwargs):
            executed.append(seed)
            return original(scenario, seed, **kwargs)

        monkeypatch.setattr(runner_module, "run_scenario", counting)
        results = run_batch(
            self.SCENARIO, seeds, journal_path=journal_path, resume=True
        )
        assert executed == [2, 3]
        self.assert_batches_equal(
            run_batch(self.SCENARIO, seeds, chaos=ChaosPolicy()), results
        )
