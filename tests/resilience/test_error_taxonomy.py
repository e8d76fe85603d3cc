"""Worker exceptions must surface through the structured taxonomy.

Regression for the broad ``except Exception`` the pool used to rely on:
a worker raising a *non*-``Exception`` ``BaseException`` (``sys.exit``,
``GeneratorExit``) escaped the retry loop and aborted the whole sweep —
forfeiting wait-freedom — instead of being charged to its item as a
crash.  These tests pin the fixed contract: any such escapee is wrapped
as :class:`WorkerCrashError`, retried on its own budget, reported once
in the final taxonomy-typed failure, and never blocks the other items.
"""

import logging

import pytest

from repro import obs
from repro.resilience import (
    ChaosPolicy,
    ResilientExecutor,
    RunPolicy,
    WorkerCrashError,
)
from repro.resilience import pool as pool_module

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

FAST = RunPolicy(retries=1, backoff=0.0, tick=0.02)

NO_CHAOS = ChaosPolicy()


def square(x):
    return x * x


def exit_on_three(x):
    # SystemExit subclasses BaseException, not Exception: the classic
    # taxonomy escapee (a worker calling sys.exit() from a CLI shim).
    if x == 3:
        raise SystemExit(86)
    return x * x


@pytest.fixture(autouse=True)
def _reset_warn_once():
    # The warn-once registry is process-global by design; isolate tests.
    obs.log_hub.reset()
    yield
    obs.log_hub.reset()


class TestBaseExceptionSurfacesAsWorkerCrash:
    def test_serial(self):
        serial = ResilientExecutor(None, policy=FAST)
        with pytest.raises(WorkerCrashError) as err:
            serial.map_resilient(
                exit_on_three, [1, 3], keys=["k1", "k3"], chaos=NO_CHAOS
            )
        assert "k3" in str(err.value)
        assert "SystemExit" in str(err.value)
        assert set(err.value.failures) == {"k3"}
        assert isinstance(err.value.failures["k3"], WorkerCrashError)

    def test_pooled(self):
        executor = ResilientExecutor(2, policy=FAST)
        try:
            with pytest.raises(WorkerCrashError) as err:
                executor.map_resilient(
                    exit_on_three,
                    [1, 3],
                    keys=["k1", "k3"],
                    chaos=NO_CHAOS,
                )
        finally:
            executor.shutdown(cancel=True)
        assert set(err.value.failures) == {"k3"}

    def test_other_items_still_complete(self):
        # Wait-freedom: the doomed item fails alone; every healthy item
        # is computed and checkpointed.
        seen = []
        serial = ResilientExecutor(None, policy=FAST)
        with pytest.raises(WorkerCrashError):
            serial.map_resilient(
                exit_on_three,
                [1, 2, 3, 4],
                keys=["k1", "k2", "k3", "k4"],
                chaos=NO_CHAOS,
                on_result=lambda i, v: seen.append((i, v)),
            )
        assert (0, 1) in seen and (1, 4) in seen and (3, 16) in seen

    def test_warns_once_not_per_retry(self, caplog):
        serial = ResilientExecutor(None, policy=RunPolicy(retries=3, backoff=0.0))
        with caplog.at_level(logging.WARNING, logger=pool_module.logger.name):
            with pytest.raises(WorkerCrashError):
                serial.map_resilient(
                    exit_on_three, [3], keys=["k3"], chaos=NO_CHAOS
                )
        warnings = [
            rec for rec in caplog.records if "SystemExit" in rec.getMessage()
        ]
        assert len(warnings) == 1  # four attempts, one log line
        assert "warning once" in warnings[0].getMessage()


class TestObserverFailuresAreContained:
    def test_raising_on_failure_observer_warns_once(self, caplog):
        def bad_observer(key, exc, strike):
            raise RuntimeError("observer bug")

        serial = ResilientExecutor(None, policy=FAST)
        with caplog.at_level(logging.WARNING, logger=pool_module.logger.name):
            with pytest.raises(WorkerCrashError):
                serial.map_resilient(
                    exit_on_three,
                    [3],
                    keys=["k3"],
                    chaos=NO_CHAOS,
                    on_failure=bad_observer,
                )
        observer_warnings = [
            rec
            for rec in caplog.records
            if "on_failure observer raised" in rec.getMessage()
        ]
        # Two attempts -> two observer calls, but one log line.
        assert len(observer_warnings) == 1

    def test_raising_observer_does_not_change_results(self):
        def bad_observer(key, exc, strike):
            raise RuntimeError("observer bug")

        chaos = None
        for seed in range(10_000):
            candidate = ChaosPolicy(seed=seed, error=0.5, match="k1")
            if (
                candidate.decide("k1", 0) == "error"
                and candidate.decide("k1", 1) is None
            ):
                chaos = candidate
                break
        assert chaos is not None
        serial = ResilientExecutor(None, policy=FAST)
        assert serial.map_resilient(
            square,
            [1, 2],
            keys=["k1", "k2"],
            chaos=chaos,
            on_failure=bad_observer,
        ) == [1, 4]
