"""Unit tests for the serve self-protection primitives.

These exercise :mod:`repro.serve.admission` directly — no HTTP, no
simulator — so every property (budget arithmetic, deadline clocks,
coalescing, breaker state machine) is pinned at the layer that owns it.
The server-level tests then only need to prove the wiring.
"""

import sys
import threading
import time

import pytest

from repro.resilience import RequestDeadlineError, ServerOverloadedError
from repro.serve.admission import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    SimulationSlots,
    SingleFlight,
)


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired
        deadline.check("anywhere")  # never raises

    def test_bounded_counts_down_and_expires(self):
        deadline = Deadline(60.0)
        remaining = deadline.remaining()
        assert 0 < remaining <= 60.0
        assert not deadline.expired

        expired = Deadline(0.0)
        assert expired.expired
        assert expired.remaining() == 0.0
        with pytest.raises(RequestDeadlineError) as excinfo:
            expired.check("while testing")
        assert "while testing" in str(excinfo.value)
        assert excinfo.value.http_status == 504


class TestAdmissionController:
    def test_unbounded_budget_counts_but_never_sheds(self):
        admission = AdmissionController(None)
        for _ in range(100):
            admission.acquire(5, endpoint="run")
        assert admission.inflight == 500
        assert admission.active_requests == 100

    def test_budget_sheds_with_429(self):
        admission = AdmissionController(2)
        admission.acquire(1, endpoint="run")
        admission.acquire(1, endpoint="run")
        with pytest.raises(ServerOverloadedError) as excinfo:
            admission.acquire(1, endpoint="run")
        assert excinfo.value.http_status == 429
        assert excinfo.value.retry_after_s >= 1.0
        # Releasing frees the unit for the next request.
        admission.release(1)
        admission.acquire(1, endpoint="run")

    def test_overweight_request_admitted_only_when_idle(self):
        admission = AdmissionController(4, sweep_weight=8)
        # Idle daemon: a sweep heavier than the whole budget still runs —
        # a budget must never make a legal request impossible.
        admission.acquire(admission.weight_for("sweep"), endpoint="sweep")
        assert admission.inflight == 8
        # But while it holds the budget, everything else is shed.
        with pytest.raises(ServerOverloadedError):
            admission.acquire(1, endpoint="run")
        admission.release(8)
        admission.acquire(1, endpoint="run")

    def test_weight_for_endpoints(self):
        admission = AdmissionController(None, sweep_weight=7)
        assert admission.weight_for("run") == 1
        assert admission.weight_for("sweep") == 7

    def test_drain_waits_for_inflight(self):
        admission = AdmissionController(None)
        admission.acquire(1, endpoint="run")

        def finish():
            time.sleep(0.05)
            admission.release(1)

        thread = threading.Thread(target=finish)
        thread.start()
        assert admission.drain(5.0) is True
        thread.join()
        assert admission.inflight == 0

    def test_drain_times_out_when_stuck(self):
        admission = AdmissionController(None)
        admission.acquire(1, endpoint="run")
        assert admission.drain(0.05) is False

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(None, sweep_weight=0)


class TestSimulationSlots:
    def test_a_dispatch_takes_one_slot_per_seed_up_to_the_total(self):
        slots = SimulationSlots(2)
        assert slots.acquire(16)  # a sweep block fills every worker
        assert not slots.acquire(1, timeout=0.05)
        slots.release(16)
        assert slots.acquire(1)
        assert slots.acquire(1)
        assert not slots.acquire(1, timeout=0)
        slots.release(1)
        slots.release(1)
        assert slots.acquire(2, timeout=0)

    def test_waiters_are_served_in_arrival_order(self):
        # A wide dispatch at the head of the queue is not overtaken by
        # a narrow one that would fit in the slot already free.
        slots = SimulationSlots(2)
        assert slots.acquire(1)
        wide = threading.Thread(target=slots.acquire, args=(2, 30))
        wide.start()
        deadline = time.monotonic() + 30
        while not slots._queue and time.monotonic() < deadline:
            time.sleep(0.001)
        assert not slots.acquire(1, timeout=0.1)
        slots.release(1)
        wide.join(timeout=30)
        assert not wide.is_alive()
        assert not slots.acquire(1, timeout=0)
        slots.release(2)
        assert slots.acquire(2, timeout=0)

    def test_busy_slots_never_exceed_the_total(self):
        slots = SimulationSlots(2)
        busy, peak, timeouts = [0], [0], []
        lock = threading.Lock()
        start = threading.Barrier(8)

        def dispatch(seeds):
            width = min(seeds, slots.total)
            start.wait(timeout=30)
            for _ in range(200):
                if not slots.acquire(seeds, timeout=30):
                    timeouts.append(seeds)
                    return
                with lock:
                    busy[0] += width
                    peak[0] = max(peak[0], busy[0])
                with lock:
                    busy[0] -= width
                slots.release(seeds)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=dispatch, args=(1 + i % 3,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timeouts == []
        assert peak[0] == 2
        assert slots.acquire(2, timeout=0)


class TestSingleFlight:
    def test_leader_then_follower_share_one_body(self):
        flights = SingleFlight()
        leader, flight = flights.lead_or_follow("k")
        assert leader
        follower, same = flights.lead_or_follow("k")
        assert not follower
        assert same is flight
        assert flights.coalesced == 1

        results = []
        waiter = threading.Thread(
            target=lambda: results.append(
                SingleFlight.wait(flight, Deadline(5.0))
            )
        )
        waiter.start()
        flights.finish("k", flight, body="BODY")
        waiter.join()
        assert results == ["BODY"]
        # The flight is gone: the next request for the key leads anew.
        leader, _ = flights.lead_or_follow("k")
        assert leader

    def test_followers_inherit_leader_error(self):
        flights = SingleFlight()
        _, flight = flights.lead_or_follow("k")
        flights.lead_or_follow("k")
        flights.finish("k", flight, error=RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            SingleFlight.wait(flight, Deadline(None))

    def test_follower_deadline_is_a_504(self):
        flights = SingleFlight()
        _, flight = flights.lead_or_follow("k")
        with pytest.raises(RequestDeadlineError):
            SingleFlight.wait(flight, Deadline(0.01))

    def test_distinct_keys_do_not_coalesce(self):
        flights = SingleFlight()
        assert flights.lead_or_follow("a")[0]
        assert flights.lead_or_follow("b")[0]
        assert flights.coalesced == 0


class TestCircuitBreaker:
    def test_opens_at_threshold_and_success_closes(self):
        breaker = CircuitBreaker(threshold=3, window_s=30.0, cooldown_s=60.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.snapshot()["recent_failures"] == 0

    def test_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, window_s=30.0, cooldown_s=0.02)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        time.sleep(0.03)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_window_prunes_stale_failures(self):
        breaker = CircuitBreaker(threshold=2, window_s=0.02, cooldown_s=60.0)
        breaker.record_failure()
        time.sleep(0.03)
        # The first failure fell out of the window: still closed.
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(threshold=5, window_s=30.0, cooldown_s=10.0)
        snapshot = breaker.snapshot()
        assert snapshot == {
            "state": "closed",
            "recent_failures": 0,
            "threshold": 5,
            "window_s": 30.0,
            "cooldown_s": 10.0,
            "trips": 0,
        }

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
