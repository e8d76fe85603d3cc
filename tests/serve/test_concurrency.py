"""Store races under real concurrency: exactly-once computation.

``N`` threads fire identical and distinct ``POST /run``\\ s through real
sockets at once.  The properties under test are the cache's soundness
guarantees, which must hold for *every* interleaving:

* one computation per content address (duplicates coalesce or hit);
* every response body for one key is byte-identical;
* the request/cache counters add up — nothing double-counted, nothing
  lost.

And the simulation slots: a daemon with a pool computes misses for
different keys on every worker at once, a daemon without one computes
one seed at a time.
"""

import json
import multiprocessing
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro.resilience.pool as pool_module
import repro.serve.server as server_module
from repro.experiments.runner import run_scenario
from repro.resilience import RunPolicy

from .client import serving

SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5000,
}


#: Two-party barrier of :func:`rendezvous_run`, made before the pool
#: forks so both workers inherit it.
_RENDEZVOUS = None


def rendezvous_run(scenario, seed):
    """``run_scenario`` that first waits for a second run to start, so
    it returns only if two runs overlap in time."""
    _RENDEZVOUS.wait(timeout=10)
    return run_scenario(scenario, seed)


#: Set by :func:`slow_run` once a run has started; made before the pool
#: forks, like :data:`_RENDEZVOUS`.
_STARTED = None


def slow_run(scenario, seed):
    """``run_scenario`` that signals it started, then takes a second."""
    _STARTED.set()
    time.sleep(1.0)
    return run_scenario(scenario, seed)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers inherit the synchronization object by fork",
)


def fire_concurrently(client, payloads):
    """POST /run for every payload at once (barrier start); -> results."""
    results = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def worker(index, payload):
        barrier.wait()
        results[index] = client.request("POST", "/run", payload)

    threads = [
        threading.Thread(target=worker, args=(i, p))
        for i, p in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestIdenticalRequests:
    def test_duplicates_compute_exactly_once(self, tmp_path):
        n_clients = 8
        with serving(store_root=str(tmp_path / "store")) as client:
            payload = {"scenario": SCENARIO, "seed": 42}
            results = fire_concurrently(client, [payload] * n_clients)

            bodies = set()
            states = []
            for status, headers, raw in results:
                assert status == 200
                bodies.add(raw)
                states.append(headers["X-Repro-Cache"])
            # Byte-identical bodies, whichever path each request took.
            assert len(bodies) == 1
            assert json.loads(bodies.pop())["seed"] == 42

            # Exactly-once: one store fill for one content address,
            # however many requests raced for it.
            store = client.server.store
            assert store.stores == 1
            assert len(store) == 1

            # Every request is accounted for exactly once: the leader
            # is the miss, every other is a hit (arrived after the fill)
            # or coalesced (arrived during the computation).
            document = client.metrics()
            requests = document["requests"]
            assert requests["serve.run.requests"] == n_clients
            assert requests.get("serve.cache.miss", 0) == 1
            accounted = (
                requests.get("serve.cache.miss", 0)
                + requests.get("serve.cache.hit", 0)
                + requests.get("serve.cache.coalesced", 0)
            )
            assert accounted == n_clients
            assert document["robustness"]["coalesced"] == requests.get(
                "serve.cache.coalesced", 0
            )
            assert states.count("miss") == 1

    def test_coalesced_followers_wait_for_leader(self, tmp_path):
        # Hold the only simulation slot of a daemon without a pool:
        # followers for the same key must then overlap the leader and
        # coalesce (not recompute) once it releases.
        with serving(store_root=str(tmp_path / "store")) as client:
            release = threading.Event()
            client.server._slots.acquire()
            holder = threading.Thread(
                target=lambda: (
                    release.wait(10),
                    client.server._slots.release(),
                )
            )
            holder.start()
            try:
                payload = {"scenario": SCENARIO, "seed": 7}
                results_box = {}

                def racers():
                    results_box["r"] = fire_concurrently(
                        client, [payload] * 4
                    )

                thread = threading.Thread(target=racers)
                thread.start()
                # All four requests are now parked (one on the slot,
                # three on the flight); let them go.
                deadline_t = threading.Event()
                deadline_t.wait(0.2)
                release.set()
                thread.join(timeout=30)
            finally:
                release.set()
                holder.join(timeout=10)
            results = results_box["r"]
            assert [status for status, _, _ in results] == [200] * 4
            assert len({raw for _, _, raw in results}) == 1
            assert client.server.store.stores == 1
            assert client.server.flights.coalesced >= 1


class TestDistinctRequests:
    def test_distinct_seeds_all_compute_once(self, tmp_path):
        seeds = list(range(10))
        with serving(store_root=str(tmp_path / "store")) as client:
            payloads = [{"scenario": SCENARIO, "seed": s} for s in seeds]
            results = fire_concurrently(client, payloads)
            for seed, (status, _, raw) in zip(seeds, results):
                assert status == 200
                assert json.loads(raw)["seed"] == seed
            store = client.server.store
            assert store.stores == len(seeds)
            assert len(store) == len(seeds)

            # Replaying the same batch is all hits, byte-identical.
            replay = fire_concurrently(client, payloads)
            assert [r[2] for r in replay] == [r[2] for r in results]
            assert store.stores == len(seeds)  # nothing recomputed
            hits = client.metrics()["requests"]["serve.cache.hit"]
            assert hits >= len(seeds)


class TestSimulationSlots:
    @fork_only
    def test_pooled_misses_for_different_keys_overlap(self, monkeypatch):
        # Each run waits for a second one: with one slot per worker the
        # two cold misses meet at the barrier; behind one slot the first
        # times out there and the request fails (no retries).
        monkeypatch.setattr(
            f"{__name__}._RENDEZVOUS", multiprocessing.Barrier(2)
        )
        monkeypatch.setattr(server_module, "run_scenario", rendezvous_run)
        with serving(workers=2, policy=RunPolicy(retries=0)) as client:
            payloads = [{"scenario": SCENARIO, "seed": s} for s in (1, 2)]
            results = fire_concurrently(client, payloads)
            for seed, (status, headers, raw) in zip((1, 2), results):
                assert status == 200, raw
                assert headers["X-Repro-Cache"] == "miss"
                assert json.loads(raw)["seed"] == seed

    @fork_only
    def test_run_behind_a_sweep_block_waits_for_a_slot(self, monkeypatch):
        # A two-seed sweep block fills both workers, so it holds both
        # slots: a concurrent /run waits for a slot, not inside the
        # pool, and its short deadline is a 504 that costs the sweep no
        # strike and the pool no rebuild.
        monkeypatch.setattr(f"{__name__}._STARTED", multiprocessing.Event())
        monkeypatch.setattr(server_module, "run_scenario", slow_run)
        charges = []
        charge = pool_module._MapState.charge

        def recording_charge(state, index, exc, strike=True):
            charges.append((state.keys[index], strike))
            charge(state, index, exc, strike)

        monkeypatch.setattr(pool_module._MapState, "charge", recording_charge)
        with serving(workers=2) as client:
            box = {}
            sweeper = threading.Thread(
                target=lambda: box.update(
                    sweep=client.sweep(SCENARIO, seed_start=0, seed_count=2)
                )
            )
            sweeper.start()
            try:
                assert _STARTED.wait(30)
                status, _, raw = client.run(SCENARIO, seed=9, deadline_s=0.3)
            finally:
                sweeper.join(timeout=60)
            assert status == 504, raw
            assert json.loads(raw)["error"] == "RequestDeadlineError"
            sweep_status, _, sweep_raw = box["sweep"]
            assert sweep_status == 200
            lines = [json.loads(line) for line in sweep_raw.splitlines()]
            assert [line["seed"] for line in lines[:-1]] == [0, 1]
            assert client.server._pool.rebuilds == 0
            assert client.server.store.stores == 2
            breaker = client.metrics()["robustness"]["breaker"]
            assert breaker["recent_failures"] == 0
        assert charges == []

    def test_daemon_without_pool_computes_one_seed_at_a_time(
        self, monkeypatch
    ):
        # In-process runs share the process-global obs registry their
        # payloads are deltas of, so they never overlap.
        active, peak = [0], [0]
        lock = threading.Lock()

        def counted_run(scenario, seed):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                time.sleep(0.05)
                return run_scenario(scenario, seed)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(server_module, "run_scenario", counted_run)
        with serving() as client:
            payloads = [{"scenario": SCENARIO, "seed": s} for s in range(4)]
            results = fire_concurrently(client, payloads)
            assert [status for status, _, _ in results] == [200] * 4
            assert client.server.store.stores == 4
        assert peak[0] == 1

    def test_concurrent_accounting_loses_no_update(self):
        # Dispatches in different slots fold their results at once; a
        # tiny switch interval makes an unguarded += lose updates.
        results = [
            SimpleNamespace(
                rounds=3, verdict="gathered", obs={"pid": 0, "metrics": {}}
            )
        ] * 2000
        with serving() as client:
            start = threading.Barrier(8)

            def dispatch():
                start.wait(timeout=30)
                client.server._account(results, "serve.run")

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=dispatch) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            sweep = client.metrics()["sweep"]
        assert sweep["seeds"]["done"] == 16000
        assert sweep["rounds"]["total"] == 48000
        assert sweep["verdicts"] == {"gathered": 16000}
