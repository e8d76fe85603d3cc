"""Where the traced run wraps the program, and the per-layer metrics.

Each layer boundary is a public function or method of one ``repro``
module.  :func:`install_all` wraps them through a :class:`~spans.Tracer`
(in the benchmark process, before any pool forks); :func:`metrics`
turns the folded spans into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List


def _store_get_tag(args, kwargs, result):
    if not kwargs.get("count", True):
        return "peek"
    return "hit" if result is not None else "miss"


def _step_round_tag(args, kwargs, result):
    # step_round returns the number of sims it stepped.
    return str(result)


def _memo_counter(args, kwargs):
    # Peek at the instance cache after the same backend check memo()
    # makes, to tell a cached lookup from a computed one.
    config, key = args[0], args[1]
    config._validate_cache_backend()
    return "hit" if key in config._cache else "miss"


def _request_op(args):
    """The op id a client put in the request id (``pb-<op>``)."""
    rid = args[0].headers.get("X-Repro-Request-Id", "")
    return int(rid[3:]) if rid.startswith("pb-") and rid[3:].isdigit() else None


def _flight_counter(args, kwargs):
    # A key already in flight makes the caller a follower.  Read without
    # the lock: it only feeds a count.
    flights, key = args[0], args[1]
    return "coalesced" if key in flights._flights else "led"


def install_all(tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    # Packages re-export functions named like their modules (e.g.
    # ``repro.core.safe_points``), so modules are looked up by path.
    (workloads, wait_free, classification, configuration, election,
     safe_points, views, runner, kernels, weber, aggregate, journal, pool,
     admission, protocol, server, store, batch, engine, gathering,
     movement) = (
        importlib.import_module(f"repro.{path}")
        for path in (
            "workloads", "algorithms.wait_free", "core.classification",
            "core.configuration", "core.election", "core.safe_points",
            "core.views", "experiments.runner", "geometry.kernels",
            "geometry.weber", "obs.aggregate", "resilience.journal",
            "resilience.pool", "serve.admission", "serve.protocol",
            "serve.server", "serve.store", "sim.batch", "sim.engine",
            "sim.gathering", "sim.movement",
        )
    )

    tracer.function(workloads, "generate", "workloads.generate")
    for name in ("geometric_median", "linear_weber_interval"):
        tracer.function(weber, name, "geometry.weber")
    for name in kernels.__all__:
        if name.startswith("batched_"):
            tracer.function(kernels, name, "geometry.kernels.batched")
        elif name in {"near_pairs", "batch_polar_views", "max_ray_loads",
                      "distance_sums", "unit_vector_sum", "weiszfeld",
                      "pairwise_diameter"}:
            tracer.function(kernels, name, "geometry.kernels")
    tracer.method(configuration.Configuration, "__init__", "core.configuration")
    tracer.counter(configuration.Configuration, "memo", "core.memo",
                   _memo_counter)
    tracer.function(classification, "classify", "core.classify")
    for name in ("view_table", "view_of", "equivalence_classes", "symmetry"):
        tracer.function(views, name, "core.views")
    for name in ("safe_points", "all_max_ray_loads", "max_ray_load",
                 "is_safe_point"):
        tracer.function(safe_points, name, "core.safe_points")
    for name in ("elect", "election_key"):
        tracer.function(election, name, "core.election")
    tracer.method(wait_free.WaitFreeGather, "compute", "algorithms.compute")
    tracer.method(engine.Simulation, "step", "sim.step")
    tracer.method(engine.Simulation, "run", "sim.run")
    for cls in vars(movement).values():
        if isinstance(cls, type) and cls.__module__ == movement.__name__:
            for name in ("endpoint", "endpoint_for"):
                if name in cls.__dict__:
                    tracer.method(cls, name, "sim.move")
    tracer.function(gathering, "gathered_point", "sim.gathered")
    tracer.method(batch.BatchedSimulation, "step_round",
                  "sim.batch.step_round", tag=_step_round_tag)
    tracer.method(batch.BatchedSimulation, "run_all", "sim.batch.run")
    tracer.function(runner, "run_scenario", "runner.run_scenario")
    tracer.function(runner, "_run_batched_chunk", "runner.chunk")
    tracer.method(pool.ResilientExecutor, "map_resilient", "resilience.pool.map")
    tracer.method(pool.ResilientExecutor, "_kill_pool", "resilience.pool.rebuild")
    tracer.method(pool._MapState, "charge", "resilience.pool.retry")
    tracer.function(pool, "_worker_call", "resilience.pool.worker", flush=True)
    tracer.method(journal.SweepJournal, "append", "resilience.journal.append")
    tracer.method(server._Handler, "do_POST", "serve.http", op_of=_request_op)
    tracer.method(admission.AdmissionController, "acquire", "serve.admission")
    tracer.counter(admission.SingleFlight, "lead_or_follow",
                   "serve.singleflight", _flight_counter)
    tracer.function(store, "result_key", "serve.key")
    tracer.method(store.ResultStore, "get", "serve.store.get",
                  tag=_store_get_tag)
    tracer.method(store.ResultStore, "put", "serve.store.put")
    tracer.method(server.ReproServer, "resolve_one", "serve.resolve")
    for name in ("parse_json_body", "parse_run_request", "run_body"):
        tracer.function(protocol, name, "serve.protocol")
    for name in ("capture_before", "seed_payload", "namespace_delta"):
        tracer.function(aggregate, name, "obs.payload")
    tracer.method(aggregate.Aggregator, "add_metrics", "obs.payload")


#: Per-layer metrics in BENCHMARK.json order, with their units.
PER_LAYER = [
    ("workloads.generate.calls", "count"),
    ("workloads.generate.self_s", "s"),
    ("geometry.weber.self_s", "s"),
    ("geometry.kernels.calls", "count"),
    ("geometry.kernels.self_s", "s"),
    ("geometry.kernels.batched.calls", "count"),
    ("geometry.kernels.batched.self_s", "s"),
    ("core.configuration.builds", "count"),
    ("core.configuration.self_s", "s"),
    ("core.classify.calls", "count"),
    ("core.classify.self_s", "s"),
    ("core.views.self_s", "s"),
    ("core.safe_points.self_s", "s"),
    ("core.election.self_s", "s"),
    ("core.memo.hit_ratio", "ratio"),
    ("algorithms.compute.calls", "count"),
    ("algorithms.compute.self_s", "s"),
    ("sim.rounds", "count"),
    ("sim.step.self_s", "s"),
    ("sim.move.self_s", "s"),
    ("sim.gathered.self_s", "s"),
    ("sim.batch.rounds", "count"),
    ("sim.batch.sim_rounds", "count"),
    ("sim.batch.step_round.self_s", "s"),
    ("sim.batch.occupancy", "ratio"),
    ("runner.run_scenario.self_s", "s"),
    ("runner.chunk.self_s", "s"),
    ("resilience.pool.ipc_s", "s"),
    ("resilience.pool.worker_busy_share", "ratio"),
    ("resilience.pool.retries", "count"),
    ("resilience.pool.rebuilds", "count"),
    ("resilience.journal.appends", "count"),
    ("resilience.journal.append_s", "s"),
    ("serve.http.self_s", "s"),
    ("serve.admission.self_s", "s"),
    ("serve.admission.rejected", "count"),
    ("serve.key.self_s", "s"),
    ("serve.store.get.self_s", "s"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.store.put.calls", "count"),
    ("serve.store.put.self_s", "s"),
    ("serve.resolve.self_s", "s"),
    ("serve.singleflight.coalesced", "count"),
    ("serve.protocol.self_s", "s"),
    ("serve.hit_latency_p50_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("obs.payload.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.residual_share", "ratio"),
    ("host.calib_ms", "ms"),
]

#: Span intervals kept across processes for the pool IPC match.
KEEP = ("resilience.pool.map", "resilience.pool.worker")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pool_ipc(maps: List[tuple], workers: List[tuple]) -> float:
    """Parent-side wait not covered by worker compute, summed over calls.

    For each ``map_resilient`` call, the call's wall time minus the
    longest worker item that ran inside it: the items of one call run in
    parallel, so the longest one is what the caller had to wait for, and
    the rest is pickling, queueing and wake-ups.
    """
    workers = sorted(workers)
    total = 0.0
    for start, end in maps:
        longest = max(
            (e - s for s, e in workers if s >= start and e <= end),
            default=0.0,
        )
        total += max((end - start) - longest, 0.0)
    return total


def metrics(fold, *, chunk_size: int, pool_workers: int,
            traced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of the traced set-up and pass (timings sum over
    both; ``traced_wall`` spans both)."""
    calls = lambda name: fold.calls.get(name, 0)  # noqa: E731
    self_s = lambda name: fold.self_s.get(name, 0.0)  # noqa: E731
    batch_rounds = calls("sim.batch.step_round")
    sim_rounds = sum(
        int(label) * count
        for label, count in fold.tags.get("sim.batch.step_round", {}).items()
        if label.isdigit()
    )
    worker_busy = fold.total_s.get("resilience.pool.worker", 0.0)
    memo_hits = fold.counters.get("core.memo.hit", 0)
    memo_all = memo_hits + fold.counters.get("core.memo.miss", 0)
    hits = fold.tag("serve.store.get", "hit")
    misses = fold.tag("serve.store.get", "miss")
    return {
        "workloads.generate.calls": calls("workloads.generate"),
        "workloads.generate.self_s": self_s("workloads.generate"),
        "geometry.weber.self_s": self_s("geometry.weber"),
        "geometry.kernels.calls": calls("geometry.kernels"),
        "geometry.kernels.self_s": self_s("geometry.kernels"),
        "geometry.kernels.batched.calls": calls("geometry.kernels.batched"),
        "geometry.kernels.batched.self_s": self_s("geometry.kernels.batched"),
        "core.configuration.builds": calls("core.configuration"),
        "core.configuration.self_s": self_s("core.configuration"),
        "core.classify.calls": calls("core.classify"),
        "core.classify.self_s": self_s("core.classify"),
        "core.views.self_s": self_s("core.views"),
        "core.safe_points.self_s": self_s("core.safe_points"),
        "core.election.self_s": self_s("core.election"),
        "core.memo.hit_ratio": _ratio(memo_hits, memo_all),
        "algorithms.compute.calls": calls("algorithms.compute"),
        "algorithms.compute.self_s": self_s("algorithms.compute"),
        "sim.rounds": calls("sim.step"),
        # The run loop around step() is part of the same ladder.
        "sim.step.self_s": self_s("sim.step") + self_s("sim.run"),
        "sim.move.self_s": self_s("sim.move"),
        "sim.gathered.self_s": self_s("sim.gathered"),
        "sim.batch.rounds": batch_rounds,
        "sim.batch.sim_rounds": sim_rounds,
        "sim.batch.step_round.self_s": self_s("sim.batch.step_round")
        + self_s("sim.batch.run"),
        "sim.batch.occupancy": _ratio(sim_rounds, batch_rounds * chunk_size),
        "runner.run_scenario.self_s": self_s("runner.run_scenario"),
        "runner.chunk.self_s": self_s("runner.chunk"),
        "resilience.pool.ipc_s": pool_ipc(
            fold.intervals.get("resilience.pool.map", []),
            fold.intervals.get("resilience.pool.worker", []),
        ),
        "resilience.pool.worker_busy_share": _ratio(
            worker_busy, pool_workers * traced_wall
        ),
        "resilience.pool.retries": calls("resilience.pool.retry"),
        "resilience.pool.rebuilds": calls("resilience.pool.rebuild"),
        "resilience.journal.appends": calls("resilience.journal.append"),
        "resilience.journal.append_s": fold.total_s.get(
            "resilience.journal.append", 0.0
        ),
        "serve.http.self_s": self_s("serve.http"),
        "serve.admission.self_s": self_s("serve.admission"),
        "serve.admission.rejected": fold.tag("serve.admission", "raised"),
        "serve.key.self_s": self_s("serve.key"),
        "serve.store.get.self_s": self_s("serve.store.get"),
        "serve.store.hit_ratio": _ratio(hits, hits + misses),
        "serve.store.put.calls": calls("serve.store.put"),
        "serve.store.put.self_s": self_s("serve.store.put"),
        "serve.resolve.self_s": self_s("serve.resolve"),
        "serve.singleflight.coalesced": fold.counters.get(
            "serve.singleflight.coalesced", 0
        ),
        "serve.protocol.self_s": self_s("serve.protocol"),
        "obs.payload.self_s": self_s("obs.payload"),
        "trace.residual_share": _ratio(fold.op_residual, fold.op_wall),
    }


def median(values):
    return statistics.median(values) if values else 0.0
