"""Command-line interface: ``repro-gather`` (or ``python -m repro``).

Three subcommands:

``simulate``
    Run one simulation and print the outcome (optionally a round-by-round
    transcript).

``classify``
    Generate a workload and print its Section IV classification together
    with the derived structure (symmetry, quasi-regularity, safe points,
    Weber point when exactly computable).

``experiment``
    Run one of the E1-E17 experiments (or ``all``) and print its tables;
    this is how EXPERIMENTS.md was produced.  ``--workers N`` shards the
    seed sweeps over processes.

``bench``
    Measure the published scaling numbers (scalar, batched and serve)
    and append them to ``BENCH_micro.json``.

``check``
    The reproducibility gate: re-simulate archived traces and verify
    bit-identical replay (``--replay``, ``--corpus``) and run the
    invariant suite over archives offline (``--invariants``).

``sweep``
    Run one scenario over a seed range under the resilient execution
    layer: per-seed timeouts and bounded retries (``--timeout``,
    ``--retries``), a crash-safe checkpoint journal (``--journal``) and
    resumption after a kill (``--resume``).  Results are bit-identical
    to a sequential run regardless of retries, pool rebuilds or
    resumption.

``serve``
    Run the long-lived gathering-as-a-service HTTP daemon: ``POST
    /run`` and ``POST /sweep`` served through a content-addressed
    result cache (deterministic simulation makes cache hits exact and
    permanent), ``GET /healthz`` and ``GET /metrics`` for operations.

``stats``
    Summarize a trace JSON or an observability JSONL event stream as
    tables: per-class round counts, crash/move totals, spread
    trajectory.  A ``repro-log-v1`` structured log gets per-level and
    per-event record counts plus the warn-once keys that fired.

``trace-export``
    Convert a ``repro-spans-v1`` span stream — or, on a synthetic
    timeline, an obs event stream or trace archive — to Chrome
    trace-event JSON that Perfetto / ``chrome://tracing`` open
    directly.  Multiple inputs merge onto one timeline, each on its
    own track group.

``profile``
    Run one scenario with the observability layer on and print the
    profile: per-kernel call counts and wall time, per-class round
    counts, Weber solver statistics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from dataclasses import fields
from typing import List, Optional, Tuple

from .algorithms import ALGORITHMS
from .core import (
    Configuration,
    classify,
    quasi_regularity,
    safe_points,
    symmetry,
)
from .experiments import EXPERIMENTS, run_experiment
from .experiments.report import Table
from .experiments.runner import AXES, Scenario, run_scenario
from .geometry import DEFAULT_TOLERANCE
from .resilience import ReproError, RunPolicy, SweepJournal, TraceFormatError
from .sim.trace import TraceMeta
from .workloads import CLASS_GENERATORS, generate

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type of a count or size that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _add_scenario_flags(
    cmd: argparse.ArgumentParser,
    *,
    crashes: str = "random",
    engines: Tuple[str, ...] = ("atom", "async"),
    model: bool = True,
) -> None:
    """One flag per :class:`Scenario` field, its choices from the
    runner's registries (:data:`~repro.experiments.runner.AXES`), its
    default the field's.  ``model=False`` leaves out the movement,
    round budget, engine and visibility flags."""
    default = {f.name: f.default for f in fields(Scenario)}
    cmd.add_argument("--workload", default="random",
                     choices=sorted(AXES["workload"]))
    cmd.add_argument("--n", type=int, default=8)
    cmd.add_argument("--algorithm", default=default["algorithm"],
                     choices=sorted(AXES["algorithm"]))
    cmd.add_argument("--scheduler", default=default["scheduler"],
                     choices=AXES["scheduler"])
    cmd.add_argument("--crashes", default=crashes, choices=AXES["crashes"])
    cmd.add_argument("--f", type=int, default=default["f"],
                     help="fault budget (crashes)")
    if not model:
        return
    cmd.add_argument("--movement", default=default["movement"],
                     choices=AXES["movement"])
    cmd.add_argument("--max-rounds", type=int, default=default["max_rounds"])
    cmd.add_argument("--engine", default=default["engine"], choices=engines,
                     help="execution model: the paper's ATOM rounds, the "
                          "ASYNC (CORDA) tick engine or, for a sweep, "
                          "'batched' (many seeds per vectorized round)")
    cmd.add_argument("--visibility", type=float, default=None, metavar="R",
                     help="finite visibility radius for every LOOK "
                          "snapshot (default: unlimited, the paper's model)")


def _scenario(args: argparse.Namespace, **fixed) -> Scenario:
    """The :class:`Scenario` the scenario flags name; ``Scenario``
    itself refuses a bad one (exit 2, one ``error:`` line)."""
    names = {f.name for f in fields(Scenario)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return Scenario(**given, **fixed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gather",
        description=(
            "Wait-free gathering of mobile robots tolerating multiple "
            "crash faults (Bouzid-Das-Tixeuil, ICDCS 2013) - reproduction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation")
    sim.set_defaults(handler=_cmd_simulate)
    _add_scenario_flags(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trace", action="store_true", help="print the round transcript")
    sim.add_argument(
        "--save-trace",
        metavar="PATH",
        help="write the full round-by-round trace as JSON to PATH",
    )
    sim.add_argument("--obs", action="store_true",
                     help="enable the observability layer (round events + "
                          "counters; prints a summary after the run)")
    sim.add_argument("--obs-jsonl", metavar="PATH", default=None,
                     help="write the round-event stream as JSONL to PATH "
                          "(implies --obs)")
    sim.add_argument("--spans-jsonl", metavar="PATH", default=None,
                     help="write the span trace (run/round/phase/kernel) "
                          "as repro-spans-v1 JSONL to PATH (implies --obs; "
                          "convert with 'repro trace-export')")

    cls = sub.add_parser("classify", help="classify a generated workload")
    cls.set_defaults(handler=_cmd_classify)
    cls.add_argument("--workload", default="random", choices=sorted(CLASS_GENERATORS))
    cls.add_argument("--n", type=int, default=8)
    cls.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run experiments E1-E17")
    exp.set_defaults(handler=_cmd_experiment)
    exp.add_argument("id", choices=sorted(EXPERIMENTS) + ["all"])
    exp.add_argument("--full", action="store_true",
                     help="full parameter sweep (slow); default is quick mode")
    exp.add_argument("--csv", action="store_true", help="emit CSV instead of tables")
    exp.add_argument("--workers", type=int, default=None, metavar="N",
                     help="shard seed sweeps over N processes "
                          "(results identical to sequential)")
    exp.add_argument("--archive-failures", metavar="DIR", default=None,
                     help="archive a replayable trace JSON into DIR for "
                          "every failing (not gathered, not provably "
                          "impossible) seed of the sweep")
    exp.add_argument("--obs", action="store_true",
                     help="enable the observability layer for the sweep "
                          "(exported to worker processes; prints counter "
                          "and kernel summaries afterwards)")

    bench = sub.add_parser(
        "bench",
        help="record the published scaling numbers, append JSON",
    )
    bench.set_defaults(handler=_cmd_bench)
    bench.add_argument("--output", default="BENCH_micro.json",
                       help="path of the JSON report (default: BENCH_micro.json)")
    bench.add_argument("--quick", action="store_true",
                       help="small sizes only (CI-friendly)")
    bench.add_argument("--sizes", type=int, nargs="+", default=None,
                       metavar="N", help="override the team sizes to measure")

    hunt = sub.add_parser(
        "hunt",
        help="run the greedy adversarial search for the bivalent trap",
    )
    hunt.set_defaults(handler=_cmd_hunt)
    hunt.add_argument("--workload", default="unsafe-ray", choices=sorted(CLASS_GENERATORS))
    hunt.add_argument("--n", type=int, default=8)
    hunt.add_argument("--algorithm", default="wait-free-gather", choices=sorted(ALGORITHMS))
    hunt.add_argument("--seed", type=int, default=0)
    hunt.add_argument("--rounds", type=int, default=40)

    check = sub.add_parser(
        "check",
        help="replay archived traces and verify invariants",
        description=(
            "Reproducibility gate.  Modes (combine freely): --replay / "
            "--corpus re-simulate archived v2 traces and require "
            "bit-identical executions; --invariants runs the proof-"
            "obligation checkers over archives offline.  Exits non-zero "
            "on any mismatch."
        ),
    )
    check.set_defaults(handler=_cmd_check)
    check.add_argument("--replay", metavar="TRACE", nargs="+", default=[],
                       help="trace JSON files to re-simulate and compare "
                            "bit for bit")
    check.add_argument("--invariants", metavar="TRACE", nargs="+", default=[],
                       help="trace JSON files to run the invariant suite "
                            "over (offline, no re-simulation)")
    check.add_argument("--corpus", metavar="DIR", default=None,
                       help="replay + verify every *.json trace in DIR")

    render = sub.add_parser(
        "render", help="render a simulation run (or a snapshot) as SVG"
    )
    render.set_defaults(handler=_cmd_render)
    render.add_argument("output", help="path of the .svg file to write")
    _add_scenario_flags(render, crashes="none", model=False)
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--snapshot", action="store_true",
                        help="render the initial configuration only (no run)")

    sweep = sub.add_parser(
        "sweep",
        help="run one scenario over a seed range, resiliently",
        description=(
            "Resilient seed sweep.  Every completed seed is checkpointed "
            "to an fsynced repro-sweep-v1 journal (--journal) the moment "
            "it finishes; crashed or hung workers are retried with "
            "exponential backoff and the pool is rebuilt transparently.  "
            "A sweep killed at any point resumes from its last "
            "checkpoint with --resume, skipping journaled seeds.  "
            "Because each seed is a pure function of (scenario, seed), "
            "the final results are bit-identical to a clean sequential "
            "run no matter how many retries, rebuilds or resumptions "
            "happened.  Deterministic fault injection for testing comes "
            "from the REPRO_CHAOS environment variable."
        ),
    )
    sweep.set_defaults(handler=_cmd_sweep)
    _add_scenario_flags(sweep, engines=AXES["engine"])
    sweep.add_argument("--batch-size", type=_positive_int, default=None,
                       metavar="K",
                       help="most seeds stepped together per "
                            "batched-engine simulation (default 64); "
                            "chunks shrink to an even share when that "
                            "gives every --workers process one (ignored "
                            "by the scalar engines)")
    sweep.add_argument("--seeds", type=_positive_int, default=16, metavar="N",
                       help="number of seeds to sweep "
                            "(seed-start .. seed-start+N-1; default 16)")
    sweep.add_argument("--seed-start", type=int, default=0, metavar="S",
                       help="first seed of the range (default 0)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="shard seeds over N processes "
                            "(results identical to sequential)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-seed wall-clock timeout (pooled runs; a "
                            "timed-out seed is charged a retry and its "
                            "worker replaced)")
    sweep.add_argument("--retries", type=int, default=2,
                       help="attributable failures tolerated per seed "
                            "before the sweep fails (default 2)")
    sweep.add_argument("--backoff", type=float, default=0.1, metavar="SEC",
                       help="base retry delay, doubled per attempt "
                            "(default 0.1)")
    sweep.add_argument("--journal", metavar="PATH", default=None,
                       help="checkpoint completed seeds to a "
                            "repro-sweep-v1 JSONL journal at PATH")
    sweep.add_argument("--resume", action="store_true",
                       help="skip seeds already recorded in --journal "
                            "(their journaled results are returned "
                            "bit-identically)")
    sweep.add_argument("--archive-failures", metavar="DIR", default=None,
                       help="archive a replayable trace JSON into DIR for "
                            "every failing seed")
    sweep.add_argument("--obs", action="store_true",
                       help="enable the observability layer: workers ship "
                            "their per-seed metric deltas and span tails "
                            "home, the parent merges them and writes the "
                            "aggregate as sweep-metrics.json")
    sweep.add_argument("--live", action="store_true",
                       help="force the live in-place dashboard (implies "
                            "--obs; default: auto-detected from the TTY)")
    sweep.add_argument("--metrics", metavar="PATH", default=None,
                       help="path of the aggregated repro-sweep-metrics-v1 "
                            "JSON (implies --obs; default with --obs: "
                            "sweep-metrics.json next to the journal)")

    serve = sub.add_parser(
        "serve",
        help="run the gathering-as-a-service HTTP daemon",
        description=(
            "Long-lived HTTP/JSON daemon.  POST /run executes one "
            "(scenario, seed) simulation; POST /sweep streams a seed "
            "range as newline-delimited JSON; GET /healthz and GET "
            "/metrics serve liveness and telemetry.  Every result is "
            "memoized in a content-addressed store keyed by "
            "sha256(scenario, seed, backend, engine, code version) — "
            "simulation is deterministic, so cache hits return the "
            "exact bytes of the first computation, forever.  A warm "
            "worker pool (--workers) survives across requests."
        ),
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8642)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="keep a warm N-process worker pool across "
                            "requests (default: in-process serial)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="on-disk result store directory (shared "
                            "safely between daemons; default: "
                            "in-memory only)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely (every "
                            "request recomputes)")
    serve.add_argument("--memory-entries", type=_positive_int, default=4096,
                       metavar="K",
                       help="in-memory LRU capacity in results "
                            "(default 4096)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-seed wall-clock timeout (pooled runs)")
    serve.add_argument("--retries", type=int, default=2,
                       help="attributable failures tolerated per seed "
                            "(default 2)")
    serve.add_argument("--max-inflight", type=_positive_int, default=None,
                       metavar="N",
                       help="weighted in-flight budget; excess requests "
                            "are shed with a structured 429 + Retry-After "
                            "(a /run costs 1 unit, a /sweep costs "
                            "--sweep-weight; default: unbounded)")
    serve.add_argument("--sweep-weight", type=_positive_int, default=4,
                       metavar="W",
                       help="admission weight of one /sweep request "
                            "(default 4)")
    serve.add_argument("--request-deadline", type=float, default=None,
                       metavar="SEC",
                       help="default wall-clock budget per request — "
                            "queueing and compute both count; exceeded "
                            "budgets return a structured 504 and free "
                            "the slot (per-request 'deadline_s' "
                            "overrides; default: unbounded)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SEC",
                       help="graceful-shutdown drain: on SIGTERM wait up "
                            "to SEC for in-flight requests before "
                            "closing (default 10)")
    serve.add_argument("--breaker-threshold", type=_positive_int, default=5,
                       metavar="N",
                       help="worker-crash failures within "
                            "--breaker-window that flip /readyz to 503 "
                            "(default 5)")
    serve.add_argument("--breaker-window", type=float, default=30.0,
                       metavar="SEC",
                       help="rolling window of the readiness circuit "
                            "breaker (default 30)")
    serve.add_argument("--breaker-cooldown", type=float, default=10.0,
                       metavar="SEC",
                       help="seconds an open breaker waits before "
                            "half-opening (default 10)")
    serve.add_argument("--access-log", metavar="PATH", default=None,
                       help="append structured repro-log-v1 JSONL "
                            "records (access log + warnings) to PATH")
    serve.add_argument("--trace-jsonl", metavar="PATH", default=None,
                       help="record per-request span trees (request, "
                            "admission, cache, worker spans joined by "
                            "request id) to a repro-spans-v1 file; "
                            "convert with 'repro trace-export'")

    serve_store = sub.add_parser(
        "serve-store",
        help="audit an on-disk serve result store",
        description=(
            "Offline maintenance of a 'repro serve --store' directory. "
            "'verify' digest-checks every entry against its "
            "repro-store/1 header (corrupt entries are quarantined "
            "unless --no-repair); 'gc' deletes quarantined entries and "
            "stray temp files; 'stats' reports entry/byte counts.  All "
            "three are safe against a live daemon: entries are only "
            "ever replaced atomically."
        ),
    )
    serve_store.set_defaults(handler=_cmd_serve_store)
    serve_store.add_argument("action", choices=("verify", "gc", "stats"),
                             help="what to do with the store")
    serve_store.add_argument("store", metavar="DIR",
                             help="the store root directory ('--store' "
                                  "of the daemon)")
    serve_store.add_argument("--no-repair", action="store_true",
                             help="verify only reports corruption "
                                  "instead of quarantining it")
    serve_store.add_argument("--json", action="store_true",
                             help="emit the summary as JSON on stdout")

    export = sub.add_parser(
        "trace-export",
        help="convert spans / events / traces to Perfetto JSON",
        description=(
            "Converts a repro-spans-v1 span stream to the Chrome "
            "trace-event format (open the output in Perfetto or "
            "chrome://tracing).  An obs event stream or a trace archive "
            "is accepted too: their rounds have no recorded wall time, "
            "so they are laid out on a synthetic timeline (one fixed "
            "slot per round) that still shows class transitions, "
            "crashes and movement at a glance.  Multiple inputs merge "
            "into one timeline, each on its own track group — e.g. a "
            "serve daemon's request spans next to a worker's run spans, "
            "joined by the request id in the span args."
        ),
    )
    export.set_defaults(handler=_cmd_trace_export)
    export.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="repro-spans-v1 JSONL, repro-obs-v1 JSONL, or "
                             "repro-trace-v2 trace JSON (repeatable; "
                             "merged onto one timeline)")
    export.add_argument("--output", "-o", metavar="PATH", default=None,
                        help="output path (default: first INPUT with a "
                             ".perfetto.json suffix)")
    export.add_argument("--pid", type=int, default=0,
                        help="process id label of the first input's "
                             "track group; later inputs count up from "
                             "it (default 0)")

    stats = sub.add_parser(
        "stats",
        help="summarize a trace JSON or an obs JSONL event stream",
        description=(
            "Reads either an archived repro-trace-v2 trace (events are "
            "derived from its records) or a repro-obs-v1 JSONL event "
            "stream, and prints per-class round counts, crash/move "
            "totals and the spread trajectory as tables."
        ),
    )
    stats.set_defaults(handler=_cmd_stats)
    stats.add_argument("input", help="trace JSON or obs JSONL path")

    prof = sub.add_parser(
        "profile",
        help="run one scenario instrumented and print profile tables",
        description=(
            "Runs the scenario with the observability layer enabled and "
            "prints per-class round counts and Weber solver statistics."
        ),
    )
    prof.set_defaults(handler=_cmd_profile)
    _add_scenario_flags(prof)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--obs-jsonl", metavar="PATH", default=None,
                      help="also write the round-event stream to PATH")
    prof.add_argument("--spans-jsonl", metavar="PATH", default=None,
                      help="also write the span trace as repro-spans-v1 "
                           "JSONL to PATH")
    return parser


def _print_obs_tables() -> None:
    """The metrics registry as the tables ``experiment --obs``,
    ``simulate --obs`` and ``profile`` print."""
    from . import obs

    snapshot = obs.metrics.snapshot()
    counters = snapshot.get("counters", {})
    classes = Table(
        "obs-classes", "rounds per configuration class", ["class", "rounds"]
    )
    other = Table("obs-counters", "counters", ["counter", "value"])
    for name in sorted(counters):
        if name.startswith("rounds.class."):
            classes.add_row(name.rsplit(".", 1)[-1], counters[name])
        else:
            other.add_row(name, counters[name])

    kernel_table = Table(
        "obs-kernels",
        "per-kernel call counts and wall time",
        ["kernel", "backend", "calls", "total_ms", "mean_us"],
    )
    for row in snapshot.get("kernels", []):
        kernel_table.add_row(
            row["kernel"],
            row["backend"],
            row["calls"],
            row["total_s"] * 1e3,
            row["mean_s"] * 1e6,
        )

    stats_table = Table(
        "obs-stats",
        "observed value aggregates",
        ["stat", "count", "mean", "min", "max"],
    )
    for name in sorted(snapshot.get("stats", {})):
        stat = snapshot["stats"][name]
        stats_table.add_row(
            name, stat["count"], stat["mean"], stat["min"], stat["max"]
        )

    for table in (classes, kernel_table, stats_table, other):
        if table.rows:
            print(table.render())
            print()


def _observed_run(
    args: argparse.Namespace,
    scenario: Scenario,
    engine_seed: int,
    record_trace: bool = False,
):
    """Run ``scenario`` once with the observability layer on, writing
    the event and span streams ``--obs-jsonl`` / ``--spans-jsonl`` name
    (their headers carry the run's trace-v2 meta block for joining)."""
    from . import obs

    meta = None
    if args.obs_jsonl or args.spans_jsonl:
        meta = TraceMeta.for_run(
            scenario=scenario.to_dict(),
            seed=args.seed,
            engine_seed=engine_seed,
            tol=DEFAULT_TOLERANCE,
            engine=scenario.engine,
        ).to_dict()
    obs.metrics.reset()
    with obs.observability(
        jsonl=args.obs_jsonl, spans_jsonl=args.spans_jsonl, meta=meta
    ):
        return run_scenario(
            scenario,
            args.seed,
            engine_seed=engine_seed,
            record_trace=record_trace,
        )


def _print_obs_report(args: argparse.Namespace) -> None:
    """What ``simulate --obs`` and ``profile`` print after the run."""
    print()
    _print_obs_tables()
    if args.obs_jsonl:
        print(f"event stream saved to {args.obs_jsonl}")
    if args.spans_jsonl:
        print(f"span trace saved to {args.spans_jsonl}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Route through the scenario machinery so a saved trace carries the
    # full meta block and `repro check --replay` accepts it.  The raw
    # user seed is passed as the engine seed (historical behaviour);
    # the meta block records both, so replay is still exact.
    scenario = _scenario(args)
    want_obs = args.obs or bool(args.obs_jsonl) or bool(args.spans_jsonl)
    record_trace = args.trace or bool(args.save_trace)
    if want_obs:
        result = _observed_run(args, scenario, args.seed, record_trace)
    else:
        result = run_scenario(
            scenario, args.seed, engine_seed=args.seed,
            record_trace=record_trace,
        )
    print(f"workload   : {args.workload} (n={args.n}, seed={args.seed})")
    print(f"engine     : {args.engine}")
    print(f"algorithm  : {args.algorithm}")
    print(f"initial    : {result.initial_class}")
    print(f"verdict    : {result.verdict}")
    print(f"rounds     : {result.rounds}")
    print(f"crashed    : {len(result.crashed_ids)} {list(result.crashed_ids)}")
    print(f"classes    : {' -> '.join(str(c) for c in result.classes_seen)}")
    if result.gathering_point is not None:
        gp = result.gathering_point
        print(f"gathered at: ({gp.x:.6f}, {gp.y:.6f})")
    if args.trace and result.trace is not None:
        print()
        print(result.trace.render())
    if args.save_trace and result.trace is not None:
        from .sim.replay import save_trace

        save_trace(result.trace, args.save_trace)
        print(f"trace saved to {args.save_trace}")
    if want_obs:
        _print_obs_report(args)
    return 0 if result.gathered or result.verdict == "impossible" else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    points = generate(args.workload, args.n, args.seed)
    config = Configuration(points)
    cls = classify(config)
    print(f"points : {[p.as_tuple() for p in config.points]}")
    print(f"class  : {cls} ({cls.name})")
    print(f"sym    : {symmetry(config)}")
    qr = quasi_regularity(config)
    if qr.is_quasi_regular:
        print(f"qreg   : {qr.m} (center = ({qr.center.x:.6f}, {qr.center.y:.6f}))")
    else:
        print("qreg   : 1 (not quasi-regular)")
    safes = safe_points(config)
    print(f"safe   : {len(safes)} of {len(config.support)} occupied positions")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.archive_failures:
        # run_batch reads the environment variable, which also reaches
        # worker processes and any experiment code that calls it without
        # threading the CLI flag through.
        os.environ["REPRO_ARCHIVE_DIR"] = args.archive_failures
    if args.obs:
        from . import obs

        # enable() exports REPRO_OBS=1, so pool workers (spawned after
        # this point) come up instrumented; their registries are
        # process-local, the parent prints its own view afterwards.
        obs.metrics.reset()
        obs.enable()
    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
    for experiment_id in ids:
        _, description = EXPERIMENTS[experiment_id]
        start = time.perf_counter()
        tables = run_experiment(
            experiment_id, quick=not args.full, workers=args.workers
        )
        elapsed = time.perf_counter() - start
        print(f"## {experiment_id.upper()}: {description}  ({elapsed:.1f}s)")
        print()
        for table in tables:
            print(table.to_csv() if args.csv else table.render())
            print()
    if args.obs:
        _print_obs_tables()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import QUICK_SIZES, run_bench, write_bench

    sizes = args.sizes if args.sizes else (QUICK_SIZES if args.quick else None)
    document = run_bench(
        sizes=sizes,
        progress=lambda message: print(f"  {message}", flush=True),
    )
    write_bench(document, args.output)
    print(f"wrote {args.output}")
    for entry in document["speedups"]:
        print(
            f"n={entry['n']}: scalar {entry['scalar_round_s']:.3f}s vs "
            f"batched {entry['batched_per_seed_s']:.3f}s per seed-round "
            f"-> {entry['speedup']:.1f}x"
        )
    return 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    from .analysis import BivalentHunt

    hunt = BivalentHunt(
        ALGORITHMS[args.algorithm](),
        generate(args.workload, args.n, args.seed),
        seed=args.seed,
    )
    result = hunt.run(max_rounds=args.rounds)
    print(f"algorithm : {args.algorithm}")
    print(f"workload  : {args.workload} (n={args.n}, seed={args.seed})")
    print(f"reached B : {result.reached_bivalent}")
    print(f"min score : {result.best_score}  (0 = bivalent)")
    print(f"final     : {result.final_class} after {result.rounds} rounds")
    trace = ", ".join(str(s) for s in result.score_trace[:30])
    print(f"score trace: {trace}")
    # Reaching B against the paper's algorithm would falsify the paper.
    if args.algorithm == "wait-free-gather" and result.reached_bivalent:
        print("!!! bivalent reached against wait-free-gather — file a bug")
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import InvariantViolation, verify_trace
    from .sim.replay import load_trace, replay_trace

    replay_paths = list(args.replay)
    if args.corpus:
        corpus = sorted(glob.glob(os.path.join(args.corpus, "*.json")))
        if not corpus:
            print(f"error: no traces in corpus {args.corpus!r}", file=sys.stderr)
            return 2
        replay_paths.extend(corpus)

    invariant_paths = list(args.invariants)
    if args.corpus:
        # Corpus traces get the full treatment: replay AND invariants.
        invariant_paths.extend(p for p in replay_paths if p not in invariant_paths)

    if not (replay_paths or invariant_paths):
        print(
            "error: nothing to do — pass --replay, --invariants "
            "and/or --corpus",
            file=sys.stderr,
        )
        return 2

    failures = 0

    for path in replay_paths:
        report = replay_trace(load_trace(path), path=path)
        print(f"{path}: {report.describe()}")
        failures += 0 if report.ok else 1

    for path in invariant_paths:
        trace = load_trace(path)
        if trace.meta is not None and trace.meta.engine == "async":
            # The invariant suite encodes the ATOM class-transition
            # lemmas; ASYNC interleavings legitimately violate them.
            # Replay (bit-identity) above still covers these traces.
            print(f"{path}: invariants skipped (async-engine trace)")
            continue
        try:
            monitor = verify_trace(trace)
        except InvariantViolation as exc:
            print(f"{path}: invariant VIOLATION: {exc}")
            failures += 1
        else:
            print(
                f"{path}: invariants ok "
                f"({monitor.rounds_checked} rounds checked)"
            )

    if failures:
        print(f"check FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print("check ok")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.runner import run_batch

    scenario = _scenario(args)
    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.journal and os.path.exists(args.journal) and not args.resume:
        print(
            f"error: journal {args.journal!r} already exists; pass "
            "--resume to continue it, or remove it to start fresh",
            file=sys.stderr,
        )
        return 2

    seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    resumed = 0
    if args.resume and os.path.exists(args.journal):
        # Validates the journal header against this sweep's scenario, so
        # a --resume onto the wrong journal fails here, before any work.
        resumed = len(SweepJournal.peek(args.journal, scenario.to_dict()))
    policy = RunPolicy(
        timeout=args.timeout, retries=args.retries, backoff=args.backoff
    )

    want_obs = args.obs or args.live or bool(args.metrics)
    aggregator = dashboard = None
    metrics_path = None
    on_seed = on_failure = None
    if want_obs:
        from . import obs

        # enable() exports REPRO_OBS=1, so pool workers (spawned below)
        # come up instrumented and attach per-seed payloads to results.
        obs.metrics.reset()
        obs.enable()
        aggregator = obs.Aggregator(total_seeds=len(seeds))
        dashboard = obs.SweepDashboard(
            aggregator, live=True if args.live else None
        )
        metrics_dir = (
            os.path.dirname(args.journal) or "." if args.journal else "."
        )
        metrics_path = args.metrics or os.path.join(
            metrics_dir, "sweep-metrics.json"
        )

        def on_seed(seed: int, result) -> None:
            aggregator.seed_done(seed, result)
            dashboard.update()

        def on_failure(key: str, exc: BaseException, strike: bool) -> None:
            aggregator.failure(key, exc, strike)
            dashboard.update()

    print(f"sweep      : {scenario.label()}")
    print(f"seeds      : {seeds[0]}..{seeds[-1]} ({len(seeds)} seeds)")
    if args.journal:
        print(f"journal    : {args.journal}")
    if resumed:
        print(f"resumed    : {resumed} seed(s) already journaled, skipped")
    start = time.perf_counter()
    try:
        results = run_batch(
            scenario,
            seeds,
            workers=args.workers,
            archive_dir=args.archive_failures,
            policy=policy,
            journal_path=args.journal,
            resume=args.resume,
            batch_size=args.batch_size,
            on_seed_result=on_seed,
            on_failure=on_failure,
        )
    finally:
        # Whatever aggregated before a crash/interrupt is still worth
        # persisting — the dashboard's partial view and the atomic
        # metrics file both survive an aborted sweep.
        if want_obs and aggregator.done:
            dashboard.finish()
            from .obs import write_sweep_metrics

            write_sweep_metrics(aggregator, metrics_path)
    elapsed = time.perf_counter() - start
    if want_obs:
        print(f"metrics    : {metrics_path}")
        print()

    table = Table(
        "sweep",
        f"{scenario.label()} ({elapsed:.1f}s)",
        ["seed", "verdict", "rounds", "crashed", "classes"],
    )
    for seed, result in zip(seeds, results):
        table.add_row(
            seed,
            result.verdict,
            result.rounds,
            len(result.crashed_ids),
            " -> ".join(str(c) for c in result.classes_seen),
        )
    print()
    print(table.render())
    ok = sum(
        1 for r in results if r.gathered or r.verdict == "impossible"
    )
    print()
    print(f"{ok}/{len(results)} seed(s) gathered or provably impossible")
    return 0 if ok == len(results) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve import ReproServer

    policy = RunPolicy(timeout=args.timeout, retries=args.retries)
    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_root=args.store,
        cache_enabled=not args.no_cache,
        memory_entries=args.memory_entries,
        policy=policy,
        max_inflight=args.max_inflight,
        sweep_weight=args.sweep_weight,
        request_deadline=args.request_deadline,
        drain_timeout=args.drain_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_window=args.breaker_window,
        breaker_cooldown=args.breaker_cooldown,
        access_log=args.access_log,
        trace_jsonl=args.trace_jsonl,
    )
    # serve_forever runs on a worker thread so the main thread stays
    # free to receive signals: calling httpd.shutdown() from a signal
    # handler inside the serving thread would deadlock (it blocks until
    # the serve loop — the interrupted frame itself — exits).
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(
        f"repro serve listening on http://{server.host}:{server.port}",
        flush=True,
    )
    print(
        "  endpoints: POST /run  POST /sweep  GET /healthz  GET /readyz  "
        "GET /metrics",
        flush=True,
    )
    if args.store:
        print(f"  store    : {args.store}", flush=True)
    if args.no_cache:
        print("  cache    : DISABLED (--no-cache)", flush=True)
    if args.max_inflight is not None:
        print(
            f"  admission: {args.max_inflight} in-flight unit(s) "
            f"(sweep weight {args.sweep_weight})",
            flush=True,
        )
    if args.request_deadline is not None:
        print(f"  deadline : {args.request_deadline}s per request", flush=True)
    if args.access_log:
        print(f"  accesslog: {args.access_log}", flush=True)
    if args.trace_jsonl:
        print(f"  spans    : {args.trace_jsonl}", flush=True)
    try:
        stop.wait()
    finally:
        print("shutting down (draining in-flight requests)", flush=True)
        server.close()
        thread.join(timeout=10)
    return 0


def _cmd_serve_store(args: argparse.Namespace) -> int:
    from .serve import ResultStore

    store = ResultStore(args.store)
    if args.action == "verify":
        report = store.verify_disk(repair=not args.no_repair)
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            print(
                f"{report['root']}: {report['checked']} checked, "
                f"{report['ok']} ok, "
                f"{report['corrupt']} corrupt "
                f"({report['quarantined']} quarantined), "
                f"{report['unreadable']} unreadable"
            )
            for key in report["corrupt_keys"]:
                print(f"  corrupt: {key}")
        # Corruption that was repaired (quarantined) is a healthy
        # outcome; unrepaired corruption and unreadable entries are
        # what an operator must go look at.
        bad = report["unreadable"] + (
            report["corrupt"] if args.no_repair else 0
        )
        return 1 if bad else 0
    if args.action == "gc":
        report = store.gc_disk()
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            print(
                f"{report['root']}: removed {report['removed']} file(s), "
                f"freed {report['freed_bytes']} byte(s)"
            )
        return 0
    report = store.disk_stats()
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"{report['root']}: {report['entries']} entr(ies), "
            f"{report['total_bytes']} byte(s), "
            f"{report['quarantined']} quarantined"
        )
    return 0


def _cmd_log_stats(path: str, meta: dict, records: List[dict]) -> int:
    """``repro stats`` on a ``repro-log-v1`` file: level/event counts
    and the warn-once keys that fired."""
    from .obs import summarize_log

    summary = summarize_log(records)
    print(f"{path}: structured log, {len(records)} records")
    if meta:
        source = meta.get("source")
        if source:
            print(f"meta       : source={source} "
                  f"version={meta.get('version')}")
    print()
    levels = Table(
        "log-levels", "records per level", ["level", "records"]
    )
    for name in ("debug", "info", "warning", "error"):
        if name in summary["levels"]:
            levels.add_row(name, summary["levels"][name])
    for name in sorted(summary["levels"]):
        if name not in ("debug", "info", "warning", "error"):
            levels.add_row(name, summary["levels"][name])
    print(levels.render())
    print()
    events_table = Table(
        "log-events", "records per event", ["event", "records"]
    )
    ranked = sorted(
        summary["events"].items(), key=lambda kv: (-kv[1], kv[0])
    )
    for name, count in ranked:
        events_table.add_row(name, count)
    print(events_table.render())
    if summary["warn_once"]:
        print()
        warn_table = Table(
            "log-warn-once",
            "warn-once keys that fired",
            ["key", "records"],
        )
        for name, count in sorted(
            summary["warn_once"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            warn_table.add_row(name, count)
        print(warn_table.render())
    return 0


def _read_input(path: str, command: str, schemas: Tuple[str, ...]):
    """Read ``path``'s header once: its telemetry stream when the tag is
    one of ``schemas``, or ``None`` for a trace archive (no JSONL
    header, or a one-line ``repro-trace-v2``).  Any other tag is
    refused in one line naming it and what ``command`` reads."""
    from .obs import ForeignHeaderError, read_stream
    from .sim.trace import SCHEMA_V2

    try:
        stream = read_stream(path)
    except OSError as exc:
        raise TraceFormatError(
            f"{path}: cannot read: {exc}", path=path
        ) from exc
    except ForeignHeaderError as exc:
        if exc.tag in (None, SCHEMA_V2):
            return None
        tag = exc.tag
    else:
        if stream.schema in schemas:
            return stream
        tag = stream.schema
    raise TraceFormatError(
        f"{path}: is a {tag} file; repro {command} reads "
        f"{', '.join(schemas)} streams and {SCHEMA_V2} archives",
        path=path,
        line=1,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import (
        LOG_SCHEMA,
        OBS_SCHEMA,
        SPANS_SCHEMA,
        RoundEvent,
        round_events,
    )

    stream = _read_input(
        args.input, "stats", (LOG_SCHEMA, OBS_SCHEMA, SPANS_SCHEMA)
    )
    if stream is None:
        from .sim.replay import load_trace

        trace = load_trace(args.input)
        engine = trace.meta.engine if trace.meta else "atom"
        events = [
            RoundEvent.from_record(record, engine=engine)
            for record in trace.records
        ]
        meta = trace.meta.to_dict() if trace.meta else None
        run_ends = []
        source = "trace archive"
    elif stream.schema == LOG_SCHEMA:
        # A structured log gets its own summary (levels, events,
        # warn-once keys) — it carries no round events.
        return _cmd_log_stats(args.input, stream.meta, stream.records)
    elif stream.schema == SPANS_SCHEMA:
        # A spans file handed to the wrong command: one structured line
        # pointing at the right one.
        raise TraceFormatError(
            f"{args.input}: is a {stream.schema} span stream "
            f"({len(stream.records)} spans), which carries no round "
            f"events; convert it with 'repro trace-export' instead",
            path=args.input,
        )
    else:
        events, run_ends = round_events(stream)
        meta = stream.meta
        source = "obs event stream"

    print(f"{args.input}: {source}, {len(events)} round events")
    if meta:
        scenario = meta.get("scenario") or {}
        label = scenario.get("workload", "?")
        print(
            f"meta       : engine={meta.get('engine', 'atom')} "
            f"workload={label} n={scenario.get('n', '?')} "
            f"seed={meta.get('seed')} backend={meta.get('backend')}"
        )
    print()
    if not events:
        # A valid but empty stream: a run that was recorded with the
        # obs layer off, or that ended before its first round.  Say so
        # in one line instead of printing empty tables.
        print(
            "no round events recorded — the stream has a valid header "
            "but no events (obs-disabled run, or it ended before the "
            "first round)"
        )
        return 0

    classes = Table(
        "stats-classes",
        "rounds per configuration class",
        ["class", "rounds", "share"],
    )
    counts: dict = {}
    for event in events:
        counts[event.config_class] = counts.get(event.config_class, 0) + 1
    for name in sorted(counts):
        classes.add_row(name, counts[name], counts[name] / len(events))
    print(classes.render())
    print()

    summary = Table("stats-summary", "run summary", ["metric", "value"])
    summary.add_row("rounds", len(events))
    summary.add_row("crashes", sum(len(e.crashed) for e in events))
    summary.add_row("moves", sum(len(e.moved) for e in events))
    summary.add_row("spread first", events[0].spread)
    summary.add_row("spread last", events[-1].spread)
    summary.add_row("final support", events[-1].support)
    summary.add_row("final max multiplicity", events[-1].max_multiplicity)
    elections = [e for e in events if e.elected_target is not None]
    summary.add_row("rounds with elected target", len(elections))
    summary.add_row(
        "elected targets on safe points",
        sum(1 for e in elections if e.target_is_safe),
    )
    for run_end in run_ends:
        summary.add_row("verdict", str(run_end.get("verdict")))
    print(summary.render())
    return 0


def _synthetic_round_events(rows: List[dict], pid: int, label: str) -> List[dict]:
    """Round summaries -> Chrome trace events on a synthetic timeline.

    Event streams and trace archives carry no wall-clock timing, so
    each round gets one fixed 1 ms slot; what the export shows is the
    *structure* — class transitions, crashes, movement — not latency.
    """
    slot_us = 1000.0
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for i, row in enumerate(rows):
        events.append(
            {
                "name": f"round {row.get('round', i)} "
                        f"[{row.get('config_class', '?')}]",
                "cat": "round",
                "ph": "X",
                "ts": i * slot_us,
                "dur": slot_us,
                "pid": pid,
                "tid": 0,
                "args": row,
            }
        )
    return events


def _export_one_input(path: str, pid: int) -> Tuple[List[dict], str]:
    """One trace-export input -> (Chrome trace events, description).

    A spans file keeps its recorded wall-clock timeline; an obs event
    stream or trace archive gets the synthetic per-round layout.  The
    ``pid`` labels this input's track group, so multiple inputs merged
    into one file stay visually separate in Perfetto.
    """
    from .obs import (
        OBS_SCHEMA,
        SPANS_SCHEMA,
        chrome_trace_events,
        round_events,
    )

    stream = _read_input(path, "trace-export", (SPANS_SCHEMA, OBS_SCHEMA))
    if stream is None:
        from .sim.replay import load_trace

        trace = load_trace(path)
        rows = [
            {
                "round": record.round_index,
                "config_class": record.config_class.value,
                "moved": len(record.moved),
                "crashed": len(record.crashed_now),
                "active": len(record.active),
            }
            for record in trace.records
        ]
        kind = f"trace archive ({len(rows)} rounds)"
    elif stream.schema == SPANS_SCHEMA:
        label = os.path.basename(path)
        meta_block = stream.meta or {}
        scenario = meta_block.get("scenario") or {}
        if scenario:
            label = (
                f"{scenario.get('workload', '?')} n={scenario.get('n', '?')} "
                f"seed={meta_block.get('seed')}"
            )
        elif meta_block.get("source"):
            label = str(meta_block["source"])
        try:
            events = chrome_trace_events(
                stream.records, pid=pid, process_name=label
            )
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"{path}: malformed span record ({type(exc).__name__}: "
                f"{exc})",
                path=path,
            ) from exc
        return events, f"span stream ({len(stream.records)} spans)"
    else:
        rows = [
            {
                "round": e.round_index,
                "config_class": e.config_class,
                "moved": len(e.moved),
                "crashed": len(e.crashed),
                "support": e.support,
                "spread": e.spread,
            }
            for e in round_events(stream)[0]
        ]
        kind = f"obs event stream ({len(rows)} rounds)"
    return _synthetic_round_events(rows, pid, os.path.basename(path)), kind


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .resilience import atomic_write

    output = args.output or (
        os.path.splitext(args.inputs[0])[0] + ".perfetto.json"
    )

    events: List[dict] = []
    for i, path in enumerate(args.inputs):
        input_events, kind = _export_one_input(path, args.pid + i)
        events.extend(input_events)
        print(f"{path}: {kind}")

    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    atomic_write(output, json.dumps(document) + "\n")
    print(f"wrote {len(events)} trace events -> {output}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    start = time.perf_counter()
    result = _observed_run(args, scenario, scenario.engine_seed(args.seed))
    elapsed = time.perf_counter() - start
    print(f"profile    : {scenario.label()} seed={args.seed}")
    print(f"verdict    : {result.verdict} in {result.rounds} rounds "
          f"({elapsed:.3f}s wall)")
    _print_obs_report(args)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .core import Configuration
    from .viz import render_configuration, render_trace

    scenario = _scenario(args, movement="rigid")
    verdict = "snapshot"
    if not args.snapshot:
        result = run_scenario(
            scenario, args.seed, engine_seed=args.seed, record_trace=True
        )
        verdict = f"{result.verdict} in {result.rounds} rounds"
    if args.snapshot or not len(result.trace):
        # A run that halts before its first round (a bivalent start)
        # has no trace to draw; its start configuration is the picture.
        svg = render_configuration(
            Configuration(generate(args.workload, args.n, args.seed)),
            caption=f"{args.workload} n={args.n}",
        )
    else:
        svg = render_trace(result.trace, result)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.output} ({verdict})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not our error.
        return 0
    except KeyboardInterrupt:
        # ResilientExecutor teardown has already cancelled queued work
        # and killed lingering workers by the time this propagates.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        # The structured taxonomy: corrupted inputs, exhausted retries,
        # timeouts.  One diagnostic line, a meaningful exit code, and
        # never a traceback for an operational failure.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
