#!/usr/bin/env python3
"""Repository benchmark: the simulate, sweep-batched and serve-zipf paths.

Run from the repository root::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  Set-up (op list, pool or
daemon, untimed warm-up) runs SETUPS times and ``setup_s`` is their
median.  The closed-loop timed phase then repeats its units of identical
work for ``--seconds``: ``ops_per_s`` and ``latency_p50_ms`` come from
the fastest run of each unit (see ``workloads.Tally.fastest``), and
``peak_rss_mb`` is the largest resident set of the process and its pool
workers.  A line of diagnostics (plain wall-clock rates, set-up times,
``host.calib_ms`` before and after) precedes the result.

``--trace 1`` is the separate traced run: one fixed pass untraced, then
set-up and the same pass with every layer boundary wrapped (see
``layers.py``); it reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--write-digests`` recomputes ``digests.json`` (the expected result of
every op in every workload's pool) and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: Fresh interpreters timed for ``cli.import_s``.
IMPORT_SAMPLES = 5

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (imports no repro module)


def calib_ms() -> float:
    """A fixed pure-Python loop: separates a slow host from a slow change."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def calibrate(samples: int = 3) -> list:
    return [calib_ms() for _ in range(samples)]


def cli_import_s() -> float:
    """Median wall time of ``import repro.cli`` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_op_lists(workload: str, seed: int) -> bool:
    """Rebuild the op list twice from the seed (byte-identical), and
    from a second seed (different bytes, same per-family and per-engine
    counts)."""
    import ops

    first, again = ops.build(workload, seed), ops.build(workload, seed)
    other = ops.build(workload, seed + 1)
    return (
        ops.dump(first) == ops.dump(again)
        and ops.dump(first) != ops.dump(other)
        and ops.mix(workload, first) == ops.mix(workload, other)
    )


def run_untraced(workload_cls, seed, seconds, scratch, digests):
    setups, warm = [], []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        workload = workload_cls(seed, scratch, digests)
        started = time.perf_counter()
        warm.append(workload.setup())
        setups.append(time.perf_counter() - started)
    try:
        tally = workload.timed(seconds)
    finally:
        workload.close()
    attempted = tally.ops + sum(w.ops for w in warm)
    failed = tally.failed + sum(w.failed for w in warm)
    ops_per_s, p50 = tally.fastest()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setups_s": setups,
        "timed_wall_s": tally.wall,
        "wall_ops_per_s": tally.ops / tally.wall,
        "wall_p50_ms": statistics.median(tally.latencies) * 1e3,
        "wall_p90_ms": percentile(tally.latencies, 0.9) * 1e3,
        "latency_samples": len(tally.latencies),
        "by_state": {k: len(v) for k, v in tally.by_state.items()},
    }
    return attempted, failed, metrics, notes


def run_traced(workload_cls, seed, scratch, digests):
    import layers
    import spans

    base = workload_cls(seed, scratch, digests)
    warm = [base.setup()]
    try:
        untraced = base.fixed()
    finally:
        base.close()

    span_dir = os.path.join(scratch, "spans")
    os.makedirs(span_dir)
    recorder = spans.Recorder(span_dir)
    tracer = spans.Tracer(recorder)
    tracer.install([layers.install_all])
    try:
        workload = workload_cls(seed, scratch, digests, recorder=recorder)
        started = time.perf_counter()
        warm.append(workload.setup())
        try:
            traced = workload.fixed()
            traced_wall = time.perf_counter() - started
        finally:
            workload.close()
    finally:
        tracer.uninstall()
        recorder.flush()
    fold = spans.read_dir(span_dir, keep=layers.KEEP)
    values = layers.metrics(
        fold,
        chunk_size=workload_cls.chunk_size,
        pool_workers=workload_cls.pool_workers,
        traced_wall=traced_wall,
    )
    values["trace.overhead_ratio"] = traced.wall / untraced.wall
    values["serve.hit_latency_p50_ms"] = (
        layers.median(untraced.by_state.get("hit", [])) * 1e3
    )
    values["serve.miss_latency_p50_ms"] = (
        layers.median(untraced.by_state.get("miss", [])) * 1e3
    )
    values["cli.import_s"] = cli_import_s()
    attempted = untraced.ops + traced.ops + sum(w.ops for w in warm)
    failed = untraced.failed + traced.failed + sum(w.failed for w in warm)
    units = dict(layers.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name in units
               if name != "host.calib_ms"}
    notes = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall}
    return attempted, failed, metrics, notes


def write_digests() -> None:
    """Run every pool op once, in-process, and record its digest.

    Theorem 5.1 is checked on the way: every ATOM op must gather."""
    import ops
    from repro.experiments.runner import Scenario, run_batched, run_scenario
    from repro.geometry import kernels
    from repro.resilience.journal import result_to_dict

    def digest(op):
        result = result_to_dict(run_scenario(Scenario(**op["scenario"]),
                                             op["seed"]))
        if (op["scenario"].get("engine", "atom") == "atom"
                and result["verdict"] != "gathered"):
            raise RuntimeError(f"op did not gather: {op}")
        return ops.result_digest(result)

    kernels.set_backend("python")
    out = {
        "simulate": {str(op["id"]): digest(op) for op in ops.simulate_pool()},
        "serve-zipf": {str(op["id"]): digest(op) for op in ops.serve_pool()},
    }
    kernels.set_backend("numpy")
    sweep = {}
    for chunk in ops.sweep_pool():
        results = [
            result_to_dict(r)
            for r in run_batched(Scenario(**chunk["scenario"]), chunk["seeds"],
                                 batch_size=ops.BATCH)
        ]
        if any(r["verdict"] != "gathered" for r in results):
            raise RuntimeError(f"chunk {chunk['id']} did not gather")
        sweep[str(chunk["id"])] = ops.chunk_digest(results)
    out["sweep-batched"] = sweep
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not args.write_digests and not DIGESTS.is_file():
        print(f"error: {DIGESTS} is missing", file=sys.stderr)
        return 2

    # The kernel backend is fixed at import; pool workers inherit it.
    if args.workload:
        os.environ["REPRO_BACKEND"] = WORKLOADS[args.workload].backend
    sys.path.insert(0, str(SRC))
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=str(scratch_root))
    try:
        if args.write_digests:
            write_digests()
            return 0
        digests = json.loads(DIGESTS.read_text())
        lists_ok = check_op_lists(args.workload, args.seed)
        calib = calibrate()
        workload_cls = WORKLOADS[args.workload]
        if args.trace:
            attempted, failed, metrics, notes = run_traced(
                workload_cls, args.seed, scratch, digests
            )
        else:
            attempted, failed, metrics, notes = run_untraced(
                workload_cls, args.seed, args.seconds, scratch, digests
            )
        calib += calibrate()
        if args.trace:
            metrics["host.calib_ms"] = (statistics.median(calib), "ms")
        notes.update(calib_ms=calib, op_lists_ok=lists_ok,
                     workload=args.workload, seed=args.seed)
        print(json.dumps({"notes": notes}))
        print(
            json.dumps(
                {
                    "correct": lists_ok and failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
