"""Op lists of the three workloads: pure functions of the workload seed.

Every workload draws its ops from a fixed pool built from constants, so
the work multiset is the same for every seed and the per-op digests in
``digests.json`` cover every seed, not only the default.  The workload
seed orders that pool (and, for ``serve-zipf``, draws the hit
sequence), so a second seed gives a different list with the same
per-family and per-engine counts.

Ops are plain JSON-ready dicts; :func:`dump` is the byte form the
determinism check compares.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from collections import Counter
from typing import Dict, List

#: The E1 Theorem 5.1 families at quick sizes (``e1_main_theorem``),
#: copied so that a change to the experiment cannot move the benchmark.
FAMILIES = (
    "asymmetric",
    "multiple",
    "linear-unique",
    "linear-interval",
    "regular-polygon",
    "biangular",
    "qr-occupied-center",
    "near-bivalent",
)
SIZES = (6, 8)
SCHEDULERS = ("fsync", "random")

#: ``simulate``: every ASYNC_EVERY-th op of the pool runs on the phased
#: ``async`` engine.
ASYNC_EVERY = 4
#: Untimed warm-up before the timed phase: every op whose pool id is a
#: multiple of SIM_WARMUP_STRIDE, so its work is the same for every seed.
SIM_WARMUP_STRIDE = 5

#: ``sweep-batched``: one random-workload scenario on the batched engine,
#: chunks of BATCH seeds, one chunk per ``run_batch`` call on a warm
#: two-worker pool.  One chunk in flight keeps a chunk's latency to one
#: worker's CPU: with one chunk per worker in flight, each call waited
#: for the slower of two shared vCPUs and the run-to-run spread of
#: ``ops_per_s`` reached 0.24.
SWEEP_SCENARIO = {
    "workload": "random",
    "n": 16,
    "f": 4,
    "scheduler": "random",
    "crashes": "random",
    "movement": "random-stop",
    "engine": "batched",
}
SWEEP_CHUNKS = 4
BATCH = 64
#: Pool ids of the chunks of the untimed warm-up (the first call forks
#: both workers).
SWEEP_WARMUP = (0,)
#: Passes in a sweep op list: one pass of a pool this small has few
#: orders, and two seeds must give different lists.
SWEEP_PASSES = 32

#: ``serve-zipf``: keys per E1 cell, clients, and the request shape:
#: every MISS_EVERY-th request of a client asks a key it has not asked
#: before (a miss); the rest draw from the keys it has asked, Zipf with
#: exponent ZIPF_S over first-request order (hits).
SERVE_REPLICAS = 12
CLIENTS = 2
MISS_EVERY = 4
ZIPF_S = 1.1
#: Requests per client replayed untimed during set-up, and requests per
#: client in each pass of the traced run.
SERVE_WARMUP = 24
SERVE_TRACE_REQUESTS = 160
#: Requests per client in one window of the timed phase.
SERVE_WINDOW = 64


def _cells() -> List[dict]:
    cells = []
    for family in FAMILIES:
        for n in SIZES:
            for f in (0, 1, n // 2, n - 1):
                for scheduler in SCHEDULERS:
                    cells.append(
                        {
                            "workload": family,
                            "n": n,
                            "f": f,
                            "scheduler": scheduler,
                            "crashes": "random",
                            "movement": "random-stop",
                        }
                    )
    return cells


def _instance_seed(*parts) -> int:
    return random.Random(":".join(["perfbench", *map(str, parts)])).randrange(
        2**31
    )


def simulate_pool() -> List[dict]:
    """Half the E1 cells, balanced: every family, and within each family
    every size four times, every fault budget twice, every scheduler
    four times (a small pool repeats each op more often per run)."""
    ops = []
    for c, cell in enumerate(_cells()):
        if (c % 2 + (c // 2) % 4 + (c // 8) % 2) % 2:
            continue
        engine = "async" if len(ops) % ASYNC_EVERY == 0 else "atom"
        ops.append(
            {
                "id": len(ops),
                "scenario": dict(cell, engine=engine),
                "seed": _instance_seed("simulate", c, 0),
            }
        )
    return ops


def sweep_pool() -> List[dict]:
    seeds = random.Random("perfbench:sweep").sample(
        range(2**31), SWEEP_CHUNKS * BATCH
    )
    return [
        {
            "id": k,
            "scenario": dict(SWEEP_SCENARIO),
            "seeds": seeds[k * BATCH : (k + 1) * BATCH],
        }
        for k in range(SWEEP_CHUNKS)
    ]


def serve_pool() -> List[dict]:
    keys = []
    for c, cell in enumerate(_cells()):
        for r in range(SERVE_REPLICAS):
            keys.append(
                {
                    "id": len(keys),
                    "scenario": dict(cell),
                    "seed": _instance_seed("serve", c, r),
                }
            )
    return keys


def _shuffled(items: List[dict], *parts) -> List[dict]:
    items = list(items)
    random.Random(":".join(["perfbench", *map(str, parts)])).shuffle(items)
    return items


def simulate_ops(seed: int) -> List[dict]:
    return _shuffled(simulate_pool(), "simulate-order", seed)


def sweep_ops(seed: int) -> List[dict]:
    """SWEEP_PASSES passes over the chunk pool, each in a seeded order."""
    rng = random.Random(f"perfbench:sweep-order:{seed}")
    out = []
    for _ in range(SWEEP_PASSES):
        chunks = sweep_pool()
        rng.shuffle(chunks)
        out.extend(chunks)
    return out


def serve_ops(seed: int) -> List[List[dict]]:
    """One request sequence per client; clients own disjoint keys, so
    whether a request hits or misses never depends on interleaving."""
    pool = serve_pool()
    sequences = []
    for client in range(CLIENTS):
        keys = pool[client::CLIENTS]
        # The keys the warm-up computes are the same set for every seed.
        head = SERVE_WARMUP // MISS_EVERY
        fresh = _shuffled(keys[:head], "serve-head", seed, client) + _shuffled(
            keys[head:], "serve-keys", seed, client
        )
        rng = random.Random(f"perfbench:serve-zipf:{seed}:{client}")
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(fresh) + 1):
            total += rank ** -ZIPF_S
            cumulative.append(total)
        seen: List[dict] = []
        sequence = []
        for i in range(len(fresh) * MISS_EVERY):
            if i % MISS_EVERY == 0:
                key = fresh[len(seen)]
                seen.append(key)
                sequence.append(dict(key, fresh=True))
            else:
                u = rng.random() * cumulative[len(seen) - 1]
                key = seen[bisect.bisect_left(cumulative, u, 0, len(seen) - 1)]
                sequence.append(dict(key, fresh=False))
        sequences.append(sequence)
    return sequences


def build(workload: str, seed: int):
    return {
        "simulate": simulate_ops,
        "sweep-batched": sweep_ops,
        "serve-zipf": serve_ops,
    }[workload](seed)


def dump(ops) -> bytes:
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()


def result_digest(result: dict) -> str:
    """Digest of one result in ``result_to_dict`` form: what Theorem 5.1
    and the determinism claims constrain (verdict, rounds, crashed ids,
    final positions), nothing about timing."""
    fields = [
        result["verdict"],
        result["rounds"],
        sorted(result["crashed_ids"]),
        result["final_positions"],
    ]
    return hashlib.sha256(dump(fields)).hexdigest()[:16]


def chunk_digest(results: List[dict]) -> str:
    return hashlib.sha256(
        "".join(result_digest(r) for r in results).encode()
    ).hexdigest()[:16]


def mix(workload: str, ops) -> Dict[str, int]:
    """Per-family and per-engine counts of the work an op list does
    (for ``serve-zipf``: of the keys it computes, one per miss)."""
    if workload == "serve-zipf":
        ops = [op for sequence in ops for op in sequence if op["fresh"]]
    counts: Counter = Counter()
    for op in ops:
        counts["family=" + op["scenario"]["workload"]] += 1
        counts["engine=" + op["scenario"].get("engine", "atom")] += 1
    return dict(counts)
