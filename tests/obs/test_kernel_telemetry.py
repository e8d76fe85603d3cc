"""Kernel timings are ordinary stats, and every reader sees them.

Each call of a batched-engine NumPy kernel is the stat
``geometry.kernels.<name>`` plus one ``kernel_seconds`` histogram
sample.  The same numbers must reach the in-process registry, the
``repro-sweep-metrics-v1`` document of a pooled ``repro sweep --obs``
and a daemon's ``/metrics`` — and the daemon's ``sweep`` block must be
exactly the fold :meth:`Aggregator.seed_done` computes.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.experiments.runner import Scenario, _run_batched_chunk
from repro.obs import Aggregator

from ..serve.client import serving

pytestmark = pytest.mark.usefixtures("numpy")

KERNELS = (
    "batched_max_ray_loads",
    "batched_weiszfeld",
    "distance_sums",
)

#: The benchmark's sweep shape (random placement, scheduler, crashes
#: and stops) at a size where the batched engine seeds every memo from
#: its kernels.
BATCHED = Scenario(workload="random", n=16, f=4, engine="batched")
SEEDS = list(range(6))


def _registry(tmp_path):
    obs.enable()
    _run_batched_chunk(BATCHED, SEEDS)
    snapshot = obs.metrics.snapshot()
    return snapshot["stats"], snapshot["hists"]


def _pooled_sweep(tmp_path):
    path = str(tmp_path / "sweep-metrics.json")
    assert main([
        "sweep", "--workload", "random", "--n", "16", "--f", "4",
        "--engine", "batched", "--seeds", str(len(SEEDS)),
        "--workers", "2", "--obs", "--metrics", path,
    ]) == 0
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return document["stats"], document["hists"]


def _daemon(tmp_path):
    with serving() as client:
        for seed in SEEDS[:2]:
            status, _, body = client.run(BATCHED.to_dict(), seed)
            assert status == 200, body
        sweep = client.metrics()["sweep"]
    # Per-endpoint namespace: the /run work lives under ``serve.run.``.
    strip = len("serve.run.")
    return (
        {name[strip:]: s for name, s in sweep["stats"].items()},
        {name[strip:]: h for name, h in sweep["hists"].items()},
    )


@pytest.mark.parametrize(
    "read", [_registry, _pooled_sweep, _daemon],
    ids=["registry", "pooled-sweep", "daemon-metrics"],
)
def test_kernel_timings_reach_every_reader(tmp_path, read):
    stats, hists = read(tmp_path)
    names = {f"geometry.kernels.{kernel}" for kernel in KERNELS}
    assert names <= set(stats)
    assert sum(stats[name]["count"] for name in names) == (
        hists["kernel_seconds"]["count"]
    )
    assert all(stats[name]["total"] >= 0.0 for name in names)


def test_daemon_metrics_are_the_seed_done_fold():
    scenario = {"workload": "asymmetric", "n": 6, "f": 1}
    with serving() as client:
        folded = []
        account = client.server._account

        def spy(results, prefix):
            folded.append((list(results), prefix))
            account(results, prefix)

        client.server._account = spy
        for seed in range(3):
            assert client.run(scenario, seed)[0] == 200
        sweep = client.metrics()["sweep"]
    reference = Aggregator()
    for results, prefix in folded:
        for result in results:
            reference.total_seeds += 1
            reference.seed_done(result, prefix)
    expected = reference.to_dict()
    for document in (sweep, expected):  # wall-clock readings differ
        document.pop("elapsed_s")
        document["rounds"].pop("per_second")
    assert [prefix for _, prefix in folded] == ["serve.run"] * 3
    assert sweep == expected
    assert sweep["seeds"]["done"] == 3
    assert sweep["counters"]["serve.run.runner.runs"] == 3
