"""A chaotic pooled ``repro sweep`` journals what a clean serial one does.

Worker SIGKILLs and injected exceptions (``REPRO_CHAOS``) hit a sweep on
two workers; retries and pool rebuilds must bring every seed home, and
the journal must hold the same result for every seed as an undisturbed
serial sweep.  On the batched engine the eight seeds split into one
chunk per worker, so the split itself runs under kills and rebuilds.
"""

import json

import pytest

from repro import cli

SWEEP_ARGS = [
    "sweep", "--workload", "asymmetric", "--n", "6", "--f", "1",
    "--scheduler", "round-robin", "--crashes", "after-move",
    "--movement", "rigid", "--max-rounds", "2000", "--seeds", "8",
]

CHAOS = "seed=3,kill=0.3,error=0.1"


def _entries(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    return {entry["seed"]: entry["result"] for entry in lines[1:]}


@pytest.mark.parametrize("engine", ["atom", "batched"])
def test_chaotic_sweep_matches_sequential_baseline(
    engine, tmp_path, monkeypatch, capfd
):
    clean = str(tmp_path / "clean.jsonl")
    chaotic = str(tmp_path / "chaotic.jsonl")
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert cli.main(
        [*SWEEP_ARGS, "--engine", engine, "--journal", clean]
    ) == 0

    monkeypatch.setenv("REPRO_CHAOS", CHAOS)
    assert cli.main([
        *SWEEP_ARGS, "--engine", engine, "--workers", "2",
        "--retries", "8", "--backoff", "0", "--journal", chaotic,
    ]) == 0
    # The faults really struck: a worker was killed mid-sweep.
    assert "[chaos] killing worker" in capfd.readouterr().err

    expected = _entries(clean)
    assert sorted(expected) == list(range(8))
    assert _entries(chaotic) == expected
