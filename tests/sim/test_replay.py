"""Trace replay and differential verification (`repro.sim.replay`)."""

import json
import os

import pytest

from repro.experiments.runner import Scenario, run_batch, run_scenario
from repro.geometry import kernels
from repro.resilience import TraceFormatError
from repro.sim import Trace
from repro.sim.replay import (
    compare_traces,
    differential_check,
    load_trace,
    replay_trace,
    save_trace,
)

#: Small-team scenario: n < KERNEL_MIN_N bypasses the vectorized kernels
#: on both backends, so executions are bitwise backend-identical by
#: construction — the right property for replay fixtures.
SMALL = Scenario(
    workload="asymmetric",
    n=6,
    algorithm="wait-free-gather",
    scheduler="random",
    crashes="random",
    f=2,
    movement="random-stop",
    max_rounds=2_000,
)


def recorded_trace(scenario=SMALL, seed=3) -> Trace:
    result = run_scenario(scenario, seed, record_trace=True)
    assert result.trace is not None and result.trace.meta is not None
    return result.trace


class TestMetaRoundTrip:
    def test_v2_trace_round_trips_exactly(self):
        trace = recorded_trace()
        restored = Trace.from_json(trace.to_json())
        assert restored.meta == trace.meta
        assert compare_traces(trace, restored) is None

    def test_meta_embeds_full_scenario(self):
        trace = recorded_trace()
        meta = trace.meta
        assert Scenario.from_dict(meta.scenario) == SMALL
        assert meta.seed == 3
        assert meta.engine_seed == SMALL.engine_seed(3)
        assert meta.backend in ("python", "numpy")
        assert meta.tolerance is not None

    def test_unknown_scenario_field_rejected(self):
        data = SMALL.to_dict()
        data["future_knob"] = 1
        with pytest.raises(ValueError, match="future_knob"):
            Scenario.from_dict(data)


class TestReplay:
    def test_replay_is_bit_identical(self, tmp_path):
        trace = recorded_trace()
        path = str(tmp_path / "t.json")
        save_trace(trace, path)
        report = replay_trace(load_trace(path), path=path)
        assert report.ok, report.describe()
        assert report.rounds_compared == len(trace)

    def test_replay_bit_identical_on_both_backends(self, tmp_path):
        trace = recorded_trace()
        for backend in kernels.available_backends():
            report = replay_trace(trace, backend=backend)
            assert report.ok, report.describe()

    def test_tampered_position_detected(self, tmp_path):
        trace = recorded_trace()
        data = json.loads(trace.to_json())
        # Above eps_dist, so the Configuration rebuild cannot snap the
        # perturbed coordinate back onto a coincident robot.
        data["records"][1]["after"][2][0] += 1e-6
        bad = Trace.from_json(json.dumps(data))
        report = replay_trace(bad)
        assert not report.ok
        assert report.divergence.field in ("positions-after", "positions-before")
        assert "check --replay" in report.command

    def test_tampered_destination_detected_below_tolerance(self):
        # Destinations are raw points (never cluster-merged), so even a
        # sub-tolerance bit flip must be caught.
        trace = recorded_trace()
        data = json.loads(trace.to_json())
        record = data["records"][0]
        rid = next(iter(record["destinations"]))
        record["destinations"][rid][0] += 1e-12
        report = replay_trace(Trace.from_json(json.dumps(data)))
        assert not report.ok
        assert report.divergence.field == "destinations"
        assert report.divergence.round_index == 0

    def test_truncated_trace_reports_round_count(self):
        trace = recorded_trace()
        data = json.loads(trace.to_json())
        data["records"] = data["records"][:-1]
        report = replay_trace(Trace.from_json(json.dumps(data)))
        assert not report.ok
        assert report.divergence.field == "rounds"

    def test_v1_trace_refused_with_clear_error(self):
        trace = recorded_trace()
        data = json.loads(trace.to_json())
        payload = {"format": "repro-trace-v1", "records": data["records"]}
        with pytest.raises(TraceFormatError, match="repro-trace-v1"):
            Trace.from_json(json.dumps(payload))
        # A v2 trace without meta still loads, but cannot be replayed.
        data["meta"] = None
        metaless = Trace.from_json(json.dumps(data))
        assert metaless.meta is None
        with pytest.raises(ValueError, match="meta"):
            replay_trace(metaless)


class TestArchiveCorpus:
    def test_failing_seeds_archived_and_replayable(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        # max_rounds too small to gather: every seed fails and is
        # archived as a self-describing v2 trace.
        scenario = Scenario(
            workload="random", n=6, f=2, movement="random-stop", max_rounds=3
        )
        results = run_batch(scenario, range(2), archive_dir=corpus)
        assert all(not r.gathered for r in results)
        archived = sorted(os.listdir(corpus))
        assert len(archived) == 2
        for name in archived:
            trace = load_trace(os.path.join(corpus, name))
            for backend in kernels.available_backends():
                report = replay_trace(trace, backend=backend)
                assert report.ok, report.describe()

    def test_gathered_seeds_not_archived(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        run_batch(SMALL, [3], archive_dir=corpus)
        assert not os.path.exists(corpus) or os.listdir(corpus) == []

    def test_archive_dir_from_environment(self, tmp_path, monkeypatch):
        corpus = str(tmp_path / "env-corpus")
        monkeypatch.setenv("REPRO_ARCHIVE_DIR", corpus)
        scenario = Scenario(workload="random", n=6, max_rounds=2)
        run_batch(scenario, [0])
        assert os.listdir(corpus)


class TestDifferential:
    def test_backends_agree_in_subprocesses(self):
        # One seed through the real subprocess path: each child resolves
        # REPRO_BACKEND from its environment at import time.
        scenario = Scenario(
            workload="random", n=6, f=1, movement="random-stop", max_rounds=500
        )
        report = differential_check(scenario, seed=0)
        assert report.ok, report.describe()
        assert report.rounds[0] == report.rounds[1] > 0

    def test_diff_command_is_minimized(self):
        from repro.sim.replay import diff_command

        command = diff_command(SMALL, seed=7, max_rounds=12)
        assert "--seeds 7" in command
        assert "--max-rounds 12" in command
        assert "--workload asymmetric" in command
