"""Trace replay (`repro.sim.replay`)."""

import json
import os

import pytest

from repro.cli import main
from repro.experiments.runner import Scenario, run_batch, run_scenario
from repro.resilience import TraceFormatError
from repro.sim import Trace
from repro.sim.replay import (
    compare_traces,
    load_trace,
    replay_trace,
    save_trace,
)

#: Small-team scenario: cheap enough to record and replay many times.
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
        assert meta.backend == "python"
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
            report = replay_trace(load_trace(os.path.join(corpus, name)))
            assert report.ok, report.describe()

    @pytest.mark.usefixtures("numpy")
    def test_batched_archive_replays_the_batched_computation(self, tmp_path):
        # The batched engine computes in the global frame.  On seed 3196
        # of this sweep the scalar engine with random frames ends
        # differently (18 rounds, crashed ids (11, 13)); the archive must
        # record the run the batched engine made.
        corpus = str(tmp_path / "corpus")
        scenario = Scenario(workload="random", n=16, f=4, engine="batched")
        [batched] = run_batch(
            scenario, [3196], archive_dir=corpus, archive_if=lambda r: True
        )
        assert (batched.rounds, batched.crashed_ids) == (16, (13,))
        [name] = os.listdir(corpus)
        path = os.path.join(corpus, name)
        trace = load_trace(path)
        assert trace.meta.scenario["frames"] == "identity"
        assert trace.meta.scenario["engine"] == "atom"
        assert len(trace) == batched.rounds
        assert main(["check", "--replay", path]) == 0
        rerun = run_scenario(Scenario.from_dict(trace.meta.scenario), 3196)
        assert rerun.rounds == batched.rounds
        assert rerun.crashed_ids == batched.crashed_ids

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

