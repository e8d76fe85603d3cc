"""`repro sweep`: journaling, resume, guards, chaos via the environment."""

import json

import pytest

from repro import cli
from repro.experiments.runner import Scenario, run_batch
from repro.resilience import ChaosPolicy, SweepJournal

SCENARIO_ARGS = [
    "--workload", "asymmetric", "--n", "6", "--f", "1",
    "--scheduler", "round-robin", "--crashes", "after-move",
    "--movement", "rigid", "--max-rounds", "2000",
]

SCENARIO = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)


def sweep(*extra):
    return cli.main(["sweep", *SCENARIO_ARGS, *extra])


class TestSweepCommand:
    def test_fresh_sweep_journals_every_seed(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep("--seeds", "4", "--journal", journal) == 0
        out = capsys.readouterr().out
        assert "4/4 seed(s)" in out
        completed = SweepJournal.peek(journal, SCENARIO.to_dict())
        assert sorted(completed) == [0, 1, 2, 3]

    def test_journal_results_match_run_batch(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep("--seeds", "4", "--journal", journal) == 0
        baseline = run_batch(SCENARIO, range(4), chaos=ChaosPolicy())
        completed = SweepJournal.peek(journal)
        for seed, expected in zip(range(4), baseline):
            got = completed[seed]
            assert got.verdict == expected.verdict
            assert got.rounds == expected.rounds
            assert got.final_positions == expected.final_positions
            assert got.total_distance == expected.total_distance

    def test_existing_journal_without_resume_refused(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep("--seeds", "2", "--journal", journal) == 0
        capsys.readouterr()
        assert sweep("--seeds", "2", "--journal", journal) == 2
        err = capsys.readouterr().err
        assert "already exists" in err and "--resume" in err
        # The refused run must not have touched the journal.
        assert sorted(SweepJournal.peek(journal)) == [0, 1]

    def test_resume_requires_journal(self, capsys):
        assert sweep("--seeds", "2", "--resume") == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_bad_batch_size_refused(self, tmp_path, capsys):
        # argparse refuses it: a usage error, exit 2, before any work.
        journal = tmp_path / "sweep.jsonl"
        for size in ("-2", "0"):
            with pytest.raises(SystemExit) as excinfo:
                sweep(
                    "--seeds", "2", "--engine", "batched",
                    "--batch-size", size, "--journal", str(journal),
                )
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "positive" in err
            assert not journal.exists()

    def test_resume_extends_a_partial_sweep(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep("--seeds", "3", "--journal", journal) == 0
        capsys.readouterr()
        assert sweep("--seeds", "6", "--journal", journal, "--resume") == 0
        out = capsys.readouterr().out
        assert "resumed    : 3 seed(s)" in out
        assert sorted(SweepJournal.peek(journal)) == [0, 1, 2, 3, 4, 5]

    def test_resume_onto_wrong_scenario_refused(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep("--seeds", "2", "--journal", journal) == 0
        capsys.readouterr()
        code = cli.main([
            "sweep", "--workload", "random", "--n", "8",
            "--seeds", "2", "--journal", journal, "--resume",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "different scenario" in err
        assert "Traceback" not in err

    def test_seed_start_offsets_the_range(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep(
            "--seeds", "3", "--seed-start", "10", "--journal", journal
        ) == 0
        assert sorted(SweepJournal.peek(journal)) == [10, 11, 12]

    def test_unfinished_seeds_exit_nonzero(self, capsys):
        # One round is never enough to gather this workload: the sweep
        # must report the not-gathered seeds through its exit code.
        code = cli.main([
            "sweep", "--workload", "asymmetric", "--n", "6", "--f", "1",
            "--scheduler", "round-robin", "--crashes", "after-move",
            "--movement", "rigid", "--max-rounds", "1", "--seeds", "2",
        ])
        assert code == 1
        assert "0/2 seed(s)" in capsys.readouterr().out

    def test_chaos_from_environment_is_survived(
        self, tmp_path, capsys, monkeypatch
    ):
        # REPRO_CHAOS reaches the sweep through parallel_map's default;
        # serial execution converts kills to retried exceptions.  The
        # journal must still end up bit-identical to a clean run.
        monkeypatch.setenv("REPRO_CHAOS", "seed=2,kill=0.2,error=0.1")
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep(
            "--seeds", "4", "--retries", "8", "--backoff", "0",
            "--journal", journal,
        ) == 0
        monkeypatch.delenv("REPRO_CHAOS")
        baseline = run_batch(SCENARIO, range(4), chaos=ChaosPolicy())
        completed = SweepJournal.peek(journal)
        for seed, expected in zip(range(4), baseline):
            assert completed[seed].final_positions == expected.final_positions
            assert completed[seed].total_distance == expected.total_distance

    def test_journal_is_valid_jsonl_with_header(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        assert sweep("--seeds", "2", "--journal", journal) == 0
        with open(journal, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["format"] == "repro-sweep-v1"
        assert Scenario.from_dict(lines[0]["scenario"]) == SCENARIO
        assert [entry["seed"] for entry in lines[1:]] == [0, 1]
