"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "random"
        assert args.algorithm == "wait-free-gather"

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "nope"])


class TestSimulate:
    def test_successful_run_exit_zero(self, capsys):
        code = main(
            ["simulate", "--workload", "asymmetric", "--n", "6", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict    : gathered" in out

    def test_crash_tolerant_run(self, capsys):
        code = main(
            [
                "simulate",
                "--workload", "random",
                "--n", "6",
                "--f", "5",
                "--crashes", "random",
                "--seed", "2",
            ]
        )
        assert code == 0
        assert "gathered" in capsys.readouterr().out

    def test_bivalent_reports_impossible(self, capsys):
        code = main(
            ["simulate", "--workload", "bivalent", "--n", "6", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0  # impossibility correctly detected is a success
        assert "impossible" in out

    def test_trace_flag_prints_rounds(self, capsys):
        main(
            [
                "simulate",
                "--workload", "multiple",
                "--n", "6",
                "--seed", "1",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert "[M]" in out


class TestClassify:
    def test_polygon_reports_qr(self, capsys):
        code = main(
            ["classify", "--workload", "regular-polygon", "--n", "6",
             "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "class  : QR" in out
        assert "qreg   : 6" in out

    def test_bivalent_reports_b(self, capsys):
        main(["classify", "--workload", "bivalent", "--n", "6"])
        out = capsys.readouterr().out
        assert "class  : B" in out
        assert "safe   : 0" in out


class TestHunt:
    def test_hunt_naive_leader_finds_trap(self, capsys):
        code = main(
            [
                "hunt",
                "--algorithm", "naive-leader",
                "--workload", "unsafe-ray",
                "--n", "8",
                "--rounds", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reached B : True" in out

    def test_hunt_wfg_survives(self, capsys):
        code = main(["hunt", "--n", "6", "--rounds", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reached B : False" in out


class TestRender:
    def test_render_run(self, capsys, tmp_path):
        target = str(tmp_path / "run.svg")
        code = main(
            ["render", target, "--workload", "asymmetric", "--n", "6",
             "--seed", "1"]
        )
        assert code == 0
        with open(target) as handle:
            assert handle.read().startswith("<svg")
        assert "gathered" in capsys.readouterr().out

    def test_render_snapshot(self, capsys, tmp_path):
        target = str(tmp_path / "snap.svg")
        code = main(
            ["render", target, "--workload", "regular-polygon", "--n", "6",
             "--snapshot"]
        )
        assert code == 0
        with open(target) as handle:
            assert "Weber point" in handle.read()


class TestSaveTrace:
    def test_trace_json_written_and_loadable(self, capsys, tmp_path):
        from repro.sim import Trace

        target = str(tmp_path / "trace.json")
        code = main(
            ["simulate", "--workload", "multiple", "--n", "6",
             "--seed", "1", "--save-trace", target]
        )
        assert code == 0
        assert "trace saved" in capsys.readouterr().out
        with open(target) as handle:
            trace = Trace.from_json(handle.read())
        assert len(trace) > 0

    def test_saved_trace_carries_full_meta(self, tmp_path):
        from repro.sim import Trace

        target = str(tmp_path / "trace.json")
        main(
            ["simulate", "--workload", "asymmetric", "--n", "6",
             "--f", "1", "--seed", "1", "--save-trace", target]
        )
        with open(target) as handle:
            trace = Trace.from_json(handle.read())
        assert trace.meta is not None
        assert trace.meta.scenario["workload"] == "asymmetric"
        assert trace.meta.seed == 1
        assert trace.meta.engine_seed == 1  # simulate passes the raw seed


class TestCheck:
    def _save(self, tmp_path, name="t.json", seed="1"):
        target = str(tmp_path / name)
        main(
            ["simulate", "--workload", "asymmetric", "--n", "6",
             "--f", "1", "--seed", seed, "--save-trace", target]
        )
        return target

    def test_replay_ok_exit_zero(self, capsys, tmp_path):
        target = self._save(tmp_path)
        code = main(["check", "--replay", target])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        assert "check ok" in out

    def test_tampered_trace_exit_one(self, capsys, tmp_path):
        import json

        target = self._save(tmp_path)
        with open(target) as handle:
            data = json.load(handle)
        record = data["records"][0]
        rid = next(iter(record["destinations"]))
        record["destinations"][rid][0] += 1.0
        with open(target, "w") as handle:
            json.dump(data, handle)
        code = main(["check", "--replay", target])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert "reproduce:" in out

    def test_invariants_mode(self, capsys, tmp_path):
        target = self._save(tmp_path)
        code = main(["check", "--invariants", target])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants ok" in out

    def test_corpus_mode(self, capsys, tmp_path):
        self._save(tmp_path, "a.json", seed="1")
        self._save(tmp_path, "b.json", seed="2")
        code = main(["check", "--corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("replay ok") == 2
        assert out.count("invariants ok") == 2

    def test_empty_corpus_is_usage_error(self, capsys, tmp_path):
        assert main(["check", "--corpus", str(tmp_path)]) == 2

    def test_no_mode_is_usage_error(self, capsys):
        assert main(["check"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["check", option, "1"] for option in (
            "--diff", "--backend", "--emit-trace", "--seed", "--out",
            "--workload", "--n", "--algorithm", "--scheduler", "--crashes",
            "--f", "--movement", "--seeds", "--max-rounds", "--visibility",
        )] + [["profile", "--backend", "numpy"]],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_backend_options_are_gone(self, capsys, argv):
        """Scalar runs have one implementation, so the options that chose
        or diffed a kernel backend are unrecognized arguments now."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
