"""The span fold, the wrapper install/uninstall cycle, and the traced
run's determinism."""

import json
import sys
import types

import pytest

import layers
import ops
import spans
from workloads import Simulate, Tally


def span(sid, parent, name, start, end, op=None, top=False, tag=None):
    return (sid, parent, name, start, end, op, top, tag)


def test_union_length_merges_and_clips():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([(0, 2), (1, 3)], lo=1.5, hi=2.5) == 1.0
    assert spans.union_length([]) == 0.0


def test_fold_nested_children():
    # a [0, 10] > b [1, 4] > c [2, 3]; a > d [5, 7].  End order.
    folded = spans.fold([
        span(3, 2, "c", 2, 3),
        span(2, 1, "b", 1, 4),
        span(4, 1, "d", 5, 7),
        span(1, None, "a", 0, 10),
    ])
    assert folded.self_s == {"a": 5, "b": 2, "c": 1, "d": 2}
    assert folded.total_s["a"] == 10
    assert sum(folded.self_s.values()) == 10


def test_fold_overlapping_children_count_once():
    # Children on other threads may overlap; their union is covered once.
    folded = spans.fold([
        span(2, 1, "b", 1, 6),
        span(3, 1, "b", 4, 8),
        span(4, 1, "b", 9, 12),
        span(1, None, "a", 0, 10),
    ])
    assert folded.self_s["a"] == pytest.approx(10 - 7 - 1)
    assert folded.calls["b"] == 3


def test_fold_residual_is_uncovered_op_time():
    folded = spans.fold([
        span(2, 1, "x", 1, 3, op=7, top=True),
        span(3, 2, "y", 1.5, 2.5, op=7),
        span(4, None, "z", 2, 5, op=7, top=True),  # another thread
        span(5, None, "z", 0, 1, op=8, top=True),  # another op
        span(1, None, "op", 0, 10, op=7),
    ])
    assert folded.op_wall == 10
    assert folded.op_residual == pytest.approx(10 - 4)
    assert folded.op_residual >= 0


def test_residual_never_negative_when_children_overrun():
    folded = spans.fold([
        span(2, None, "x", -5, 20, op=1, top=True),
        span(1, None, "op", 0, 10, op=1),
    ])
    assert folded.op_residual == 0


def test_tags_and_counters_fold():
    folded = spans.fold(
        [span(1, None, "g", 0, 1, tag="hit"), span(2, None, "g", 1, 2, tag="hit")],
        counters=[{"m.hit": 2}, {"m.hit": 1, "m.miss": 4}],
    )
    assert folded.tag("g", "hit") == 2
    assert folded.counters == {"m.hit": 3, "m.miss": 4}


def test_read_dir_round_trips_flushed_spans(tmp_path):
    recorder = spans.Recorder(str(tmp_path))
    recorder.op = 1
    outer = recorder.begin("op")
    inner = recorder.begin("work")
    recorder.end(inner, "hit")
    recorder.count("memo.hit")
    recorder.end(outer)
    recorder.flush()
    folded = spans.read_dir(str(tmp_path))
    assert folded.calls == {"op": 1, "work": 1}
    assert folded.tag("work", "hit") == 1
    assert folded.counters == {"memo.hit": 1}


def test_pool_ipc_subtracts_longest_contained_item():
    maps = [(0.0, 10.0), (20.0, 25.0)]
    workers = [(1.0, 7.0), (2.0, 9.0), (21.0, 24.0), (30.0, 31.0)]
    assert layers.pool_ipc(maps, workers) == pytest.approx(3.0 + 2.0)


def _bindings():
    """Every attribute of every loaded repro module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def test_uninstall_restores_original_objects(tmp_path):
    import repro.serve.server  # noqa: F401  (load every wrapped module)
    from repro.core import classify
    from repro.sim import engine

    before = _bindings()
    tracer = spans.Tracer(spans.Recorder(str(tmp_path)))
    tracer.install([layers.install_all])
    assert engine.classify is not classify  # patched where it is looked up
    tracer.uninstall()
    after = _bindings()
    assert engine.classify is classify
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def _simulate_pass(tmp_path, traced, count=12):
    digests = json.loads((layers_dir() / "digests.json").read_text())
    recorder = tracer = None
    if traced:
        out = tmp_path / ("spans-%d" % len(list(tmp_path.iterdir())))
        out.mkdir()
        recorder = spans.Recorder(str(out))
        tracer = spans.Tracer(recorder)
        tracer.install([layers.install_all])
    try:
        workload = Simulate(3, str(tmp_path), digests, recorder=recorder)
        from repro.experiments.runner import Scenario

        workload.ops = [
            (op["id"], Scenario(**op["scenario"]), op["seed"])
            for op in ops.simulate_ops(3)[:count]
        ]
        tally = Tally()
        workload._run(workload.ops, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
            recorder.flush()
    folded = spans.read_dir(recorder.out_dir) if traced else None
    return tally, folded


def layers_dir():
    from pathlib import Path

    return Path(layers.__file__).resolve().parent


def test_traced_ops_match_committed_digests(tmp_path):
    plain, _ = _simulate_pass(tmp_path, traced=False)
    traced, _ = _simulate_pass(tmp_path, traced=True)
    assert plain.ops == traced.ops == 12
    assert plain.failed == traced.failed == 0


def test_traced_counts_repeat_exactly(tmp_path):
    _, first = _simulate_pass(tmp_path, traced=True)
    _, second = _simulate_pass(tmp_path, traced=True)
    names = ("sim.step", "algorithms.compute", "core.configuration",
             "core.classify", "workloads.generate")
    assert {n: first.calls[n] for n in names} == {
        n: second.calls[n] for n in names
    }
    assert first.counters == second.counters
    assert first.calls.get("geometry.kernels", 0) == 0


def test_op_lists_are_deterministic_and_seed_dependent():
    for workload in ("simulate", "sweep-batched", "serve-zipf"):
        first = ops.build(workload, 5)
        assert ops.dump(first) == ops.dump(ops.build(workload, 5))
        other = ops.build(workload, 6)
        assert ops.dump(first) != ops.dump(other)
        assert ops.mix(workload, first) == ops.mix(workload, other)


def test_serve_sequences_have_fixed_miss_positions():
    for sequence in ops.serve_ops(9):
        fresh = [op["fresh"] for op in sequence]
        assert fresh == [i % ops.MISS_EVERY == 0 for i in range(len(fresh))]
        asked = set()
        for op in sequence:
            assert op["fresh"] == (op["id"] not in asked)
            asked.add(op["id"])


def test_every_pool_op_has_a_committed_digest():
    digests = json.loads((layers_dir() / "digests.json").read_text())
    assert set(digests["simulate"]) == {str(op["id"]) for op in ops.simulate_pool()}
    assert set(digests["sweep-batched"]) == {
        str(op["id"]) for op in ops.sweep_pool()
    }
    assert set(digests["serve-zipf"]) == {str(op["id"]) for op in ops.serve_pool()}


def test_wrapper_keeps_pickle_identity(tmp_path):
    import pickle

    module = types.ModuleType("repro_pickle_probe")
    sys.modules[module.__name__] = module

    def probe(x):
        return x + 1

    probe.__module__ = module.__name__
    probe.__qualname__ = "probe"
    module.probe = probe
    try:
        tracer = spans.Tracer(spans.Recorder(str(tmp_path)))
        tracer.function(module, "probe", "probe")
        wrapped = module.probe
        assert wrapped is not probe
        assert pickle.loads(pickle.dumps(wrapped)) is wrapped
        assert wrapped(1) == 2
        tracer.uninstall()
        assert module.probe is probe
    finally:
        del sys.modules[module.__name__]
