"""Tests of the benchmark's own machinery: tracer, corpus, golden manifest and
metric names.  Run with ``python3 -m pytest bench/tests -q``."""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest

import corpus
import run
from tracer import Tracer


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    summary = tracer.summary()
    assert summary["outer"] == (1, 10.0, 7.5)
    assert summary["inner"] == (2, 2.5, 2.5)
    assert tracer.calls_under("inner", "outer") == 2
    assert tracer.calls_under("outer", "inner") == 0


def test_recursive_call_counts_total_once():
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 3.0, 5.0))

    def fact(k):
        return 1 if k == 0 else k * traced(k - 1)

    traced = tracer.wrap("fact", fact)
    assert traced(1) == 1
    calls, total, own = tracer.summary()["fact"]
    assert (calls, total, own) == (2, 5.0, 5.0)


def test_span_closed_when_call_raises():
    tracer = Tracer(clock=fake_clock(0.0, 2.0))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"] == (1, 2.0, 2.0)
    assert tracer._stack == [-1]


def _bindings():
    """Every function and class attribute of the package, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "circuitfan" or name.startswith("circuitfan."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        snap[(name, key, attr)] = v
    return snap


def test_every_rebinding_is_restored():
    run.import_package()
    import circuitfan.circuits as circuits
    import circuitfan.linalg as linalg

    before = _bindings()
    original = linalg.exact_rank
    tracer = Tracer()
    with tracer.installed("circuitfan", run.trace_targets(tracer)):
        # circuits holds its own binding of exact_rank
        assert circuits.exact_rank is linalg.exact_rank is not original
        assert len(tracer.names) == len(run.TRACE_TARGETS)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_corpus_is_byte_identical_for_a_seed(tmp_path):
    for workload in corpus.WORKLOADS:
        files, jobs = corpus.build(workload, 5)
        assert (files, jobs) == corpus.build(workload, 5)
        other, other_jobs = corpus.build(workload, 6)
        assert other_jobs == jobs and other.keys() == files.keys()
        assert other != files
    files, _ = corpus.build("fan", 5)
    corpus.write(files, tmp_path / "a")
    corpus.write(files, tmp_path / "b")
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_diagonal_change_keeps_supports():
    base, _ = corpus.build("groebner", 0)
    moved, _ = corpus.build("groebner", 1)
    unsigned = str.maketrans("", "", "+- ")
    unscaled = str.maketrans("", "", "+- 0123456789")
    for name in base:
        assert base[name] != moved[name]
        # only signs change over Q; only coefficients over GF(p)
        drop = unsigned if ".q." in name else unscaled
        lines = zip(base[name].splitlines()[2:], moved[name].splitlines()[2:], strict=True)
        for a, b in lines:
            assert a.translate(drop) == b.translate(drop)


def test_golden_lists_every_job():
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    for workload in corpus.WORKLOADS:
        _, jobs = corpus.build(workload, golden["seed"])
        assert sorted(golden["workloads"][workload]) == sorted(n for n, _ in jobs)


def test_tail_percentile_has_ten_jobs_beyond():
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(8) == 50
    assert run.percentile([3, 1, 2, 4], 50) == 2.5
    assert run.percentile(list(range(51)), 80) == 40


def test_printed_metrics_are_declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run("fan", 3, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared[section]
