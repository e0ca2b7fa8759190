"""Byte-identical outputs: the jobs of every benchmark workload, on its
default seed, must reproduce the stdout hashes and exit codes recorded in
bench/golden.json."""
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from circuitfan import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["circuits", "generic", "groebner", "fan"])
def test_workload_matches_golden(workload, tmp_path, monkeypatch, capsys):
    golden = json.loads((BENCH / "golden.json").read_text())
    expected = golden["workloads"][workload]
    corpus = load_corpus()
    files, jobs = corpus.build(workload, golden["seed"])
    assert sorted(expected) == sorted(name for name, _ in jobs)
    corpus.write(files, tmp_path)
    # outputs echo the input path and the seed, so both must match the run
    # that recorded the manifest
    monkeypatch.chdir(tmp_path)
    for name, argv in jobs:
        code = cli.main(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == (expected[name]["exit"], expected[name]["sha256"]), name
