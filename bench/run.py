"""circuitfan benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-golden

Run from the root of a checkout.  A job is one CLI command,
``circuitfan.cli.main(["--no-timestamp", ...])``, run in-process on a file of
the seeded corpus (see corpus.py).  Jobs run back to back in a closed loop:
one client, one process, no threads.

A run sets up several times (fresh import of the package, corpus generation,
parsing of every file) and reports the median as ``setup_s``; then it makes
one untimed warm-up pass, and times one pass over the job list and further
rounds until ``--seconds`` have passed.  With ``--trace 1`` half of that time
is untraced and the other half makes whole passes under the outside-in
tracer, and the per-layer metrics are printed instead of the end-to-end
ones.

Before every job a fixed integer loop of about a millisecond is timed.  The
machine's speed moves by a third or more over seconds to minutes, and moves
the loop's time with it, so latencies are reported as multiples of the loop's
median time over the same run (unit ``ref``); a line of the output gives
the pass in seconds.

Every job's stdout is hashed with its exit code.  On the default seed each
hash must match golden.json; on other seeds the exit code must match, the
hash of a seed-invariant command must match, and every pass must repeat the
warm-up pass's hash.  Per-job hashes of every run are written to
bench/out/, so two commits can be compared job by job.  The last line of
stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import corpus
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 21
REFERENCE_ITERATIONS = 12_000
PACKAGE = "circuitfan"

# (layer module, function or Class.method); the metric prefix is
# "<module>.<qualname>"
TRACE_TARGETS = (
    ("linalg", "exact_rank"),
    ("linalg", "integer_rows"),
    ("linalg", "rank_bareiss"),
    ("linalg", "rref"),
    ("linalg", "graded_basis"),
    ("circuits", "circuits_of_space"),
    ("circuits", "circuits_truncated"),
    ("generic", "gcs_truncated"),
    ("generic", "random_change"),
    ("generic", "stab_check"),
    ("groebner", "buchberger_reduced"),
    ("groebner", "normal_form"),
    ("groebner", "IdealHandle.groebner"),
    ("groebner", "hilbert_function"),
    ("groebner", "lex_bound"),
    ("groebner", "transform_ideal"),
    ("groebner", "initial_ideal_w"),
    ("groebner", "parse_ideal_file"),
    ("ring", "Substitution.apply"),
    ("fan", "enumerate_fan"),
    ("fan", "cone_of"),
    ("fan", "Cone.contains"),
    ("fan", "universal_basis"),
    ("fan", "generic_fan_compare"),
    ("cli", "main"),
)

# derived per-layer metrics: name -> unit
DERIVED = {
    "circuits.found": "count",
    "circuits.rank_calls_per_circuit": "calls/circuit",
    "generic.witness_pairs": "count",
    "groebner.gb_cache_hit_ratio": "ratio",
    "order.key_memo_entries": "count",
    "fan.cells": "count",
    "fan.gb_per_new_cell": "calls/cell",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for module, qualname in TRACE_TARGETS:
        units[f"{module}.{qualname}.calls"] = "count"
        units[f"{module}.{qualname}.total_s"] = "s"
        units[f"{module}.{qualname}.self_s"] = "s"
    units.update(DERIVED)
    return units


END_TO_END_UNITS = {
    "wall_ref": "ref",
    "job_ref.p50": "ref",
    "job_ref.tail": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_package():
    """Import the package fresh from the checkout's src/ and return cli."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"{PACKAGE} imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_once(workload: str, seed: int, workdir: str):
    """Import, corpus generation and parsing; returns (seconds, cli, jobs)."""
    t0 = time.perf_counter()
    cli = import_package()
    parse = sys.modules[PACKAGE + ".groebner"].parse_ideal_file
    files, jobs = corpus.build(workload, seed)
    corpus.write(files, workdir)
    for name in files:
        parse(Path(workdir, name).read_text())
    return time.perf_counter() - t0, cli, jobs


@contextlib.contextmanager
def corpus_dir(workload: str, seed: int, repeats: int = 1):
    """Set up `repeats` times in a fresh corpus directory and work inside it;
    yields (set-up seconds of each repeat, cli, jobs)."""
    OUT.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="corpus-") as workdir:
        setups = []
        for _ in range(repeats):
            dt, cli, jobs = setup_once(workload, seed, workdir)
            setups.append(dt)
        # jobs name files relative to the corpus directory, because the
        # output echoes the input path and is hashed
        os.chdir(workdir)
        try:
            yield setups, cli, jobs
        finally:
            os.chdir(home)


def run_job(cli, argv):
    """Run one CLI command in-process: (seconds, exit code or None, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit):
        # a job that raises (or that argparse exits) counts as failed
        code = None
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - t0
    return seconds, code, buf.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts attempted and failed jobs against the golden manifest."""

    def __init__(self, workload: str, seed: int, jobs):
        golden = json.loads(GOLDEN.read_text())
        expected = golden["workloads"].get(workload)
        if expected is None or sorted(expected) != sorted(n for n, _ in jobs):
            raise SystemExit(f"golden.json does not list the jobs of {workload!r}")
        self.expected = expected
        self.exact = seed == golden["seed"]
        self.observed = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name, argv, code, data) -> None:
        self.attempted += 1
        digest = sha256(data)
        want = self.expected[name]
        first = self.observed.setdefault(name, (code, digest))
        ok = code == want["exit"] and first == (code, digest)
        if self.exact or argv[1] in corpus.SEED_INVARIANT_COMMANDS:
            ok = ok and digest == want["sha256"]
        if not ok:
            self.failed += 1
            print(f"check failed: {name} exit={code} sha256={digest}", file=sys.stderr)


def reference_loop() -> float:
    """Seconds taken by a fixed loop of integer arithmetic."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def timed_run(cli, jobs, checker, seconds, samples, refs, whole_passes=False):
    """One full pass, then more until seconds have passed; returns the count
    of full passes.  Unless whole_passes is set, later rounds run only the
    jobs whose median so far still ends before the deadline, so a run of ten
    short jobs and one long one does not overrun by the long one.  The
    reference loop is timed into refs before every job."""
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        ran = 0
        for name, argv in jobs:
            if passes and not whole_passes:
                if time.perf_counter() + median_s(samples[name]) > deadline:
                    continue
            refs.append(reference_loop())
            dt, code, data = run_job(cli, argv)
            checker.check(name, argv, code, data)
            samples.setdefault(name, []).append((dt, len(data)))
            ran += 1
        passes += ran == len(jobs)
        if not ran or time.perf_counter() >= deadline:
            return passes


def percentile(values, p: int) -> float:
    """Interpolated percentile, so that noise moving one value past its
    neighbour shifts the result by little; p=50 is the median."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(jobs: int) -> int:
    """Highest percentile with at least ten jobs beyond it; the median when
    the list has fewer than twenty jobs."""
    return max(50, math.floor(100 * (1 - 10 / jobs)))


def median_s(job_samples) -> float:
    return statistics.median(dt for dt, _ in job_samples)


def pass_seconds(samples) -> float:
    """One pass, as the sum of each job's median latency."""
    return sum(median_s(s) for s in samples.values())


def trace_targets(tracer):
    modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m, _ in TRACE_TARGETS}
    hooks = {
        "circuits.circuits_of_space": lambda r: tracer.count("circuits.found", len(r[0])),
        "fan.enumerate_fan": lambda r: tracer.count("fan.cells", len(r.cells)),
    }
    for module, qualname in TRACE_TARGETS:
        owner = modules[module]
        attr = qualname
        if "." in qualname:
            cls, attr = qualname.split(".")
            owner = getattr(owner, cls)
        name = f"{module}.{qualname}"
        yield name, owner, attr, hooks.get(name)


def layer_metrics(tracer, passes, samples, untraced, traced, checker):
    summary = tracer.summary()
    metrics = {}
    for module, qualname in TRACE_TARGETS:
        name = f"{module}.{qualname}"
        calls, total, own = summary.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / passes
        metrics[f"{name}.total_s"] = total / passes
        metrics[f"{name}.self_s"] = own / passes

    def ratio(a, b):
        return a / b if b else 0.0

    found = tracer.counters.get("circuits.found", 0)
    cells = tracer.counters.get("fan.cells", 0)
    lookups = metrics["groebner.IdealHandle.groebner.calls"]
    order = sys.modules[PACKAGE + ".order"]
    memo = sum(len(getattr(getattr(order, o, None), "_key_cache", ())) for o in ("DRL", "LEX"))
    metrics.update({
        "circuits.found": found / passes,
        "circuits.rank_calls_per_circuit": ratio(
            tracer.calls_under("linalg.exact_rank", "circuits.circuits_of_space"), found),
        "generic.witness_pairs": tracer.calls_under(
            "generic.random_change", "generic.gcs_truncated") / 2 / passes,
        "groebner.gb_cache_hit_ratio":
            1 - metrics["groebner.buchberger_reduced.calls"] / lookups if lookups else 0.0,
        "order.key_memo_entries": memo,
        "fan.cells": cells / passes,
        "fan.gb_per_new_cell": ratio(
            tracer.calls_under("groebner.buchberger_reduced", "fan.enumerate_fan"), cells),
        "cli.output_bytes": sum(
            statistics.median(size for _, size in s) for s in samples.values()),
        "trace.overhead_frac": traced / untraced - 1,
        "fail_frac": checker.failed / checker.attempted,
    })
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    with corpus_dir(workload, seed, SETUP_REPEATS) as (setups, cli, jobs):
        checker = Checker(workload, seed, jobs)
        for name, argv in jobs:
            _, code, data = run_job(cli, argv)
            checker.check(name, argv, code, data)
        samples, refs = {}, []
        budget = seconds / 2 if trace else seconds
        timed_run(cli, jobs, checker, budget, samples, refs)
        ref_s = statistics.median(refs)
        if trace:
            tracer = Tracer()
            traced, traced_refs = {}, []
            with tracer.installed(PACKAGE, trace_targets(tracer)):
                passes = timed_run(cli, jobs, checker, budget, traced, traced_refs, True)
            metrics = layer_metrics(
                tracer, passes, traced, pass_seconds(samples) / ref_s,
                pass_seconds(traced) / statistics.median(traced_refs), checker)
            units = per_layer_units()
        else:
            # percentiles over jobs, one median latency each, so that the mix
            # does not depend on how many rounds fit in the run
            latencies = [median_s(s) / ref_s for s in samples.values()]
            tail_p = tail_percentile(len(jobs))
            metrics = {
                "wall_ref": sum(latencies),
                "job_ref.p50": percentile(latencies, 50),
                "job_ref.tail": percentile(latencies, tail_p),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setups),
            }
            units = END_TO_END_UNITS
            beyond = sum(x > metrics["job_ref.tail"] for x in latencies)
            count = sum(len(s) for s in samples.values())
            print(f"job_ref.tail is p{tail_p} of the median latencies of "
                  f"{len(latencies)} jobs ({beyond} beyond it; {count} samples)")
            print(f"one pass takes {pass_seconds(samples):.4f} s; the reference "
                  f"loop {1e3 * ref_s:.4f} ms (median of {len(refs)})")

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "reference_loop_s": ref_s,
        "jobs": {
            name: {
                "exit": checker.observed[name][0],
                "sha256": checker.observed[name][1],
                "median_s": median_s(s),
                "samples": len(s),
            }
            for name, s in samples.items()
        },
        "metrics": metrics,
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"per-job hashes: {path.relative_to(BENCH.parent)}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_golden() -> None:
    """Record every job's exit code and output hash on the default seed."""
    manifest = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in corpus.WORKLOADS:
        entries = manifest["workloads"][workload] = {}
        with corpus_dir(workload, DEFAULT_SEED) as (_, cli, jobs):
            for name, argv in jobs:
                _, code, data = run_job(cli, argv)
                if code is None:
                    raise SystemExit(f"{workload}/{name} raised")
                entries[name] = {"exit": code, "sha256": sha256(data)}
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="record golden.json from the default seed and exit")
    args = p.parse_args(argv)
    if not (SRC / PACKAGE).is_dir():
        raise SystemExit(f"no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # the CLI falls back to this variable for --seed; jobs must not see it
    os.environ.pop("CIRCUITFAN_SEED", None)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
