"""knfrag benchmark: closed-loop workloads, one client, one query at a time.

    python3 bench/run.py --workload sat --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Each pass of the workload runs in a fresh interpreter
(`bench/worker.py`), so the library's caches start cold in every pass.
Untraced runs (`--trace 0`) make a fixed number of passes per workload,
each sending the queries in its own order drawn from the seed, and report
the end-to-end metrics over each query's fastest pass.  A traced run
(`--trace 1`) makes one untraced and one traced pass and reports the
per-layer metrics, and the tracing overhead as traced over untraced time.

End-to-end metrics: setup_s is the median set-up time over the passes and
extra set-up-only passes, five in all; queries_per_s is the queries answered
correctly over the summed time of the queries; latency_p50_ms and
latency_tail_ms are the median and the highest percentile with at least ten
queries beyond it, a failed query ranking after every success; peak_rss_mb
is the median of the passes' ru_maxrss; ok_share is the share of queries
answered correctly.

Times are scaled to a reference machine speed, measured while they run
(see `bench/speed.py`); the unscaled figures go to standard error.  Every
answer is checked outside the timed loop.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import REFERENCE_UNIT_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("sat", "search", "modelcheck", "cli")
DEADLINE_S = 170  # every run ends, with or without a result, within this
# Passes per run at --seconds BASE_SECONDS, the run length of BENCHMARK.json;
# a longer run makes proportionally more.  The count is fixed by the
# arguments, so that "the fastest of the passes" means the same in every run.
# On the 2-CPU machine the benchmark was written on, sat's tail latency spread
# (IQR over median) by 0.12 over six seeds with two passes, and by 0.06-0.08
# over ten with three; search spread by at most 0.07 with two.  A pass, with
# its checks, takes 12-20 s on sat, 9-14 s on search, 5-8 s on modelcheck
# and cli.
PASSES = {"sat": 3, "search": 2, "modelcheck": 3, "cli": 3}
BASE_SECONDS = 20
SETUP_SAMPLES = 5  # set-up times per run, of which the median is reported
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
TAIL_BEYOND = 10  # samples a pass must have beyond the tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)

# (layer, field, unit): fields straight from the trace summary.
LAYER_FIELDS = (
    ("solver.sat_bruteforce", "calls", "count"),
    ("solver.sat_bruteforce", "self_s", "s"),
    ("solver.sat_tableau", "self_s", "s"),
    ("solver.to_nnf", "self_s", "s"),
    ("solver.tree_model_bound", "self_s", "s"),
    ("semantics.check", "calls", "count"),
    ("semantics.check", "self_s", "s"),
    ("semantics.enumerate_models", "items", "count"),
    ("semantics.enumerate_models", "self_s", "s"),
    ("semantics.enumerate_extensions", "items", "count"),
    ("semantics.enumerate_extensions", "self_s", "s"),
    ("semantics.model_from_json", "self_s", "s"),
    ("expressiveness.enumerate_fragment", "items", "count"),
    ("expressiveness.enumerate_fragment", "self_s", "s"),
    ("expressiveness.search_weak_translation", "self_s", "s"),
    ("expressiveness.weak_equiv_check", "self_s", "s"),
    ("expressiveness.strong_translation_check", "self_s", "s"),
    ("expressiveness.replay_theorem", "self_s", "s"),
    ("syntax.parse", "calls", "count"),
    ("syntax.parse", "self_s", "s"),
    ("syntax.to_text", "calls", "count"),
    ("syntax.to_text", "self_s", "s"),
    ("syntax.recognize_clausal", "calls", "count"),
    ("syntax.recognize_clausal", "self_s", "s"),
    ("syntax.classify", "calls", "count"),
    ("syntax.classify", "self_s", "s"),
    ("translate.krom_to_krom_box", "calls", "count"),
    ("translate.krom_to_krom_box", "self_s", "s"),
    ("translate.krom_to_krom_diamond", "calls", "count"),
    ("translate.krom_to_krom_diamond", "self_s", "s"),
    ("combinators.intersect", "calls", "count"),
    ("combinators.intersect", "self_s", "s"),
    ("combinators.product", "calls", "count"),
    ("combinators.product", "self_s", "s"),
    ("combinators.override_valuation", "self_s", "s"),
    ("combinators.add_successor_world", "self_s", "s"),
    ("cli.main", "calls", "count"),
    ("cli.main", "self_s", "s"),
    ("hierarchy.hierarchy_dot", "self_s", "s"),
)
DERIVED = (
    ("solver.sat_bruteforce.checks_per_call", "checks/call"),
    ("semantics.check.us_per_call", "us"),
    ("expressiveness.search_weak_translation.checks_per_candidate", "checks/cand"),
    ("translate.fresh_letters", "count"),
    ("cli.known_defects", "count"),
    ("trace_overhead", "x"),
)
PER_LAYER = tuple((f"{layer}.{field}", unit) for layer, field, unit in LAYER_FIELDS) + DERIVED


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload, seed, tmp, deadline, *flags):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next pass")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--tmp", tmp, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(per_pass: int) -> float:
    """The highest percentile of the ladder with enough samples beyond it."""
    for p in TAIL_LADDER:
        if per_pass * (1 - p / 100) >= TAIL_BEYOND:
            return p
    return 50.0


def percentile(ordered, p):
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def fastest_latencies(passes):
    """Each query's fastest latency over the passes, which all send the same
    queries, each pass in its own order.  Interference from other work on
    the machine, and from the queries sent just before, only ever slows a
    query down, so the fastest pass is the query's cost with the least of
    it.  A query that failed in any pass ranks after every success."""
    fastest = [min(times) for times in zip(*(p["latencies"] for p in passes))]
    slowest = max(fastest)
    failed = set().union(*(p["failed"] for p in passes))
    return [slowest if i in failed else t for i, t in enumerate(fastest)]


def verdict(passes):
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"wrong answer: {problem}", file=sys.stderr)
    return attempted, failed


def timed_run(args, tmp, deadline):
    count = PASSES[args.workload] * max(1, round(args.seconds / BASE_SECONDS))
    passes = []
    for i in range(count):
        flags = ["--probes"] if args.workload == "cli" and i == 0 else []
        passes.append(run_worker(args.workload, args.seed, tmp, deadline,
                                 f"--pass-index={i}", *flags))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, args.seed, tmp, deadline,
                                 "--setup-only")["setup_s"])
    attempted, failed = verdict(passes)
    latencies = fastest_latencies(passes)
    ordered = sorted(latencies)
    tail = tail_percentile(len(ordered))
    values = {
        "setup_s": statistics.median(setups),
        "queries_per_s": (attempted - failed) / attempted * len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(ordered, 50) * 1e3,
        "latency_tail_ms": percentile(ordered, tail) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": (attempted - failed) / attempted,
    }
    print(f"{args.workload}: {len(passes)} passes of {len(ordered)} queries; latencies are "
          f"each query's fastest pass; latency_tail_ms is p{tail:g} of {len(ordered)}; "
          f"set-up median of {len(setups)}", file=sys.stderr)
    report_speed(passes)
    report_notes(args.workload, passes[0])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, metrics


def layer_metrics(trace, overhead, probes):
    layers = trace["layers"]

    def field(layer, name):
        return layers.get(layer, {}).get(name, 0)

    def edge_calls(parent, layer, key="calls"):
        return sum(e[key] for e in trace["edges"]
                   if e["parent"] == parent and e["layer"] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    brute, search = "solver.sat_bruteforce", "expressiveness.search_weak_translation"
    values = {f"{layer}.{name}": field(layer, name) for layer, name, _ in LAYER_FIELDS}
    values.update({
        "solver.sat_bruteforce.checks_per_call": ratio(
            edge_calls(brute, "semantics.check"), field(brute, "calls")),
        "semantics.check.us_per_call": ratio(
            field("semantics.check", "self_s") * 1e6, field("semantics.check", "calls")),
        "expressiveness.search_weak_translation.checks_per_candidate": ratio(
            edge_calls(search, "semantics.check"),
            edge_calls(search, "expressiveness.enumerate_fragment", "items")),
        "translate.fresh_letters": trace["fresh_letters"],
        "cli.known_defects": sum(o.startswith("defect") for o in probes.values()),
        "trace_overhead": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def traced_run(args, tmp, deadline):
    plain = run_worker(args.workload, args.seed, tmp, deadline)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    trace_file = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}.json")
    traced = run_worker(args.workload, args.seed, tmp, deadline, "--trace",
                        "--trace-out", trace_file, "--probes")
    attempted, failed = verdict([plain, traced])
    report_speed([plain, traced])
    overhead = sum(traced["latencies"]) / sum(plain["latencies"])
    print(f"{args.workload}: spans written to {os.path.relpath(trace_file, ROOT)}",
          file=sys.stderr)
    report_notes(args.workload, traced)
    return attempted, failed, layer_metrics(traced["trace"], overhead, traced["probes"])


def report_speed(passes):
    units = ", ".join(f"{p['unit_us']:.0f}" for p in passes)
    raw = ", ".join(f"{p['raw_busy_s']:.2f}" for p in passes)
    print(f"calibration unit per pass: {units} us (reference {REFERENCE_UNIT_S * 1e6:.0f}); "
          f"unscaled busy time per pass: {raw} s", file=sys.stderr)


def report_notes(workload, one_pass):
    notes = ", ".join(f"{k} {v}" for k, v in sorted(one_pass["notes"].items()))
    print(f"{workload} traffic: {notes}", file=sys.stderr)
    for name, outcome in sorted(one_pass.get("probes", {}).items()):
        print(f"known-defect probe {name}: {outcome}", file=sys.stderr)


def machine():
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return (f"{os.cpu_count()} CPUs, Python {platform.python_version()} "
            f"({platform.python_implementation()}), git {sha}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "knfrag", "__init__.py")):
        print("no knfrag sources under src/: run from a source checkout", file=sys.stderr)
        return 2
    print(f"machine: {machine()}", file=sys.stderr)
    # Model fixtures go to a directory of the checkout, because the benchmark
    # writes only inside its checkout; the directory is removed at the end.
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics = run(args, tmp, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
