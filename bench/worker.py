"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload sat --seed 1 --tmp DIR [--pass-index N]
        [--tiny] [--trace [--trace-out FILE]] [--setup-only] [--probes]
        [--record FILE]

A fresh interpreter per pass means the library's module-level caches and
the brute-force memo start cold, as they do for a command-line user.  The
worker times its set-up (import of `knfrag`, input generation and fixture
writing), then sends the queries of the workload one after another, in an
order drawn from the seed and the pass index.  Each answer is checked right
after its query, outside the query's timing.  Times are reported at the
reference speed of `speed.py`, in the order the workload built the queries,
whatever the order they were sent in.  The worker prints one JSON object as
its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0,
                        help="passes of one run send the queries in different orders")
    parser.add_argument("--tmp", required=True, help="directory for model fixtures")
    parser.add_argument("--tiny", action="store_true", help="a small subset, for the smoke test")
    parser.add_argument("--trace", action="store_true", help="time each layer")
    parser.add_argument("--trace-out", help="with --trace, write the spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probes", action="store_true", help="run the known-defect probes")
    parser.add_argument("--record", help="write every answer's digest here")
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, BENCH]
    from speed import SpeedProbe

    golden = None
    if not args.record:
        with open(os.path.join(BENCH, "golden.json"), "r", encoding="utf-8") as handle:
            golden = json.load(handle)
    probe = SpeedProbe()
    probe.start()
    started = time.perf_counter()
    import knfrag

    if not os.path.abspath(knfrag.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"knfrag imported from {knfrag.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workload = workloads.build(args.workload, args.seed, args.tiny, args.tmp)
    setup_end = time.perf_counter()
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": probe.scaled(started, setup_end)}))
        return 0

    queries = workload.queries
    sent = list(queries)
    random.Random(f"{args.seed}:{args.pass_index}").shuffle(sent)
    # The benchmark's own objects (queries, inputs, recorded answers) would
    # make every full collection during the loop slower than the library's
    # objects alone make it: keep them out of the collector's scans.
    gc.collect()
    gc.freeze()
    starts, raw, problems, answers = [], [], [], []
    loop_start = time.perf_counter()
    for query in sent:
        inputs = query.prepare() if query.prepare is not None else ()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = query.run(*inputs)
            else:
                result = tracer.run_query(query.key, query.run, inputs)
            error = None
        except Exception as e:  # a query that raises out of the library or CLI fails
            result, error = None, type(e).__name__
        raw.append(time.perf_counter() - t0)
        starts.append(t0)
        if error is not None:
            problems.append((query.key, f"raised {error}"))
            answers.append(None)
            continue
        answer = query.answer(result)
        messages = workload.check(query, answer, result)
        if golden is not None and workloads.differs_from_golden(args.workload, query,
                                                                answer, golden):
            messages.append("answer differs from the one recorded at the seed commit")
        problems.extend((query.key, message) for message in messages)
        answers.append(answer if args.record else None)  # only a recording keeps them
    loop_end = time.perf_counter()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems.extend(workload.finish())
    position = {query.key: i for i, query in enumerate(queries)}
    latencies = [0.0] * len(queries)
    for query, t0, d in zip(sent, starts, raw):
        latencies[position[query.key]] = probe.scaled(t0, t0 + d)
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.summary(probe.scaled(loop_start, loop_end) / (loop_end - loop_start))
        if args.trace_out:
            write_trace(args, trace, tracer.queries)
    if args.record:
        record(args.record, args.workload, sent, answers)
    out = {
        "setup_s": probe.scaled(started, setup_end),
        "latencies": latencies,
        "raw_busy_s": sum(raw),
        "unit_us": probe.median_unit_s() * 1e6,
        "failed": sorted({position[key] for key, _ in problems}),
        "problems": [f"{key}: {message}" for key, message in problems[:20]],
        "peak_rss_mb": peak_rss_mb,
        "notes": workload.notes,
        "trace": trace,
    }
    if args.probes:
        out["probes"] = workloads.run_robustness_probes(args.tmp)
    print(json.dumps(out))
    return 0


def write_trace(args, trace, query_spans):
    spans = [[f"{group}:{index}", start, end] for (group, index), start, end in query_spans]
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "layers": trace["layers"],
                   "edges": trace["edges"], "query_spans": spans}, handle)


def record(path, workload, queries, answers):
    """Digests of every answer by (group, index), and the CLI's JSON keys."""
    import workloads

    table, keys = {}, {}
    for query, answer in zip(queries, answers):
        group, index = query.key
        if workload == "cli" and answer is not None:
            verb_keys = keys.setdefault(query.spec[2], set())
            for line in answer["out"]:
                if isinstance(line, dict):
                    verb_keys.update(line)
        row = table.setdefault(group, [])
        row.extend([None] * (index + 1 - len(row)))
        row[index] = None if answer is None else workloads.digest(answer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"table": table, "cli_keys": {v: sorted(k) for v, k in keys.items()}},
                  handle)


if __name__ == "__main__":
    sys.exit(main())
