"""Record every answer at the current commit into golden.json.

    python3 bench/record.py

Run it at the commit whose answers later commits must reproduce.  It runs
each recorded workload once and stores a digest of each answer, plus the
JSON keys each CLI verb emitted.  The seed only orders the queries, so one
recording covers every seed.
The modelcheck trials are not recorded: the laws and the evaluator check
them completely.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RECORDED = ("sat", "search", "cli")


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in RECORDED:
            out = os.path.join(tmp, f"{workload}.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
                 "--seed", "0", "--tmp", tmp, "--record", out],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            problems = json.loads(proc.stdout.splitlines()[-1])["problems"]
            if problems:
                sys.stderr.write(f"{workload}: answers fail their checks: {problems}\n")
                return 1
            with open(out, "r", encoding="utf-8") as handle:
                recorded = json.load(handle)
            golden[workload] = recorded["table"]
            if workload == "cli":
                golden["cli_keys"] = recorded["cli_keys"]
            print(f"{workload}: {sum(len(v) for v in recorded['table'].values())} answers")
    with open(os.path.join(BENCH, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
