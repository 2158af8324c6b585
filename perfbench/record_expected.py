"""Write ``perfbench/expected_reports.json``: the reports the verify
workloads must reproduce.

    python3 perfbench/record_expected.py

It runs every fixed task of each verify workload and every task its sample
can pick, and records a digest of each (suite, p) block and the sha256 of
each sampled task's report, with ``elapsed_ms`` removed. A run of the
benchmark fails if a report differs. Run this only for a change to qracah
that is meant to change its reports, and say so with the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from qracah import verify  # noqa: E402


def record(workload: str) -> dict:
    ops = [op for op in workloads.make_ops(workload, 0) if not op.sampled]
    if workload in workloads.SAMPLED:
        candidates = workloads.SAMPLED[workload][0]()
        ops += [op for block in workloads._task_blocks([], candidates) for op in block]
    items = []
    for op in ops:
        line = verify.run_task(op.task, "exact", workloads.TOL).to_json()
        problem = workloads.verdict_error(line)
        if problem:
            raise SystemExit(f"{op.key}: {problem}; not recording a failing report")
        items.append((op, workloads.canonical_report(line)))
    return workloads.expected_record(items)


def main() -> int:
    expected = {workload: record(workload) for workload in workloads.EXPECTED_WORKLOADS}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
