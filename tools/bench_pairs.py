"""Alternating parent/change runs of the benchmark, recorded in one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 101-110 [--trace 0|1] --out BENCH_N.json

``--parent`` and ``--change`` are two checkouts of the repository, each a
fresh directory (for example ``git archive`` of each commit).  For every
seed the script runs ``python3 perfbench/run.py --workload NAME --seed S
--trace T`` once in each checkout, the parent first on even pair indices
and the change first on odd ones, with the same benchmark code and
settings on both sides.  Every run (its final JSON line plus the pass
count) goes into the record under ``workloads[NAME/traceT]``, next to each
metric's median and quartiles on either side and the number of pairs the
change won (ties count for neither side).  Other entries of an existing
record are kept, so one file can hold every workload.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(checkout: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    run = json.loads(out.stdout.strip().splitlines()[-1])
    result = checkout / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    run["passes"] = json.loads(result.read_text())["passes"]
    run["seed"] = seed
    return run


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent_runs, change_runs, better):
    """Per metric: each side's quartiles and how many pairs the change won."""
    out = {}
    for name, spec in parent_runs[0]["metrics"].items():
        a = [r["metrics"][name]["value"] for r in parent_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = _quartiles(a), _quartiles(b)
        out[name] = {
            "unit": spec["unit"],
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "change_wins": wins,
            "pairs": len(a),
            "median_gap_exceeds_parent_iqr": abs(cmed - pmed) > pq3 - pq1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a seed or a range, e.g. 101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    definition = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in definition["end_to_end"] + definition["per_layer"]}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(getattr(args, side), args.workload, seed, args.trace))
            print(f"{args.workload} seed {seed} {side}: "
                  f"wall_s {runs[side][-1]['metrics'].get('wall_s', {}).get('value')}",
                  file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    record["workloads"][f"{args.workload}/trace{args.trace}"] = {
        "command": " ".join(shlex.quote(a) for a in ["python3", "tools/bench_pairs.py",
                                                      *(argv or sys.argv[1:])]),
        "summary": summarize(runs["parent"], runs["change"], better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
