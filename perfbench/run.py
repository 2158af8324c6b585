"""The qracah benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a single closed-loop client: an operation starts only when
the previous one has finished. Every pass runs in a fresh worker process, so
it starts with cold caches that warm during the pass, as in ``qracah verify``.
Passes repeat until ``--seconds`` have gone by (at least one pass). The run
checks every output and prints every metric by name with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). Results, provenance and spans go to
``.perfbench_out/``. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# the workloads, metrics and run length the benchmark promises
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    DEFINITION = json.load(_fh)
WORKLOADS = {w["name"]: w["why"] for w in DEFINITION["workloads"]}
UNITS = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"] + DEFINITION["per_layer"]}
PER_LAYER = [m["name"] for m in DEFINITION["per_layer"]]

# operations stop starting after this many seconds of a run; the worker's
# deadline plus the post-loop checks keep every run under 180 s
RUN_DEADLINE_S = 140.0
CHILD_GRACE_S = 25.0
IMPORT_PROBES = 2


class ChildFailed(Exception):
    """A worker process crashed or overran the run's deadline."""


class Runner:
    """Starts worker processes one at a time and waits for each."""

    def __init__(self, workload, seed, hard_deadline):
        self.workload = workload
        self.seed = seed
        self.hard_deadline = hard_deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # bytecode is cached under OUT_DIR whatever the caller's environment
        # says, so setup_s times the same kind of import everywhere
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
        self.count = 0

    def check(self, outputs):
        """Recompute the printed values of a pass in a fresh worker."""
        path = OUT_DIR / f"outputs-{self.workload}-{self.seed}-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(outputs, fh)
        try:
            return self.child("check", "--workload", self.workload, "--seed", str(self.seed),
                              "--outputs", str(path))
        finally:
            path.unlink()

    def child(self, mode, *extra):
        self.count += 1
        out = OUT_DIR / f"child-{self.workload}-{self.seed}-{os.getpid()}-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--out", str(out), *extra]
        timeout = self.hard_deadline - time.time()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=max(timeout, 1.0),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"worker {mode} overran the run deadline") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            out.unlink()

    def run_pass(self, trace, op_deadline):
        args = ["--workload", self.workload, "--seed", str(self.seed), "--trace", str(trace),
                "--deadline", repr(op_deadline)]
        if trace:
            args += ["--spans", str(OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json")]
        return self.child("pass", *args)


def _quantiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=100, method="inclusive")
    return q[49], q[89]


def end_to_end(passes, import_samples, kind):
    """End-to-end metrics from the ``kind`` ("scaled" or "raw") timings."""
    op_ms = [ms for p in passes for ms in p["op_ms"][kind]] or [0.0]
    p50, p90 = _quantiles(op_ms)
    setup = (statistics.median(i[kind] for i in import_samples)
             + statistics.median([b for p in passes for b in p["build_s"][kind]]))
    return {
        "wall_s": statistics.median(p["wall_s"][kind] for p in passes),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def provenance(args):
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": args.workload, "why": WORKLOADS[args.workload]},
        "definitions": DEFINITION,
    }


def measure(args):
    """Run the passes; returns (result dict for the report, metrics dict)."""
    start = time.time()
    op_deadline = start + RUN_DEADLINE_S
    runner = Runner(args.workload, args.seed, op_deadline + CHILD_GRACE_S)
    passes, traced, probes = [], None, None
    while True:
        t0 = time.time()
        passes.append(runner.run_pass(0, op_deadline))
        now = time.time()
        if args.trace or now - start >= args.seconds or now + 2 * (now - t0) > op_deadline:
            break
    import_samples = [p["import_s"] for p in passes]
    if args.trace:
        traced = runner.run_pass(1, op_deadline)
        probes = runner.child("probes", "--spans",
                              str(OUT_DIR / f"spans-probes-{args.workload}-seed{args.seed}.json"))
    else:
        import_samples += [runner.child("import")["import_s"] for _ in range(IMPORT_PROBES)]
    all_passes = passes + ([traced] if traced else [])
    # every pass ran the same operations, so one recomputation covers them
    # all once their digests agree
    checked = runner.check(passes[0]["outputs"]) if passes[0]["outputs"] else {
        "checked": 0, "check_failures": []}
    e2e = end_to_end(passes, import_samples, "scaled")
    digests = sorted({p["digest"] for p in all_passes})
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    check_failures = [f for p in all_passes + [checked] for f in p["check_failures"]]
    if len(digests) > 1:
        check_failures.append(("passes", "the passes of the run produced different outputs"))
    result = {
        "correct": failed == 0 and not check_failures,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "passes": len(all_passes),
        "op_samples": sum(len(p["op_ms"]["raw"]) for p in passes),
        "ops_per_pass": passes[0]["attempted"],
        "digests": digests,
        "requests_recomputed": checked["checked"],
        "failures": [f for p in all_passes for f in p["failures"]][:20],
        "check_failures": check_failures[:20],
        "end_to_end": e2e,
        "end_to_end_raw": end_to_end(passes, import_samples, "raw"),
        "ref_kernel_ms_median": statistics.median(
            ms for p in all_passes for ms in p["ref_kernel_ms"]),
    }
    if not args.trace:
        return result, e2e
    layers = dict(traced["layers"])
    layers.update(probes["layers"])
    layers["trace.overhead_s"] = traced["wall_s"]["scaled"] - passes[0]["wall_s"]["scaled"]
    result["traced_wall_s"] = traced["wall_s"]["scaled"]
    result["per_layer"] = layers
    # a check function renamed in src reads 0 here; the tests flag the drift
    return result, {name: layers.get(name, 0) for name in PER_LAYER}


def _print_report(result, metrics):
    print(f"workload {result['provenance']['workload']['name']} "
          f"seed {result['provenance']['seed']}: {result['passes']} pass(es), "
          f"{result['ops_per_pass']} operations per pass, {result['op_samples']} timed samples")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"ops_failed_frac {result['ops_failed_frac']:.6g}, "
          f"requests recomputed {result['requests_recomputed']}, correct {result['correct']}")
    print(f"report digest {' '.join(result['digests'])}")
    if "traced_wall_s" in result:
        print(f"tracing overhead: traced wall_s {result['traced_wall_s']:.4f} s - untraced "
              f"wall_s {result['end_to_end']['wall_s']:.4f} s = "
              f"{metrics['trace.overhead_s']:.4f} s")
    raw = {} if "per_layer" in result else result["end_to_end_raw"]
    print(f"times at reference speed (reference kernel median "
          f"{result['ref_kernel_ms_median']:.4f} ms, nominal 1 ms)"
          + ("" if "per_layer" in result else "; as measured in brackets"))
    for name, value in metrics.items():
        measured = f"  [{raw[name]:.6g}]" if name in raw else ""
        print(f"  {name:<40} {value:>16.6g} {UNITS[name]}{measured}")
    for key, why in result["failures"] + result["check_failures"]:
        print(f"  FAILED {key}: {why}")
    brief = {k: v for k, v in result["provenance"].items() if k != "definitions"}
    print(f"provenance: {json.dumps(brief, separators=(',', ':'))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFINITION["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qracah" / "__init__.py").is_file():
        print(f"error: no qracah sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result, metrics = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["provenance"] = provenance(args)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    _print_report(result, metrics)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
