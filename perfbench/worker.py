"""One cold benchmark pass in a fresh process. ``run.py`` starts it.

    worker.py pass --workload W --seed N --trace 0|1 --out result.json
                   [--spans spans.json] [--deadline EPOCH]
    worker.py check --workload W --seed N --outputs outputs.json --out result.json
    worker.py import --out result.json
    worker.py probes --out result.json [--spans spans.json]

``pass`` sets up (import, then task building and request generation, several
times), runs every operation of the workload in a closed loop, then checks
the outputs outside the timed region. ``check`` recomputes every value a
pass's requests printed, with the cold caches of a fresh process. ``import``
only times ``import qracah``. ``probes`` times the fixed-input layer probes.

The effective speed of a shared core drifts by up to 2x within seconds, as
neighbours load its sibling thread. So a worker runs a fixed reference
kernel between timed intervals, never inside one, and reports each time
twice: as measured, and scaled by ``REF_NOMINAL_S`` over the median of the
two kernel samples before the interval and the two after it.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from spans import NoTracer, Tracer

SETUP_REPEATS = 5
MAX_LISTED_FAILURES = 20
# seconds one operation may take before it counts as failed
OP_BUDGET_S = 30.0
REF_ITERATIONS = 250
# the kernel's duration on an uncontended core (2.1 GHz x86-64,
# Python 3.11.7), so a scaled time reads as seconds on such a core
REF_NOMINAL_S = 0.001
# between operations, a kernel sample is taken once this long has passed
# since the last one
REF_EVERY_S = 0.02


def reference_kernel():
    """Fixed pure-Python rational arithmetic, the kind of work qracah does."""
    x = Fraction(1)
    for j in range(REF_ITERATIONS):
        x = (x * 3 + 1) / 7 if j % 40 else Fraction(1)


class Speed:
    """Reference-kernel samples, taken between timed intervals."""

    def __init__(self):
        self.ends = []  # perf_counter() when each sample finished
        self.samples = []  # kernel seconds

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.samples.append(t1 - t0)

    def sample_due(self):
        """A sample, if ``REF_EVERY_S`` has passed since the last one."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= REF_EVERY_S:
            self.sample()

    def measure(self, start, end):
        """(seconds as measured, seconds at reference speed) between two
        ``perf_counter()`` readings with no sample between them. The scale
        is the median of the two samples before and the two after."""
        i = bisect.bisect_left(self.ends, start)
        raw = end - start
        return raw, raw * REF_NOMINAL_S / statistics.median(self.samples[max(0, i - 2): i + 2])

    def timed(self, fn):
        """``measure`` of one call, which must follow two samples; leaves
        two samples after it."""
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        self.sample()
        self.sample()
        return self.measure(t0, t1)


def _do_import():
    import qracah  # noqa: F401


def _import_qracah(speed) -> dict:
    speed.sample()
    speed.sample()
    raw, scaled = speed.timed(_do_import)
    return {"raw": raw, "scaled": scaled}


class OpTimeout(Exception):
    """An operation overran its time budget."""


class Budget:
    """Per-operation time budget from SIGALRM; raises only while armed, so an
    alarm that lands after the operation finished is ignored."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.armed:
            raise OpTimeout("operation exceeded its time budget")

    def start(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def _run_op(op, tracer, verify, cli, tol):
    if op.task is not None:
        task = op.task
        with tracer.span("verify.run_task", suite=task.suite, fn=task.fn,
                         contract=task.contract):
            report = verify.run_task(task, "exact", tol)
        with tracer.span("report.to_json"):
            return report.to_json()
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main", command=op.argv[0]), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def run_pass(args) -> dict:
    speed = Speed()
    import_s = _import_qracah(speed)
    import workloads
    from qracah import cli, verify

    builds = [speed.timed(lambda: workloads.make_ops(args.workload, args.seed))
              for _ in range(SETUP_REPEATS)]
    ops = workloads.make_ops(args.workload, args.seed)
    tracer = Tracer() if args.trace else NoTracer()
    results, intervals, failures = _run_ops(
        ops, lambda op: _run_op(op, tracer, verify, cli, workloads.TOL), speed, tracer,
        args.deadline)
    timings = [speed.measure(t0, t1) for t0, t1 in intervals]
    op_ms = [raw * 1000.0 for raw, _ in timings]
    op_ms_scaled = [scaled * 1000.0 for _, scaled in timings]

    reports, outputs, digest_items = [], {}, []
    for op, result in zip(ops, results):
        if result is None:
            continue
        if op.task is not None:
            problem = workloads.verdict_error(result)
            text = workloads.canonical_report(result)
            reports.append((op, text))
        else:
            problem = workloads.request_error(op, *result)
            text = result[1]
            if not problem:
                outputs[op.key] = text
        digest_items.append((op.key, text))
        if problem:
            failures.append((op.key, problem))
    check_failures = (workloads.report_mismatches(args.workload, ops, reports)
                      if args.workload in workloads.EXPECTED_WORKLOADS else [])

    out = {
        "import_s": import_s,
        "build_s": {"raw": [b[0] for b in builds], "scaled": [b[1] for b in builds]},
        "wall_s": {"raw": sum(op_ms) / 1000.0, "scaled": sum(op_ms_scaled) / 1000.0},
        "op_ms": {"raw": op_ms, "scaled": op_ms_scaled},
        "ref_kernel_ms": [t * 1000.0 for t in speed.samples],
        "attempted": len(ops),
        "failed": len({key for key, _ in failures}),
        "failures": failures[:MAX_LISTED_FAILURES],
        "check_failures": check_failures[:MAX_LISTED_FAILURES],
        "digest": workloads.stream_digest(digest_items),
        "outputs": outputs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        out["layers"] = _layer_metrics(tracer, speed, ops, results, verify)
        if args.spans:
            tracer.write(args.spans)
    return out


def _run_ops(ops, run_op, speed, tracer, deadline, budget_s=OP_BUDGET_S):
    """The timed region: ``run_op`` on every operation in order, closed
    loop. Returns (results, (start, end) of each operation, failures)."""
    budget = Budget()
    results = [None] * len(ops)
    intervals = []
    failures = []
    for i, op in enumerate(ops):
        remaining = deadline - time.time()
        if remaining <= 0:
            failures.append((op.key, "run deadline passed before the operation started"))
            continue
        speed.sample_due()
        t0 = time.perf_counter()
        try:
            budget.start(min(budget_s, remaining))
            with tracer.span("op", key=op.key):
                results[i] = run_op(op)
            budget.stop()
        except OpTimeout as exc:
            failures.append((op.key, str(exc)))
        except Exception as exc:  # one broken operation must not end the run
            failures.append((op.key, "".join(traceback.format_exception_only(exc)).strip()))
        finally:
            budget.stop()
        intervals.append((t0, time.perf_counter()))
    # anchors after the last operation
    speed.sample()
    speed.sample()
    return results, intervals, failures


def check_requests(ops, outputs) -> dict:
    """Recompute every value the requests printed; ``outputs`` maps the key
    of each successful request to its output."""
    import workloads

    checked, failures = 0, []
    for op in sorted(ops, key=lambda op: op.key):
        if op.key in outputs:
            checked += 1
            failures += [(op.key, problem)
                         for problem in workloads.request_mismatches(op, outputs[op.key])]
    return {"checked": checked, "check_failures": failures[:MAX_LISTED_FAILURES]}


def _layer_metrics(tracer, speed, ops, results, verify) -> dict:
    """Busy times at reference speed, counts and bytes of the traced pass."""

    def busy(name, **match):
        spans = tracer.matching(name, **match)
        return sum(speed.measure(sp["start"], sp["end"])[1] for sp in spans), len(spans)

    layers = {}
    for fn in verify.CHECKS:
        layers[f"verify.{fn}.busy_s"], layers[f"verify.{fn}.count"] = busy(
            "verify.run_task", fn=fn)
    layers["report.to_json_s"] = busy("report.to_json")[0]
    layers["cli.request_s"] = busy("cli.main")[0]
    layers["report.bytes"] = sum(len(r.encode()) for op, r in zip(ops, results)
                                 if op.task is not None and r is not None)
    layers["cli.bytes"] = sum(len(r[1].encode()) for op, r in zip(ops, results)
                              if op.task is None and r is not None)
    return layers


def run_probes(args) -> dict:
    import probes

    tracer = Tracer()
    speed = Speed()
    layers = {name: value for name, (value, _) in probes.run_probes(tracer, speed).items()}
    if args.spans:
        tracer.write(args.spans)
    return {"layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("pass", "check", "import", "probes"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--outputs")
    parser.add_argument("--deadline", type=float, default=float("inf"))
    args = parser.parse_args(argv)
    if args.mode == "pass":
        result = run_pass(args)
    elif args.mode == "check":
        import workloads

        with open(args.outputs, encoding="utf-8") as fh:
            outputs = json.load(fh)
        result = check_requests(workloads.make_ops(args.workload, args.seed), outputs)
    elif args.mode == "probes":
        result = run_probes(args)
    else:
        result = {"import_s": _import_qracah(Speed())}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
