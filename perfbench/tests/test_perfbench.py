"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import io
import json
import sys
import time
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qracah import cli, ratfun, verify  # noqa: E402
from qracah.scalar import QBase  # noqa: E402
from spans import NoTracer  # noqa: E402

# a small complete block of fixed tasks per verify workload
SMOKE_BLOCKS = {"finite-exact": "star|p=1/2", "su11-operators": "cor4.1|p=1/2",
                "certified": "prop4.5|p=1/2"}


def _smoke_ops(workload):
    ops = workloads.make_ops(workload, 3)
    if workload == "eval-sweep":
        # one request of each command and function
        firsts = {}
        for op in ops:
            firsts.setdefault((op.argv[0], workloads._arg(op.argv, "fn")), op)
        return list(firsts.values())
    return ([op for op in ops if not op.sampled and op.block == SMOKE_BLOCKS[workload]]
            + [op for op in ops if op.sampled][:1])


def _pass(monkeypatch, workload, ops, trace=0, spans=None):
    monkeypatch.setattr(workloads, "make_ops", lambda *_: ops)
    return worker.run_pass(Namespace(workload=workload, seed=3, trace=trace, spans=spans,
                                     deadline=float("inf")))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_every_workload(monkeypatch, workload):
    ops = _smoke_ops(workload)
    out = _pass(monkeypatch, workload, ops)
    assert (out["attempted"], out["failed"], out["check_failures"]) == (len(ops), 0, [])
    requests = [op for op in ops if op.task is None]
    assert len(out["outputs"]) == len(requests)
    checked = worker.check_requests(ops, out["outputs"])
    assert (checked["checked"], checked["check_failures"]) == (len(requests), [])
    metrics = run.end_to_end([out], [out["import_s"]], "scaled")
    assert set(metrics) == {m["name"] for m in run.DEFINITION["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_traced_pass_and_probes_give_every_layer_metric(monkeypatch, tmp_path):
    spans = tmp_path / "spans.json"
    out = _pass(monkeypatch, "eval-sweep", _smoke_ops("eval-sweep")[:4], trace=1,
                spans=str(spans))
    probes = worker.run_probes(Namespace(spans=None))
    names = set(out["layers"]) | set(probes["layers"]) | {"trace.overhead_s"}
    assert names == set(run.PER_LAYER)
    recorded = json.loads(spans.read_text())
    assert {sp["name"] for sp in recorded} == {"op", "cli.main"}
    assert all(sp["end"] >= sp["start"] for sp in recorded)


def test_op_budget_and_deadline_turn_a_hang_into_failures():
    ops = workloads.make_ops("su11-operators", 3)[:3]

    def hang(op):
        time.sleep(5)

    t0 = time.time()
    results, intervals, failures = worker._run_ops(
        ops, hang, worker.Speed(), NoTracer(), float("inf"), budget_s=0.05)
    assert time.time() - t0 < 2
    assert results == [None] * 3 and len(intervals) == 3
    assert [why for _, why in failures] == ["operation exceeded its time budget"] * 3
    results, intervals, failures = worker._run_ops(
        ops, hang, worker.Speed(), NoTracer(), time.time() - 1)
    assert intervals == [] and len(failures) == 3


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generation_is_deterministic(workload):
    first = workloads.make_ops(workload, 11)
    assert first == workloads.make_ops(workload, 11)
    other = workloads.make_ops(workload, 12)
    assert [op.key for op in first] != [op.key for op in other]
    assert len({op.key for op in first}) == len(first)


@pytest.mark.parametrize("workload", workloads.EXPECTED_WORKLOADS)
def test_seed_only_permutes_and_samples(workload):
    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    fixed = set()
    for seed in range(6):
        ops = workloads.make_ops(workload, seed)
        fixed.add(tuple(sorted(op.key for op in ops if not op.sampled)))
        # every block and every sample has a committed report to match
        assert {op.block for op in ops if not op.sampled} == set(expected["blocks"])
        assert {op.key for op in ops if op.sampled} <= set(expected["sampled"])
    assert len(fixed) == 1


def _cells_valid(op):
    argv = op.argv
    arg = dict(zip(argv[1::2], argv[2::2]))
    qb = QBase(workloads.P_HALF)
    if "--N" in arg and arg["--fn"].startswith("rr_"):
        rp = ratfun.RrParams(int(arg["--s"]), int(arg["--t"]), int(arg["--v"]), int(arg["--N"]), qb)
        return all(ratfun.rr_valid(rp, x, y) for x, y in op.cells)
    pp = ratfun.PrParams(int(arg["--s"]), int(arg["--t"]), int(arg["--v"]), int(arg["--k"]), qb)
    return all(ratfun.pr_valid(pp, x, y) for x, y in op.cells)


@pytest.mark.parametrize("seed", range(5))
def test_generated_table_requests_are_pole_free(seed):
    ops = workloads.make_ops("eval-sweep", seed)
    assert len(ops) >= 100
    checked = [op for op in ops if op.cells]
    assert checked and all(_cells_valid(op) for op in checked)
    for op in ops:
        if op.argv[0] == "table" and op.cells:
            assert len(op.cells) == workloads._grid_size(op.argv)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_one_pole_aborts_a_whole_table():
    # the finding the pole-free generation guards against
    argv = ["table", "--fn", "rr_closed", "--p", "1/2", "--N", "8", "--s", "1", "--t", "0",
            "--v", "0", "--grid", "x=0:8,y=0:8"]
    assert not workloads._rr_ok(8, 1, 0, 0, [(x, y) for x in range(9) for y in range(9)])
    code, out, err = _cli(argv)
    assert code == 2 and out == "" and "DenominatorPole" in err


def test_verdict_gate():
    def line(backend, residual, passed=True):
        return json.dumps({"backend": backend, "residual": residual, "pass": passed})

    assert workloads.verdict_error(line("exact", "0")) is None
    assert workloads.verdict_error(line("exact", "1/10**40")) is not None
    assert workloads.verdict_error(line("certified", "3e-10")) is None
    assert workloads.verdict_error(line("certified", "2e-9")) is not None
    assert workloads.verdict_error(line("certified", "0", passed=False)) is not None


def test_request_check_catches_a_changed_value():
    for op in _smoke_ops("eval-sweep"):
        code, out, _ = _cli(op.argv)
        assert code == 0 and workloads.request_mismatches(op, out) == []
        # change the last digit the request printed
        i = max(i for i, ch in enumerate(out) if ch.isdigit())
        changed = out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]
        assert workloads.request_mismatches(op, changed), op.key


def test_report_check_catches_a_changed_report():
    ops = [op for op in workloads.make_ops("finite-exact", 3) if op.block == "star|p=1/2"]
    items = [(op, workloads.canonical_report(verify.run_task(op.task, "exact", workloads.TOL)
                                             .to_json())) for op in ops]
    assert workloads.report_mismatches("finite-exact", ops, items) == []
    items[0] = (items[0][0], items[0][1].replace('"pass":true', '"pass":true,"extra":1'))
    assert workloads.report_mismatches("finite-exact", ops, items) == [
        ("star|p=1/2", "reports differ from the committed ones")]
    assert workloads.report_mismatches("finite-exact", ops, items[1:]) != []


def test_check_functions_match_benchmark_json():
    check_fns = tuple(name.split(".")[1] for name in run.PER_LAYER
                      if name.startswith("verify.") and name.endswith(".busy_s"))
    assert check_fns == tuple(verify.CHECKS)
