"""Verification harness and command-line interface."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F

from qracah.report import CheckReport, residual_string, serialize_value
from qracah.verify import SUITE_IDS, SUITES, RunConfig, build_tasks, run_suite, run_task

# the externally promised suite registry, one id per machine-checked result
SUITE_MANIFEST = {
    "lemma2.1", "relations", "star", "lemma3.1", "ev3.x", "prop3.3", "prop3.4",
    "lemma3.5", "cor3.6", "prop3.7", "lemma3.8", "lemma3.9", "cor3.10",
    "cor4.1", "ev4.x", "cor4.3", "prop4.4", "lemma4.5", "prop4.5", "prop4.6",
    "lemma4.8", "cor4.9", "all",
}


def test_registry_matches_manifest():
    assert set(SUITE_IDS) == SUITE_MANIFEST
    assert set(SUITES) == SUITE_MANIFEST - {"all"}


def _task_digest(cfg):
    rows = [
        [t.suite, t.check, t.fn, [[k, serialize_value(v)] for k, v in t.params.items()],
         t.contract]
        for t in build_tasks("all", cfg)
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(blob).hexdigest()


def test_task_manifest_is_pinned():
    # every task of every suite, in order: suite, check, fn, params in key
    # order and contract, for the default run and for one that sets p, the
    # truncation and the tail bound
    assert _task_digest(RunConfig()) == (
        3938, "cb8cc444c2e74f98b39b60899d71d6a75e3a66aebedfb8fa4d51c72b3cdb25bc")
    cfg = RunConfig(p=F(3, 4), trunc=5, tolerance=1e-6, max_terms=99)
    assert _task_digest(cfg) == (
        3011, "43981dec2f13ecc640eb394dc4fcaccff706ed8dc29263db480473bc32256b40")


def _report_digest(suite, mode="exact"):
    lines = []
    for r in run_suite(suite, RunConfig(mode=mode)):
        payload = json.loads(r.to_json())
        payload.pop("elapsed_ms")
        lines.append(json.dumps(payload, separators=(",", ":")))
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_report_digests_are_pinned():
    # the default reports without elapsed_ms, in order: the summation
    # identity (exact), closed form vs inner product and the recurrences of
    # the infinite family (certified, whose residual digits depend on every
    # series value, so a series kernel that drifts by one ulp shows here)
    assert _report_digest("lemma2.1") == (
        470, "e8c7e4dea4f1cb349e2eec5567816edcd30e7bbffc653af33a780afa7f4cef97")
    assert _report_digest("cor4.3") == (
        84, "18dcd271c0d81c12bb4890a0ca95ba93a74e9f8db28e5477a25146bbd6a0925d")
    assert _report_digest("prop4.5") == (
        32, "5d5150679d35da5568512d9c378f3a50094bc2ba0cc72b200ee43f9b30466393")


def test_floating_report_digests_are_pinned():
    # the same streams under --mode float and --mode complex: lemma2.1 runs
    # the floating series and exponent paths (its residual digits move with
    # any change of operation order there); cor4.3 is certified, so it runs
    # exact whatever the mode and must match its exact digest
    assert _report_digest("lemma2.1", "float") == (
        470, "cbf2f6a208ff864baf577ebf07d31f13f93e9d971b490b4b7fa5deec5359ce28")
    assert _report_digest("lemma2.1", "complex") == (
        470, "17401a254fa1f2bc3d0e253f9366d1a69bdaae71835a7be3ac931911079e0eaf")
    for mode in ("float", "complex"):
        assert _report_digest("cor4.3", mode) == (
            84, "18dcd271c0d81c12bb4890a0ca95ba93a74e9f8db28e5477a25146bbd6a0925d")


def test_report_serialization():
    rep = CheckReport("s", "c", {"p": F(1, 2), "N": 3}, "0", True, "exact", 1.234)
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == 1
    assert payload["params"] == {"p": "1/2", "N": 3}
    assert payload["pass"] is True and payload["residual"] == "0"
    assert residual_string(F(0, 1)) == "0"
    assert residual_string(F(-3, 7)) == "-3/7"
    assert serialize_value([F(1, 3), 2]) == ["1/3", 2]


def _suite_reports(suite, **cfg_kw):
    cfg = RunConfig(**cfg_kw)
    return list(run_suite(suite, cfg))


def test_small_suites_pass():
    for suite in ("relations", "star", "lemma3.1", "ev3.x", "ev4.x", "cor4.1"):
        reports = _suite_reports(suite, p=F(1, 2))
        assert reports and all(r.passed for r in reports), suite
        assert all(r.residual == "0" for r in reports), suite


def test_exact_suites_zero_residuals():
    reports = _suite_reports("lemma3.5", p=F(1, 2))
    assert reports and all(r.passed and r.residual == "0" for r in reports)
    reports = _suite_reports("lemma3.8", p=F(1, 2))
    assert reports and all(r.passed and r.residual == "0" for r in reports)


def test_certified_suite_passes_with_label():
    reports = _suite_reports("prop4.5", tolerance=1e-9)
    assert reports and all(r.passed for r in reports)
    assert all(r.backend == "certified" for r in reports)


def test_exact_mode_invariant():
    # no report labeled exact may combine pass=True with a nonzero residual
    for suite in ("lemma2.1", "prop3.3", "cor3.6"):
        for r in _suite_reports(suite, p=F(1, 2)):
            if r.backend == "exact" and r.passed:
                assert r.residual == "0"
            assert r.passed


def test_determinism_up_to_timing():
    def stream(jobs):
        out = []
        for r in _suite_reports("lemma3.5", p=F(1, 2), jobs=jobs):
            payload = json.loads(r.to_json())
            payload.pop("elapsed_ms")
            out.append(json.dumps(payload, sort_keys=True))
        return out

    a, b = stream(1), stream(1)
    assert a == b
    # a worker pool must not change content or order
    c = stream(2)
    assert a == c


def test_certificate_honesty():
    # demanding an impossible tolerance with a shallow term budget must
    # produce reported failures (error or over-tolerance), never a silent
    # pass: every passing report genuinely meets the demanded tolerance
    reports = _suite_reports("prop4.4", tolerance=1e-20, max_terms=25)
    assert any(not r.passed for r in reports)
    for r in reports:
        if r.passed:
            assert not r.error
            assert abs(float(r.residual)) <= 1e-20


def test_float_mode_uses_tolerance_contract():
    # only N <= 1: larger N fails in float mode on unnormalized residuals
    tasks = build_tasks("ev3.x", RunConfig(mode="float", p=F(1, 2)))
    reports = [run_task(t, "float", 1e-9) for t in tasks if t.params["N"] <= 1]
    assert reports and all(r.passed for r in reports)
    assert all(r.backend == "float" for r in reports)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qracah.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_eval_trivial():
    out = _cli("eval", "--fn", "kraw", "--p", "1/2", "--N", "3", "--s", "1",
               "--n", "0", "--x", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "1"


def test_cli_eval_exact_rational():
    point = ("--p", "1/2", "--N", "2", "--s", "2", "--t", "1", "--v", "-1",
             "--x", "2", "--y", "1")
    out = _cli("eval", "--fn", "rr_inner", *point)
    assert out.returncode == 0
    ref = _cli("eval", "--fn", "rr_closed", *point)
    assert ref.stdout.strip() == out.stdout.strip() == "-195"


def test_cli_eval_pole_exit_code():
    out = _cli("eval", "--fn", "rr_closed", "--p", "1/2", "--N", "2", "--s", "1",
               "--t", "0", "--v", "0", "--x", "1", "--y", "1")
    assert out.returncode == 2
    assert "DenominatorPole" in out.stderr


def test_cli_coefficients_pole_exit_code():
    # the t-lowering denominator 1 - q**(4y+2t+2k-2) vanishes at k=1, y=t=0
    out = _cli("eval", "--fn", "coefficients", "--p", "2/3", "--k", "1", "--y", "0",
               "--t", "0", "--v", "0")
    assert out.returncode == 2
    assert out.stderr.startswith("DenominatorPole")


def test_cli_weights_n_side_needs_no_s():
    # kraw_w does not depend on s, so --s is read only when --x is asked
    without = _cli("eval", "--fn", "weights", "--p", "3/2", "--N", "13", "--n", "6")
    with_s = _cli("eval", "--fn", "weights", "--p", "3/2", "--N", "13", "--n", "6",
                  "--s", "0")
    assert without.returncode == 0 and with_s.returncode == 0
    assert without.stdout.startswith("w=") and without.stdout == with_s.stdout
    x_side = _cli("eval", "--fn", "weights", "--p", "3/2", "--N", "13", "--x", "2")
    assert x_side.returncode == 2 and "--s is required" in x_side.stderr


def test_cli_eval_complex_mode_infinite_family():
    # complex mode parses s and t as complex too; the convergence guard
    # compares real parts, and the value is the float-mode one
    point = ("--p", "1/2", "--k", "1", "--s", "1", "--t", "1", "--v", "0",
             "--x", "1", "--y", "1")
    for fn in ("pr_inner", "pr_closed"):
        real = _cli("eval", "--fn", fn, "--mode", "float", *point)
        cplx = _cli("eval", "--fn", fn, "--mode", "complex", *point)
        assert real.returncode == 0 and cplx.returncode == 0, cplx.stderr
        assert complex(cplx.stdout.strip()) == float(real.stdout)
        if fn == "pr_inner":
            assert float(real.stdout) == 1034.7253526406096


def test_cli_eval_multivariate():
    out = _cli("eval", "--fn", "rr_multi", "--p", "1/2", "--N", "2,2", "--s", "1",
               "--t", "0", "--v", "0", "--x", "1,0", "--y", "0,2")
    assert out.returncode == 0
    assert "/" in out.stdout or out.stdout.strip().lstrip("-").isdigit()


def test_cli_verify_pass_and_stream(tmp_path):
    out_file = tmp_path / "report.jsonl"
    out = _cli("verify", "--suite", "lemma3.1", "--p", "1/2", "--out", str(out_file))
    assert out.returncode == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines
    for line in lines:
        payload = json.loads(line)
        assert payload["schema_version"] == 1
        assert payload["pass"] is True
        assert payload["residual"] == "0"
        assert payload["backend"] == "exact"
    assert "checks passed" in out.stderr


def test_cli_verify_failure_exit_code():
    out = _cli("verify", "--suite", "prop4.4", "--tol", "1e-20", "--max-terms", "25")
    assert out.returncode == 1
    assert "FAILED" in out.stderr


def test_cli_verify_q_above_one_fails_by_report():
    # at q > 1 the certified sums of cor4.3 leave the float range: every task
    # becomes a failing report naming NonConvergent, and the run ends normally
    out = _cli("verify", "--suite", "cor4.3", "--p", "3/2")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 84
    for r in reports:
        assert not r["pass"] and r["residual"] == "error"
        assert r["error"].startswith("NonConvergent: term ")
        assert r["error"].endswith(" exceeds the floating-point range")


def test_cli_verify_unknown_suite():
    out = _cli("verify", "--suite", "nope")
    assert out.returncode == 2


def test_cli_table_csv_deterministic(tmp_path):
    args = ("table", "--fn", "rr_inner", "--p", "1/2", "--N", "2", "--s", "1",
            "--t", "0", "--v", "0", "--grid", "x=0:2,y=0:2", "--format", "csv")
    a, b = _cli(*args), _cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0].strip() == "x,y,value"
    assert len(lines) == 1 + 9  # header plus the full grid, row-major
    assert lines[1].startswith("0,0,")


def test_cli_table_json(tmp_path):
    out = _cli("table", "--fn", "weights", "--p", "1/2", "--N", "2", "--s", "0",
               "--grid", "n=0:2,x=0:2", "--format", "json")
    assert out.returncode == 0
    rows = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert len(rows) == 9
    assert set(rows[0]) == {"n", "x", "w", "W_invbase"}


def test_cli_jobs_parallel_matches_serial():
    base = ("verify", "--suite", "ev3.x", "--p", "1/2")
    serial = _cli(*base)
    parallel = _cli(*base, "--jobs", "2")
    strip = lambda s: [
        json.dumps({k: v for k, v in json.loads(l).items() if k != "elapsed_ms"},
                   sort_keys=True)
        for l in s.strip().splitlines()
    ]
    assert strip(serial.stdout) == strip(parallel.stdout)


def test_cli_table_multivariate_grid():
    out = _cli("table", "--fn", "rr_multi", "--p", "1/2", "--N", "2,2",
               "--s", "1", "--t", "0", "--v", "0",
               "--grid", "x1=0:1,x2=0:1,y1=0:1,y2=0:1", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].strip() == "x1,x2,y1,y2,value"
    assert len(lines) == 1 + 16
