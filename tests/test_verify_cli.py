"""Verification harness and command-line interface."""

import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from qracah import cli
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


# float and complex digests of the suites that run the formulas written once
# for both families (3phi2, three-term and five-point tables, 4phi3,
# generator matrices); their residual digits move with any change of
# operation order or of a signed zero in those bodies
SHARED_FORMULA_DIGESTS = {
    ("relations", "float"): (
        14, "f8aa872f402ab90527d08199019ae0a1770c5f477aeac5132ae0d605163e5d51"),
    ("relations", "complex"): (
        14, "43ab81d210df71085fb1bab6553387d7faabd675a1d635edd878061591fa72d2"),
    ("ev3.x", "float"): (
        180, "96eeb7ff9db5170c1fa91a9742ac4e92a054e1f7fdcda6e8aa10c441a29d4a57"),
    ("ev3.x", "complex"): (
        180, "8ac98d25a28a4a46e219cda0d8e586ada7a28e24bbfa4e0b7f12ee00ee0ee5b3"),
    ("prop3.3", "float"): (
        470, "91a198109d764cb56ecbd15400f772519e66d0ca46f53afde2a51a79ab077318"),
    ("prop3.3", "complex"): (
        470, "c9466aeb2c78d454044e5abfbe6755a6f86acd922efabd10f350a96bbbe14ed0"),
    ("cor3.6", "float"): (
        300, "53c8b3180fb6762cb181b785b374f2a61495a68daa88c9950355ed7bc7102fee"),
    ("cor3.6", "complex"): (
        300, "58ee54286ff3dbe89f6283c6dc6fee2ae9a833650704353b7dd69b65adb57fc7"),
    ("lemma3.5", "float"): (
        100, "c6b1773841c8de58b369b6576f9c4d052b938d5e60c45707f7626d5452f61f57"),
    ("lemma3.5", "complex"): (
        100, "34c5aa2901a2d438b60c8b7fd72f6c4d6837c6660803c3e11264c729ead7e9a8"),
    ("lemma3.8", "float"): (
        108, "ea9f32cfefece51120bb14a9db3dd612015550b725351d3b381efd57f4f5a927"),
    ("lemma3.8", "complex"): (
        108, "c9ac0b19d29f66a9d5ee89bbff9aae3452e3c441ec7e8b13133e49835c0d848d"),
    ("ev4.x", "float"): (
        48, "c0ed216deb400104202ebc620af418e9a3b92b1557fe6af2d9fd775bc66c96cd"),
    ("ev4.x", "complex"): (
        48, "ea610a99475cacfd7969c49e8c8ee88ed09e5a4d96a843fc2ce72ba340213484"),
    ("lemma4.5", "float"): (
        80, "bba38fbf318d3efb5c760684b85cf41a89f1313b0fa8fc1aabcd1ae56882526e"),
    ("lemma4.5", "complex"): (
        80, "dd4e7f33266b5d134280284afed087a65ee0a14df003a9720b252ebc7540b4f7"),
    ("lemma4.8", "float"): (
        66, "3ca421fae26c3c5de0a117995ea3f2804d4aeeca6e36c6aa1beae2552efa1a0c"),
    ("lemma4.8", "complex"): (
        66, "785ab63b0a7e152040b83377797721974466157d818d0ddfb6ddd3cdfd806f6b"),
    ("cor4.1", "float"): (
        20, "3a62d95390579e2b6fe2f2023b0c7aa9b6edefd6f982cf1fa3b3aadc9c3aebf2"),
    ("cor4.1", "complex"): (
        20, "da59c24f3be467cda3ec41d775c43d2bdb3650c584bcb77d28929e10ac5f1ba7"),
}


def test_shared_formula_digests_are_pinned():
    for (suite, mode), digest in SHARED_FORMULA_DIGESTS.items():
        assert _report_digest(suite, mode) == digest, (suite, mode)


# float and complex digests of the finite suites that run the chain tables
# of multivar (shift-term maps, nested vectors, chain operators); lemma4.8,
# their infinite-side user, is pinned above.  Their residual digits move
# with any change of the per-eps accumulation order or of an operator's
# entries
CHAIN_TABLE_DIGESTS = {
    ("prop3.7", "float"): (
        220, "159f6d1cce6e94430ad20f5b1231ff0deaa07470611e154d3a847438b2d238d2"),
    ("prop3.7", "complex"): (
        220, "38e936637639916d8856a106ff5c3c60ee70df060cf18837868c8306f68019b3"),
    ("lemma3.9", "float"): (
        90, "78f9a1ff2880820d9a92a4af0b853c638456d7c361b6724838345f1adb77a606"),
    ("lemma3.9", "complex"): (
        90, "9b970deedeeec9f5d0b576a67ecd8de7df03c879c144030d64c761e8502f0a9d"),
    ("cor3.10", "float"): (
        708, "40e308ee435982c33fe600140dff7a70d73790a3eb61f44046f0f1facffcd5a1"),
    ("cor3.10", "complex"): (
        708, "9d1aea26dc0084c629a5cd3522a5b98282daffa42a264986ab34f97d6e35fd6c"),
}


def test_chain_table_digests_are_pinned():
    for (suite, mode), digest in CHAIN_TABLE_DIGESTS.items():
        assert _report_digest(suite, mode) == digest, (suite, mode)


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


_RR_POINT = ("--fn", "rr_closed", "--N", "2", "--s", "1", "--t", "0", "--v", "0",
             "--x", "1", "--y", "2")
_PR_POINT = ("--fn", "pr_closed", "--k", "1", "--s", "1", "--t", "0", "--v", "0",
             "--x", "1", "--y", "1")
_WEIGHTS = ("--fn", "weights", "--p", "1/2", "--N", "3", "--s", "0")


@pytest.mark.parametrize("args, message", [
    (("eval", *_RR_POINT[:5], "abc", *_RR_POINT[6:]), "cannot parse number 'abc'"),
    (("eval", "--mode", "float", "--p", "nan", *_RR_POINT), "cannot parse number 'nan'"),
    (("eval", "--mode", "float", "--p", "inf", *_RR_POINT), "cannot parse number 'inf'"),
    (("eval", "--p", "1/0", *_RR_POINT), "cannot parse number '1/0'"),
    (("verify", "--suite", "relations", "--p", "1/0"), "cannot parse number '1/0'"),
    (("eval", "--max-terms", "0", *_PR_POINT), "max_terms must be at least 1"),
    (("verify", "--suite", "cor4.3", "--max-terms", "0"), "max_terms must be at least 1"),
    (("eval", "--tol", "0", *_PR_POINT), "tolerance must be positive"),
    (("eval", "--mode", "float", "--p", f"1/{10**200}", *_RR_POINT),
     "unusable floating-point base q = 0.0"),
    (("verify", "--suite", "ev4.x", "--trunc", "0"), "trunc must be at least 2"),
    (("verify", "--suite", "cor4.1", "--trunc", "1"), "trunc must be at least 2"),
    (("table", *_WEIGHTS, "--grid", "x=2:1,y=0", "--format", "csv"),
     "grid range 'x=2:1' is empty"),
    (("table", *_WEIGHTS, "--grid", "x=2:1,y=0", "--format", "json"),
     "grid range 'x=2:1' is empty"),
], ids=["s-abc", "p-nan", "p-inf", "p-zero-denominator", "verify-p-zero-denominator",
        "max-terms-0", "verify-max-terms-0", "tol-0", "p-underflow", "trunc-0", "trunc-1",
        "empty-grid-csv", "empty-grid-json"])
def test_cli_bad_input_is_a_config_error(args, message):
    # a number that does not parse, or a tail bound or base that cannot
    # work, is refused with exit status 2 and one line, never a traceback
    # or a silent default
    out = _cli(*args)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr.startswith("ConfigError: ") and message in out.stderr
    assert len(out.stderr.splitlines()) == 1


def test_cli_verify_trunc_2_runs():
    # the smallest window: cor4.1's degree-2 residuals still cover a row
    out = _cli("verify", "--suite", "cor4.1", "--trunc", "2")
    assert out.returncode == 0 and "Traceback" not in out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 20 and all(r["params"]["trunc"] == 2 for r in reports)


# the options each subcommand reads; any other option is an argparse error
_SERIES_OPTIONS = {"--mode", "--p", "--tol", "--max-terms"}
_POINT_OPTIONS = {"--fn", "--s", "--t", "--u", "--v", "--N", "--k", "--x", "--y", "--n"}
_READ_OPTIONS = {
    "eval": _SERIES_OPTIONS | _POINT_OPTIONS,
    "verify": _SERIES_OPTIONS | {"--suite", "--trunc", "--jobs", "--out"},
    "table": _SERIES_OPTIONS | _POINT_OPTIONS | {"--grid", "--format", "--out"},
}
_VALID_ARGS = {
    "eval": ("--fn", "weights", "--p", "1/2", "--N", "3", "--n", "1"),
    "verify": ("--suite", "relations"),
    "table": ("--fn", "weights", "--p", "1/2", "--N", "3", "--grid", "n=0:1"),
}


@pytest.mark.parametrize("command", sorted(_READ_OPTIONS))
def test_cli_subcommand_takes_only_the_options_it_reads(command, capsys):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == _READ_OPTIONS[command]
    for option in sorted(set().union(*_READ_OPTIONS.values()) - _READ_OPTIONS[command]):
        value = "csv" if option == "--format" else "3"
        assert cli.main([command, *_VALID_ARGS[command], option, value]) == 2, option
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option} {value}" in err, option


def test_cli_floating_overflow_fails_by_report():
    # at p = 1e-30 the su11 relations need q**-6 = 1e360: each such task is
    # a failing OutOfRange report, and all 7 reports are written
    out = _cli("verify", "--suite", "relations", "--mode", "float", "--p", f"1/{10**30}")
    assert out.returncode == 1 and "Traceback" not in out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 7
    errors = [r["error"] for r in reports if "error" in r]
    assert errors and all(e.startswith("OutOfRange: q**") for e in errors)
    # a single evaluation reports it with exit status 2
    out = _cli("eval", "--mode", "float", "--p", "1/1000", "--fn", "weights",
               "--N", "200", "--n", "100")
    assert out.returncode == 2
    assert out.stderr.startswith("OutOfRange: q**") and "Traceback" not in out.stderr


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
