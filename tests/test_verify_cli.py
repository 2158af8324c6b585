"""Verification harness and command-line interface."""

import argparse
import copy
import hashlib
import inspect
import json
import math
import os
import pickle
import signal
import subprocess
import sys
from fractions import Fraction as F

import pytest

from qracah import (
    ASCParams,
    KrawParams,
    PhiSpec,
    PrParams,
    QBase,
    RepSpec,
    RrParams,
    TailBound,
    asc_w,
    cli,
    kraw_W,
    kraw_w,
    pr_inner,
)
from qracah.report import CheckReport, residual_string, serialize_value
from qracah import verify
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


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(p=F(3, 4), trunc=5, tolerance=1e-6,
                                                        max_terms=99)],
                         ids=["default", "pinned"])
def test_every_task_binds_to_its_check(cfg):
    # run_task calls CHECKS[fn](qb, **point), with p taken out and, for a
    # certified task, tb_tol/tb_max_terms turned into tb; a check that
    # forwards **site builds its representation with _repspec
    unbound = []
    for task in build_tasks("all", cfg):
        point = dict(task.params)
        del point["p"]
        if task.contract == "certified":
            del point["tb_tol"], point["tb_max_terms"]
            point["tb"] = None
        signature = inspect.signature(verify.CHECKS[task.fn])
        try:
            bound = signature.bind(None, **point)
            if "site" in signature.parameters:
                inspect.signature(verify._repspec).bind(None, **bound.arguments.get("site", {}))
        except TypeError as exc:
            unbound.append(f"{task.suite} {task.check}: {exc}")
    assert unbound == []


def _report_digests(suite):
    # per suite, the number of reports and the sha256 of their lines
    # without elapsed_ms, in order
    lines = {}
    for r in run_suite(suite, RunConfig()):
        payload = json.loads(r.to_json())
        payload.pop("elapsed_ms")
        lines.setdefault(r.suite, []).append(json.dumps(payload, separators=(",", ":")))
    return {sid: (len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest())
            for sid, rows in lines.items()}


# the whole exact stream of `verify --suite all` at the default p, suite by
# suite: every route or operation-order change that keeps the exact values
# must keep these bytes
EXACT_SUITE_DIGESTS = {
    "lemma2.1": (
        470, "e8c7e4dea4f1cb349e2eec5567816edcd30e7bbffc653af33a780afa7f4cef97"),
    "relations": (
        14, "5700eef68ede4bf636591229eecf0186eec1fc9cba7a6b036f82be6d81a7937e"),
    "star": (
        14, "d6e1b7491f382386259c6dfe7375e2e9dc03df55fe6ba747f1377cf24db5ed43"),
    "lemma3.1": (
        50, "8534d607f47fd6294c48c7e765cd1750c144b171a43913bc3c976ad63fcc2607"),
    "ev3.x": (
        180, "a9e9f2a00e559557da9f2449cd5f885dbc98f87e0f48b97dce986755be03b73f"),
    "prop3.3": (
        470, "fee9d8087b23fdb8b1e1c1692ec05595f5f16b9c6304f96434be2b0f56aa80c1"),
    "prop3.4": (
        720, "e2f3fdf022d15061af2c473b7fd29d3c8662ccaa140cbec96fa4d19c56b53d33"),
    "lemma3.5": (
        100, "1a22c56ca57fec7ad1f16c8eaab071e2aebcb3ddf283f0fff58c7a699637d70f"),
    "cor3.6": (
        300, "20354d2a6e36bf54594e6e423985c07b3f0159232a1b806a573663e4da37fce7"),
    "prop3.7": (
        220, "c0c3bc435f86dee5581e8f81b4714185d00aa9cba3d20949add0ada491813b73"),
    "lemma3.8": (
        108, "a07129ea5820b2db4c22f390aff75467c9bd0ccbf1d6f6eed637bdf248cb78d4"),
    "lemma3.9": (
        90, "42e773a1915e192e0675f5fd14246d66dc1d71d98ee87b056f5931ebdc9bf5d9"),
    "cor3.10": (
        708, "5c29a26dcd9117cc8e4eb18f6c83d0216a2d5bf6f6366952de1a300c8512032f"),
    "cor4.1": (
        20, "906f87086bd756812667a85d3d528ecffdf08cb008e4c60137f14e3b232a3b0f"),
    "ev4.x": (
        48, "899e64f464b213a78393743ad4a9c845b2d1ee1423db84498286e2c06e68e455"),
    "cor4.3": (
        84, "18dcd271c0d81c12bb4890a0ca95ba93a74e9f8db28e5477a25146bbd6a0925d"),
    "prop4.4": (
        36, "d5f6864c5fb7b052b9b5c35dc407645069466a22a6cbaf191831105712c3e19e"),
    "lemma4.5": (
        80, "2761fb9a3aa0dace8eee21b7773ab71461b00ac6aa1c8d3ffcdcfd460b7c0499"),
    "prop4.5": (
        32, "5d5150679d35da5568512d9c378f3a50094bc2ba0cc72b200ee43f9b30466393"),
    "prop4.6": (
        64, "1b786e78178a5ac8474c0ff0d58723086dc1fa14460275becbfff42a2c6a0030"),
    "lemma4.8": (
        66, "defeedc451b8010117735df95b824d1dbaf365f32287d7f465b92eb1d51bc2e9"),
    "cor4.9": (
        64, "e04ac2cddfc7a4d2c1af6adab2a265b70e1d74e8b6f19a74a549a545e7e80039"),
}


def test_report_digests_are_pinned():
    # the default reports without elapsed_ms, in order, of every suite: the
    # certified ones' residual digits depend on every series value, so a
    # series kernel that drifts by one ulp shows here
    assert _report_digests("all") == EXACT_SUITE_DIGESTS


# table in the floating backends: pr_inner and rr_inner, whose terms are
# the combined power q**(n(s+t-v+k)) or q**(n(s+t-v-N)) times the two
# series entries and the weight, in that order, as in the exact backend,
# and one table per --fn (both
# families where one takes either) of the polynomial, rational-function,
# weight and coefficient bodies.  Their digits move with any change of
# operation order or of a signed zero in those bodies
_TABLE_POINTS = {
    "pr_inner p=2/3,k=3/2": ("--fn", "pr_inner", "--p", "2/3", "--k", "3/2", "--s", "1",
                             "--t", "1/2", "--v", "1/3", "--grid", "x=0:6,y=0:6"),
    "pr_inner p=1/2,k=1": ("--fn", "pr_inner", "--p", "1/2", "--k", "1", "--s", "1",
                           "--t", "1", "--v", "0", "--grid", "x=0:4,y=0:4"),
    "kraw": ("--fn", "kraw", "--p", "2/3", "--N", "4", "--u", "1/2", "--s", "1/3",
             "--grid", "n=0:4,x=0:4"),
    "asc": ("--fn", "asc", "--p", "1/2", "--k", "3/2", "--u", "1", "--s", "1/3",
            "--grid", "n=0:4,x=0:4"),
    "rr_inner": ("--fn", "rr_inner", "--p", "2/3", "--N", "3", "--s", "1", "--t", "2",
                 "--v", "1/3", "--grid", "x=0:3,y=0:3"),
    "rr_closed": ("--fn", "rr_closed", "--p", "2/3", "--N", "3", "--s", "1", "--t", "2",
                  "--v", "1/3", "--grid", "x=0:3,y=0:3"),
    "rr_multi": ("--fn", "rr_multi", "--p", "1/2", "--N", "2,1", "--s", "1", "--t", "0",
                 "--v", "1/2", "--grid", "x1=0:2,x2=0:1,y1=0:2,y2=0:1"),
    "weights N": ("--fn", "weights", "--p", "2/3", "--N", "4", "--s", "1/2",
                  "--grid", "n=0:4,x=0:4"),
    "weights k": ("--fn", "weights", "--p", "1/2", "--k", "3/2", "--s", "1",
                  "--grid", "n=0:4,x=0:4"),
    "coefficients N": ("--fn", "coefficients", "--p", "2/3", "--N", "4", "--t", "1",
                       "--v", "1/3", "--grid", "y=0:4"),
    "coefficients k": ("--fn", "coefficients", "--p", "1/2", "--k", "2", "--t", "1",
                       "--v", "0", "--grid", "y=0:4"),
}
PR_INNER_TABLE_DIGESTS = {
    ("float", "pr_inner p=2/3,k=3/2"): (
        49, "f57b54f1a247e494f41a994f0ae6c2cbdb243dae9336ee57518268b353a0bf87"),
    ("float", "pr_inner p=1/2,k=1"): (
        25, "156feff8403ad203d14271e02299d92e714fffecf266a251a048b5ef1e066213"),
    ("complex", "pr_inner p=2/3,k=3/2"): (
        49, "300f23095ce745a9d264d28df1c8026ecf11346efbc360137769fedeacb66054"),
    ("complex", "pr_inner p=1/2,k=1"): (
        25, "ae305185c167b1384f38f8c6d24b3d45ff84beb1849d3606b4499f508e669698"),
    ("float", "kraw"): (
        25, "7b9bedada6e2498ee5afc309d6d3d7c256d7e399a2f26f9df5d020efa5227522"),
    ("float", "asc"): (
        25, "901bb7b4dfef3ea1bd021455801d794c4e4eaf42b025d97cb6c148aa860f0e09"),
    ("float", "rr_inner"): (
        16, "f1fdb28d5506212f09b1806c289c856313bf305b9393d6263a72caf59986423f"),
    ("float", "rr_closed"): (
        16, "ca0575d584e5801ec1fb2637a06e73c3e30888251c2b1394feb4971911cf677f"),
    ("float", "rr_multi"): (
        36, "fa723a3d45923911bf7ff26b13af5b1192559187643616bc0b875e451c3fcaaa"),
    ("float", "weights N"): (
        25, "a61c41cb20b7dc810db2e45c20625ff4b1e5cfca2e4870651cbe1548b481a937"),
    ("float", "weights k"): (
        25, "95318dabcc0b3dc3b4e21a11d9c43c317d88d551246c421284acca221508a4f1"),
    ("float", "coefficients N"): (
        5, "723fe0a10f7bb158d55711274d6dbf09de9a2ff5636574ff241ad825b416e7b1"),
    ("float", "coefficients k"): (
        5, "e9cbca9196206e252b9371f87e083010fe16cf521bf394e3849473abd73e741d"),
    ("complex", "kraw"): (
        25, "95c742ad4f12ca0d946e81344f78a1c6b87a0053d5c3fdfbf36a8fb982b67bb0"),
    ("complex", "asc"): (
        25, "38fbb27f044a77a5161b14361d275f5d07fb27f69aa6a6684125d53253bf2375"),
    ("complex", "rr_inner"): (
        16, "2a10074a555e9f05e0c59f553e04796f5bc91957052acc4ac1b5075a66278bb5"),
    ("complex", "rr_closed"): (
        16, "c88a0752bed206abd0fdd837fad59b79739337c86e132e8c44bea31203dbf6a9"),
    ("complex", "rr_multi"): (
        36, "9a51e8cd346147de82e0fb20208c715ec1a1b093fa68e1e2f1cbd048232e40f3"),
    ("complex", "weights N"): (
        25, "1de281d0c3178f425a1a3cfa3bc4938a132868679b54f2fd86b75f79b4e1bd8f"),
    ("complex", "weights k"): (
        25, "9a953720a8dfc9e5f8277b42162101c856e31cf2096e14e116e70dab2e7e2ff2"),
    ("complex", "coefficients N"): (
        5, "98aa8231215a122b641523cd2170b690028a410e31559fb49ec9111a6e4bbe8d"),
    ("complex", "coefficients k"): (
        5, "ac70a4a16669fe70f1743e2667e692d1166e83cd8c20b421a243436ed5207076"),
}


def test_pr_inner_floating_table_digests_are_pinned(capsys):
    for (mode, point), digest in PR_INNER_TABLE_DIGESTS.items():
        argv = ["table", "--mode", mode, *_TABLE_POINTS[point]]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == digest, argv


def test_report_serialization():
    rep = CheckReport("s", "c", {"p": F(1, 2), "N": 3}, "0", True, "exact", 1.234)
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == 1
    assert payload["params"] == {"p": "1/2", "N": 3}
    assert payload["pass"] is True and payload["residual"] == "0"
    assert residual_string(F(0, 1)) == "0"
    assert residual_string(F(-3, 7)) == "-3/7"
    assert serialize_value([F(1, 3), 2]) == ["1/3", 2]


def test_exact_values_of_any_length_serialize_in_full():
    # past the interpreter's limit on int-to-string conversion (4300
    # digits by default), in the same num/den form, leaving the limit as
    # it was
    limit = sys.get_int_max_str_digits()
    digits = "1" + "0" * 4999 + "1"
    value = F(10**5000 + 1, 3)
    assert serialize_value(value) == residual_string(value) == digits + "/3"
    assert serialize_value(-value) == "-" + digits + "/3"
    assert serialize_value(F(10**5000 + 1)) == digits
    assert residual_string(1 / value) == "3/" + digits
    assert sys.get_int_max_str_digits() == limit


def test_cli_eval_prints_long_certified_values(capsys):
    # at x = y = 14 the exact pr_inner value has more digits than str()
    # converts; at x = y = 16 its early terms exceed the float range
    for xy in ("14", "16"):
        argv = ["eval", "--fn", "pr_inner", "--p", "1/2", "--k", "1", "--s", "1",
                "--t", "1", "--v", "0", "--x", xy, "--y", xy]
        assert cli.main(argv) == 0, xy
        out, err = capsys.readouterr()
        value = pr_inner(PrParams(1, 1, 0, 1, QBase(F(1, 2))), int(xy), int(xy))
        assert err == "" and out == serialize_value(value) + "\n", xy
        # more than 4300 digits: 4300 digits are fewer than 14,300 bits
        assert max(value.numerator, value.denominator).bit_length() > 14300, xy


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


def test_shared_operators_are_never_mutated():
    # gens and the twisted elements are tabled, so every check reads the
    # same OpMatrix objects: one that wrote to them would change the
    # reports of the checks after it, or leave an entry unlike a fresh build
    from qracah import tables, uqsl2

    tasks = [task for sid in ("relations", "star", "ev3.x", "lemma3.1", "ev4.x", "cor4.1",
                              "lemma4.5") for task in build_tasks(sid, RunConfig())]

    def timeless(task):
        report = json.loads(run_task(task, "exact", verify.DEFAULT_TOL).to_json())
        del report["elapsed_ms"]
        return report

    forward = [timeless(task) for task in tasks]
    assert forward == [timeless(task) for task in reversed(tasks)][::-1]
    for fn, nargs in ((uqsl2.gens, 0), (uqsl2._twisted, 4)):
        entries = tables._TABLES[f"{fn.__module__}.{fn.__qualname__}"]
        assert entries
        for key, value in entries.items():
            # a key starts with the RepSpec's five fields, then the other arguments
            assert value == fn.__wrapped__(uqsl2.RepSpec(*key[:5]), *key[5:5 + nargs]), key


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


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qracah.cli", *args],
        capture_output=True,
        text=True,
    )


def test_import_loads_no_process_pool():
    # the pool is imported on first use, by a run with --jobs > 1, so the
    # package and its command line load no multiprocessing
    code = ("import sys, qracah, qracah.cli; print(sorted(m for m in sys.modules"
            " if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_import_loads_no_dataclasses():
    # the records are NamedTuples: a cold start loads neither dataclasses
    # nor the inspect module that dataclasses imports
    code = ("import sys, qracah, qracah.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_records_round_trip_through_pickle():
    # a --jobs pool sends Task and CheckReport between processes; every
    # record is a tuple of its fields, equal to and hashed as that tuple
    qb = QBase(F(1, 2))
    tb = TailBound(tolerance=1e-10, max_terms=99)
    records = [
        KrawParams(0, 1, 3, qb), ASCParams(0, 1, 2, qb, tb), tb,
        PhiSpec((F(1, 4),), (F(1, 3),), F(1, 2), 1, 2), RrParams(1, 2, 1, 3, qb),
        PrParams(1, 1, 0, 1, qb, tb), RepSpec.su11(1, 8, qb),
        build_tasks("relations", RunConfig())[0],
        CheckReport("relations", "su2[N=0]", {"N": 0, "p": F(1, 2)}, "0", True, "exact", 0.5),
        RunConfig(p=F(3, 4), jobs=2),
    ]
    assert len({type(record) for record in records}) == 10
    for record in records:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record == tuple(record)
        assert repr(back) == repr(record)
    assert hash(tb) == hash((1e-10, 99))
    assert repr(tb) == "TailBound(tolerance=1e-10, max_terms=99)"


@pytest.mark.parametrize("make, message", [
    (lambda: TailBound(tolerance=0), "tolerance must be positive and finite, got 0"),
    (lambda: TailBound(max_terms=0), "max_terms must be at least 1"),
    (lambda: RunConfig(jobs=0), "jobs must be at least 1"),
    (lambda: RunConfig(trunc=1), "trunc must be at least 2"),
])
def test_record_checks_keep_their_texts(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


_COPIES = [
    (lambda: TailBound()._replace(tolerance=0), "tolerance must be positive and finite, got 0"),
    (lambda: TailBound._make((1e-12, 0)), "max_terms must be at least 1"),
    (lambda: RunConfig()._replace(jobs=0), "jobs must be at least 1"),
    (lambda: RunConfig._make((None, None, 1, 1, None)), "trunc must be at least 2"),
]
if hasattr(copy, "replace"):  # Python 3.13 on
    _COPIES += [(lambda: copy.replace(TailBound(), max_terms=0), "max_terms must be at least 1"),
                (lambda: copy.replace(RunConfig(), trunc=1), "trunc must be at least 2")]


@pytest.mark.parametrize("make, message", _COPIES)
def test_record_copies_are_checked_as_built(make, message):
    # _replace builds through _make, and so does copy.replace: each raises
    # the constructor's text, and a valid copy is the record built anew
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
    assert TailBound()._replace(max_terms=5) == TailBound(max_terms=5)
    assert RunConfig()._replace(jobs=2) == RunConfig(jobs=2)


def test_every_suite_generator_is_documented():
    for suite_id in SUITE_IDS:
        if suite_id != "all":
            assert (SUITES[suite_id][0].__doc__ or "").strip(), suite_id


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


@pytest.mark.parametrize("fn, s", [("rr_closed", "1e12"), ("rr_closed", "1e400"),
                                   ("kraw", "1e30")])
def test_cli_oversize_exact_power_exit_code(fn, s):
    # an exact power past scalar.MAX_POWER_BITS is refused before it is
    # taken: exit 2 naming OutOfRange well inside 30 s, where taking
    # p**(2e) at e = 1e12 does not return
    point = ("--N", "2", "--t", "0", "--v", "0", "--x", "1", "--y", "1") if fn == "rr_closed" \
        else ("--N", "2", "--n", "1", "--x", "1")
    out = subprocess.run([sys.executable, "-m", "qracah.cli", "eval", "--fn", fn, "--s", s, *point],
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 2
    assert out.stderr.startswith("OutOfRange")


def test_cli_coefficients_pole_exit_code():
    # the t-lowering denominator 1 - q**(4y+2t+2k-2) vanishes at k=1, y=t=0
    out = _cli("eval", "--fn", "coefficients", "--p", "2/3", "--k", "1", "--y", "0",
               "--t", "0", "--v", "0")
    assert out.returncode == 2
    assert out.stderr.startswith("DenominatorPole")


def test_cli_weights_pole_exit_code():
    # the x-side weight's 1 - q**(2x+2s+2k) vanishes at x + s + k = 0: a
    # named pole, in every mode, not a ZeroDivisionError traceback
    for point in (("--s", "-2", "--x", "1"), ("--s", "-1", "--x", "0"),
                  ("--s", "-2", "--x", "1", "--mode", "float")):
        out = _cli("eval", "--fn", "weights", "--k", "1", *point)
        assert out.returncode == 2 and "Traceback" not in out.stderr
        assert out.stderr.startswith("DenominatorPole: asc_W(")
        assert out.stderr.endswith("): a denominator factor vanishes\n")


def test_cli_negative_fraction_or_complex_after_an_option():
    # argparse takes only -1 and -0.5 for negative numbers; "--v -1/2" is
    # read as "--v=-1/2", at the exact point the README documents
    point = ("--fn", "pr_inner", "--k", "3/2", "--s", "1", "--t", "1/2", "--x", "1", "--y", "1")
    spaced = _cli("eval", *point, "--v", "-1/2")
    joined = _cli("eval", *point, "--v=-1/2")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout and "/" in spaced.stdout
    cplx = _cli("eval", *point, "--v", "-1+1j", "--mode", "complex")
    assert cplx.returncode == 0, cplx.stderr
    complex(cplx.stdout)
    # a negative base is read, then refused
    bad = _cli("eval", *point, "--v", "0", "--p", "-1/2")
    assert bad.returncode == 2 and bad.stderr.startswith("ConfigError: ")


def test_cli_weights_n_side_needs_no_s():
    # kraw_w does not depend on s, so --s is read only when --x is asked
    without = _cli("eval", "--fn", "weights", "--p", "3/2", "--N", "13", "--n", "6")
    with_s = _cli("eval", "--fn", "weights", "--p", "3/2", "--N", "13", "--n", "6",
                  "--s", "0")
    assert without.returncode == 0 and with_s.returncode == 0
    assert without.stdout.startswith("w=") and without.stdout == with_s.stdout
    x_side = _cli("eval", "--fn", "weights", "--p", "3/2", "--N", "13", "--x", "2")
    assert x_side.returncode == 2 and "--s is required" in x_side.stderr


def test_cli_floating_weights_in_the_float_range_are_finite():
    # the weight rows grow by their consecutive ratios, the lead power folded
    # into each step, so no Pochhammer prefix (p = 3/2; each printed nan or
    # inf before) and no q**(n(N+1)) (p = 1/2) leaves the float range: every
    # printed value is within 1e-12 relative of the exact one
    for p, point, exact in (
            ("3/2", ("--k", "2", "--n", "40"), {"w_k": asc_w(QBase(F(3, 2)), 2, 40)}),
            ("3/2", ("--N", "30", "--n", "15", "--s", "0", "--x", "3"),
             {"w": kraw_w(QBase(F(3, 2)), 30, 15), "W_invbase": kraw_W(QBase(F(3, 2)), 0, 30, 3)}),
            ("3/2", ("--N", "30", "--n", "29"), {"w": kraw_w(QBase(F(3, 2)), 30, 29)}),
            ("1/2", ("--N", "30", "--n", "15"), {"w": kraw_w(QBase(F(1, 2)), 30, 15)})):
        out = _cli("eval", "--mode", "float", "--fn", "weights", "--p", p, *point)
        assert out.returncode == 0, out.stderr
        printed = dict(line.split("=") for line in out.stdout.splitlines())
        assert list(printed) == list(exact), point
        for key, value in exact.items():
            assert abs(float(printed[key]) - value) <= 1e-12 * abs(value), (point, key)


_RR_INNER_N30 = ("--fn", "rr_inner", "--N", "30", "--s", "0", "--t", "0", "--v", "0",
                 "--x", "1", "--y", "1")


def test_cli_floating_rr_inner_past_the_float_range_is_refused():
    # at p = 2/3, N = 30 the power q**-900 of the sum leaves the float range:
    # exit 2 naming OutOfRange, not the wrong value the column fold printed
    # (3.29e268, exact 3.04e276)
    out = _cli("eval", "--mode", "float", "--p", "2/3", *_RR_INNER_N30)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("OutOfRange: ") and "Traceback" not in out.stderr


def test_cli_floating_rr_inner_at_q_above_one_is_the_exact_value():
    # at p = 3/2, N = 30 every weight stays near its value, so the sum
    # prints the exact 2.356... within 1e-12 relative (the column fold
    # printed nan)
    exact = _cli("eval", "--p", "3/2", *_RR_INNER_N30)
    out = _cli("eval", "--mode", "float", "--p", "3/2", *_RR_INNER_N30)
    assert exact.returncode == 0 and out.returncode == 0, out.stderr
    want = F(exact.stdout.strip())
    assert abs(float(out.stdout) - want) <= 1e-12 * want


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(1, math.inf),
                                   complex(math.nan, 0)], ids=repr)
def test_cli_refuses_non_finite_values(monkeypatch, capsys, value):
    # eval and table format every value in one place, which refuses a
    # floating value outside the float range: exit 2 naming OutOfRange,
    # nothing printed, whichever function produced it
    def fn(args, qb, point):
        if point:
            point["n"]  # the table's one grid axis, read
        return {"a": 1.0, "b": value}

    monkeypatch.setitem(cli.FUNCTIONS, "kraw", fn)
    for argv in (["eval", "--fn", "kraw", "--mode", "float"],
                 ["table", "--fn", "kraw", "--mode", "float", "--grid", "n=0:1"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("OutOfRange: "), argv


@pytest.mark.parametrize("point", [
    ("--fn", "rr_closed", "--N", "2", "--s", "0", "--t", "1e308", "--v", "1e308", "--y", "1"),
    ("--fn", "pr_closed", "--k", "1", "--s", "1e308", "--t", "0", "--v=-1e308", "--y", "1"),
], ids=["rr_closed", "pr_closed"])
def test_cli_closed_form_past_the_float_range_fails_by_name(capsys, point):
    # s - t - v + 1 overflows to an infinite float, so the pole test's
    # index is not finite: it names no pole, and the nan value is refused
    # with exit 2 naming OutOfRange, in eval and in table, where an
    # OverflowError used to end the command
    for argv in (["eval", "--mode", "float", *point, "--x", "1"],
                 ["table", "--mode", "float", *point, "--grid", "x=0:1"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "OutOfRange: the floating value nan is not finite\n", argv


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
            assert float(real.stdout) == 1034.72535264061


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


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("argv, lines", [
    (("verify", "--suite", "all"), 1),
    (("verify", "--suite", "all", "--jobs", "2"), 1),
    (("eval", "--fn", "kraw", "--p", "1/2", "--N", "3", "--s", "1", "--n", "1", "--x", "2"), 0),
    (("table", "--fn", "kraw", "--p", "1/2", "--N", "3", "--s", "1", "--grid", "n=0:3,x=0:3"), 0),
], ids=["verify", "verify-jobs2", "eval", "table"])
def test_cli_reader_closing_early_ends_the_command(argv, lines):
    # `| head -1`: the reader closes the pipe after `lines` lines, long
    # before a whole stream of reports fits in it.  The command stops
    # writing and exits 1 with no traceback, and no pool worker is left in
    # its process group once it has exited
    proc = subprocess.Popen([sys.executable, "-m", "qracah.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1 and b"Traceback" not in err, err.decode()
        assert all(json.loads(line)["suite"] == "lemma2.1" for line in head)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_cli_verify_q_above_one_fails_by_report():
    # at q > 1 the certified sums of cor4.3 are refused before their first
    # term: every task becomes a failing report naming NonConvergent and the
    # domain 0 < q < 1, and the run ends normally
    out = _cli("verify", "--suite", "cor4.3", "--p", "3/2")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 84
    for r in reports:
        assert not r["pass"] and r["residual"] == "error"
        assert r["error"].startswith("NonConvergent: certified infinite sum ")
        assert r["error"].endswith(" needs 0 < q < 1, got q = 9/4")


def test_cli_verify_cor43_builds_no_base_for_its_pole_test():
    # at p = 10**-200 a floating base would be q = 0.0, refused; the suite's
    # pole test reads s, t and v only, so every certified check runs
    out = _cli("verify", "--suite", "cor4.3", "--p", f"1/{10**200}", "--jobs", "2")
    assert out.returncode == 0, out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 84 and all(r["pass"] for r in reports)


_RR_POINT = ("--fn", "rr_closed", "--N", "2", "--s", "1", "--t", "0", "--v", "0",
             "--x", "1", "--y", "2")
_PR_POINT = ("--fn", "pr_closed", "--k", "1", "--s", "1", "--t", "0", "--v", "0",
             "--x", "1", "--y", "1")
_WEIGHTS = ("--fn", "weights", "--p", "1/2", "--N", "3", "--s", "0")
_KRAW_POINT = ("--fn", "kraw", "--N", "2", "--n", "1", "--x", "1")


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
    (("table", "--fn", "weights", "--p", "1/2", "--N", "3", "--n", "1", "--grid", "z=0:2"),
     "grid axis 'z' is not read by --fn weights"),
    (("table", "--fn", "weights", "--p", "1/2", "--N", "3", "--n", "1",
      "--grid", "n=0:1,n=2:3", "--format", "json"),
     "grid axis 'n' is repeated"),
    (("table", "--fn", "weights", "--p", "1/2", "--N", "3", "--n", "1", "--grid", "x1=0:1"),
     "grid axis 'x1' is not read by --fn weights"),
    # a gap among the vector slots was read as the next site
    (("table", "--fn", "heights", "--N", "1,2", "--grid", "y1=0,y3=2"),
     "grid vector slots must be y1..y2, got y1, y3"),
    (("table", "--fn", "heights", "--N", "1,2", "--grid", "y0=0,y1=0"),
     "grid vector slots must be y1..y2, got y0, y1"),
    # NaN passes a `tolerance <= 0` test: cor4.3 then ran without end and
    # pr_inner stopped after 6 terms
    (("verify", "--suite", "cor4.3", "--tol", "nan"),
     "tolerance must be positive and finite, got nan"),
    (("eval", "--tol", "nan", "--fn", "pr_inner", "--k", "1", "--s", "0", "--t", "0",
      "--v", "0", "--x", "0", "--y", "0"), "tolerance must be positive and finite, got nan"),
    (("verify", "--suite", "lemma2.1", "--tol", "-1"),
     "tolerance must be positive and finite, got -1.0"),
    (("verify", "--suite", "relations", "--tol", "inf"),
     "tolerance must be positive and finite, got inf"),
    (("eval", "--tol", "inf", *_RR_POINT), "tolerance must be positive and finite, got inf"),
    (("table", *_WEIGHTS, "--grid", "x=0:1", "--tol", "nan"),
     "tolerance must be positive and finite, got nan"),
    (("table", *_WEIGHTS, "--grid", "x=0:1", "--max-terms", "0"), "max_terms must be at least 1"),
    (("verify", "--suite", "relations", "--jobs", "-2"), "jobs must be at least 1"),
    (("verify", "--suite", "relations", "--jobs", "0"), "jobs must be at least 1"),
    # float(Fraction) raised an OverflowError traceback
    (("eval", "--mode", "float", *_KRAW_POINT, "--s", "1e400"),
     "number '1e400' is beyond the floating-point range"),
    (("eval", "--mode", "float", "--p", "1e400", *_KRAW_POINT, "--s", "1"),
     "number '1e400' is beyond the floating-point range"),
    # complex() takes nan, inf and 1e400 (as inf): a non-finite part is
    # refused as in float mode, not evaluated to (nan+nanj)
    (("eval", "--mode", "complex", *_KRAW_POINT, "--s", "nan"), "cannot parse number 'nan'"),
    (("eval", "--mode", "complex", *_KRAW_POINT, "--s", "inf"), "cannot parse number 'inf'"),
    (("eval", "--mode", "complex", *_KRAW_POINT, "--s", "1e400"),
     "number '1e400' is beyond the floating-point range"),
    (("eval", "--mode", "complex", *_RR_POINT[:7], "nan", *_RR_POINT[8:]),
     "cannot parse number 'nan'"),
], ids=["s-abc", "p-nan", "p-inf", "p-zero-denominator", "verify-p-zero-denominator",
        "max-terms-0", "verify-max-terms-0", "tol-0", "p-underflow", "trunc-0", "trunc-1",
        "empty-grid-csv", "empty-grid-json", "grid-axis-unread", "grid-axis-repeated",
        "grid-slot-unread", "grid-slot-gap", "grid-slot-zero", "verify-tol-nan", "tol-nan", "verify-tol-negative",
        "verify-tol-inf", "tol-inf", "table-tol-nan", "table-max-terms-0", "jobs-negative",
        "jobs-0", "float-s-overflow", "float-p-overflow", "complex-s-nan", "complex-s-inf",
        "complex-s-overflow", "complex-t-nan"])
def test_cli_bad_input_is_a_config_error(args, message):
    # a number that does not parse, or a tail bound or base that cannot
    # work, is refused with exit status 2 and one line, never a traceback
    # or a silent default
    out = _cli(*args)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr.startswith("ConfigError: ") and message in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("args, message", [
    (("eval", "--fn", "kraw", "--p", "1/2", "--N", "3/2", "--s", "1", "--n", "0", "--x", "0"),
     "--N must be an integer, got '3/2'"),
    (("eval", "--fn", "kraw", "--p", "1/2", "--N", "3", "--s", "1", "--n", "0.5", "--x", "0"),
     "--n must be an integer, got '0.5'"),
    (("eval", "--fn", "kraw", "--p", "1/2", "--N", "3", "--s", "1", "--n", "0", "--x", "x"),
     "--x must be an integer, got 'x'"),
    (("eval", "--fn", "rr_closed", "--N", "2", "--s", "1", "--t", "0", "--v", "0",
      "--x", "1", "--y", "1/2"), "--y must be an integer, got '1/2'"),
    (("eval", "--fn", "rr_multi", "--N", "1,3/2", "--s", "1", "--t", "0", "--v", "0",
      "--x", "0,0", "--y", "0,0"), "--N must be an integer, got '3/2'"),
    (("eval", "--fn", "rr_multi", "--N", "1,1", "--s", "1", "--t", "0", "--v", "0",
      "--x", "0,0", "--y", "0,1.0"), "--y must be an integer, got '1.0'"),
    (("table", *_WEIGHTS, "--grid", "x=0:3/2"), "--grid bound must be an integer, got '3/2'"),
    (("table", *_WEIGHTS, "--grid", "x=a:1"), "--grid bound must be an integer, got 'a'"),
], ids=["N", "n", "x", "y", "int-list", "int-list-slot", "grid-hi", "grid-lo"])
def test_cli_non_integer_option_names_the_option(capsys, args, message):
    # an integer option that does not parse as one is a configuration error
    # that names the option, not int()'s "invalid literal"
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"ConfigError: {message}\n"


def test_cli_weight_lists_take_half_integers(capsys):
    # --k lists are weights, not indices: a half-integer k is read in the
    # --mode backend, as pr_inner reads its --k.  The one-site pr_multi is
    # pr_inner's value, and the heights step by 2y + k
    point = ("--s", "1", "--t", "1/2", "--v=-1/2", "--x", "1", "--y", "1")
    printed = []
    for fn in ("pr_multi", "pr_inner"):
        assert cli.main(["eval", "--fn", fn, "--k", "3/2", *point]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and "/" in printed[0]
    assert cli.main(["eval", "--fn", "heights", "--k", "1/2", "--t", "0", "--y", "1"]) == 0
    assert capsys.readouterr().out == "h_0=0\nh_1=5/2\n"


@pytest.mark.parametrize("args", [
    ("verify", "--suite", "relations"),
    ("table", *_WEIGHTS, "--grid", "x=0:2", "--format", "csv"),
    # the output is opened first: this grid would fail on its first cell
    ("table", "--fn", "pr_closed", "--k", "0", "--s", "0", "--t", "0", "--v", "0",
     "--y", "1", "--grid", "x=0:1"),
], ids=["verify", "table", "table-before-the-grid"])
def test_cli_unwritable_out_is_a_config_error(args, tmp_path):
    path = tmp_path / "missing" / "out.txt"
    out = _cli(*args, "--out", str(path))
    assert out.returncode == 2 and "Traceback" not in out.stderr and out.stdout == ""
    assert out.stderr == f"ConfigError: cannot write --out {path}: No such file or directory\n"


def test_cli_k_not_positive_is_out_of_range():
    # pr_closed at k = 0 died with a ZeroDivisionError traceback
    out = _cli("eval", "--fn", "pr_closed", "--k", "0", "--s", "0", "--t", "0", "--v", "0",
               "--x", "1", "--y", "1")
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr == "OutOfRange: k must be positive, got k = 0\n"


def test_cli_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["eval", *_WEIGHTS, "--n", "1"]) == 0
    assert cli.main(["eval", *_WEIGHTS, "--n", "1", "--tol", "nan"]) == 2


def test_cli_verify_trunc_2_runs():
    # the smallest window: cor4.1's degree-2 residuals still cover a row
    out = _cli("verify", "--suite", "cor4.1", "--trunc", "2")
    assert out.returncode == 0 and "Traceback" not in out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(reports) == 20 and all(r["params"]["trunc"] == 2 for r in reports)


# the options each subcommand reads; any other option is an argparse error.
# verify runs exact scalars only, so it takes no --mode
_SERIES_OPTIONS = {"--p", "--tol", "--max-terms"}
_POINT_OPTIONS = {"--fn", "--s", "--t", "--u", "--v", "--N", "--k", "--x", "--y", "--n"}
_READ_OPTIONS = {
    "eval": _SERIES_OPTIONS | {"--mode"} | _POINT_OPTIONS,
    "verify": _SERIES_OPTIONS | {"--suite", "--trunc", "--jobs", "--out"},
    "table": _SERIES_OPTIONS | {"--mode"} | _POINT_OPTIONS | {"--grid", "--format", "--out"},
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
    # a floating power past the float range is reported with exit status 2
    out = _cli("eval", "--mode", "float", "--p", "1/1000", "--fn", "weights",
               "--N", "200", "--n", "100")
    assert out.returncode == 2
    assert out.stderr.startswith("OutOfRange: q**") and "Traceback" not in out.stderr


def test_certified_residual_beyond_the_float_range_fails_by_report():
    # at p = 1/10**200 this exact certified residual is about 2**2658, past
    # the largest float: a failing OutOfRange report, not an OverflowError
    cfg = RunConfig(p=F(1, 10**200))
    check = "gevp[ks=(1, 1),j=2,s=1,t=0,v=0,xs=[1, 1],ys=[0, 1]]"
    [task] = [t for t in build_tasks("cor4.9", cfg) if t.check == check]
    report = run_task(task, "exact", cfg.tol())
    assert not report.passed and report.residual == "error"
    assert report.error.startswith("OutOfRange: ")
    assert report.error.endswith("leaves the floating-point range")


def test_run_task_runs_exact_scalars_only():
    # the mode argument stays for its callers; any other value is refused
    # before the task runs
    task = build_tasks("relations", RunConfig(p=F(1, 2)))[0]
    for mode in ("float", "complex", "certified"):
        with pytest.raises(ValueError, match=f"^verify runs exact scalars only, got mode '{mode}'$"):
            run_task(task, mode, verify.DEFAULT_TOL)
    assert run_task(task, "exact", verify.DEFAULT_TOL).residual == "0"


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


@pytest.mark.parametrize("fn, size", [("rr_inner", "N"), ("rr_closed", "N"),
                                      ("pr_inner", "k"), ("pr_closed", "k")])
def test_cli_table_reads_its_parameters_once(monkeypatch, capsys, fn, size):
    # a table parses --s, --t, --v and --N or --k once, not once per cell,
    # and each cell prints the value eval prints at that point
    read = []
    num = cli._num
    monkeypatch.setattr(cli, "_num", lambda args, name, *rest: read.append(name) or num(
        args, name, *rest))
    params = ["--p", "2/3", f"--{size}", "2", "--s", "1", "--t", "1", "--v", "0"]
    assert cli.main(["table", "--fn", fn, *params, "--grid", "x=0:2,y=0:2",
                     "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sorted(read) == sorted("stv" + ("k" if size == "k" else ""))
    assert len(rows) == 9
    for row in rows:
        x, y, value = row.split(",")
        assert cli.main(["eval", "--fn", fn, *params, "--x", x, "--y", y]) == 0
        assert capsys.readouterr().out.strip() == value, row


def test_cli_table_json(tmp_path):
    out = _cli("table", "--fn", "weights", "--p", "1/2", "--N", "2", "--s", "0",
               "--grid", "n=0:2,x=0:2", "--format", "json")
    assert out.returncode == 0
    rows = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert len(rows) == 9
    assert set(rows[0]) == {"n", "x", "w", "W_invbase"}


def test_cli_jobs_parallel_matches_serial():
    strip = lambda s: [
        json.dumps({k: v for k, v in json.loads(l).items() if k != "elapsed_ms"},
                   sort_keys=True)
        for l in s.strip().splitlines()
    ]
    # cor4.3 is certified: each worker builds its tasks' TailBound
    for suite in ("ev3.x", "cor4.3"):
        base = ("verify", "--suite", suite, "--p", "1/2")
        serial = _cli(*base)
        parallel = _cli(*base, "--jobs", "2")
        assert serial.returncode == parallel.returncode == 0
        assert strip(serial.stdout) == strip(parallel.stdout)


def test_cli_table_multivariate_grid():
    out = _cli("table", "--fn", "rr_multi", "--p", "1/2", "--N", "2,2",
               "--s", "1", "--t", "0", "--v", "0",
               "--grid", "x1=0:1,x2=0:1,y1=0:1,y2=0:1", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].strip() == "x1,x2,y1,y2,value"
    assert len(lines) == 1 + 16


_TEN_SITES = ("--N", "1,1,1,1,1,1,1,1,1,3", "--s", "0", "--t", "0", "--v", "0")


@pytest.mark.parametrize("fn, slot, other", [("heights", "y", None), ("rr_multi", "x", "y"),
                                             ("rr_multi", "y", "x")])
def test_cli_table_ten_slots_match_eval(fn, slot, other):
    # slot 10 is the tenth site, not the second
    point = [0] * 9 + [3]
    fixed = ("--" + other, ",".join(["0"] * 9 + ["1"])) if other else ()
    grid = ",".join(f"{slot}{i}={c}" for i, c in enumerate(point, 1))
    table = _cli("table", "--fn", fn, *_TEN_SITES, *fixed, "--grid", grid)
    value = _cli("eval", "--fn", fn, *_TEN_SITES, *fixed,
                 "--" + slot, ",".join(map(str, point)))
    assert table.returncode == value.returncode == 0, table.stderr + value.stderr
    row = json.loads(table.stdout)
    if fn == "heights":
        expected = dict(line.split("=") for line in value.stdout.split())
    else:
        expected = {"value": value.stdout.strip()}
    assert {k: v for k, v in row.items() if not k.startswith(slot)} == expected
