"""The operations of each benchmark workload, generated from a seed.

The seed does two things only: it permutes the order of operations and it
picks the stratified samples named below. It never invents parameter
points: every verify task comes from a suite builder, and every ``table``
or ``eval`` request is checked cell by cell with the public ``rr_valid`` /
``pr_valid``, because a single pole aborts a whole ``table`` grid.

Certified inputs stay at p <= 2/3: at larger p the exact rationals of the
certified sums grow until a check effectively hangs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from typing import List, Optional, Tuple

from qracah import multivar, orthopoly, qseries, ratfun, verify
from qracah.report import serialize_value
from qracah.scalar import QBase

TOL = verify.DEFAULT_TOL
P_HALF, P_TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)

FINITE_SUITES = ("lemma2.1", "relations", "star", "lemma3.1", "ev3.x", "prop3.3",
                 "prop3.4", "lemma3.5", "cor3.6", "prop3.7", "lemma3.8", "lemma3.9",
                 "cor3.10")
SU11_SUITES = ("ev4.x", "cor4.1", "lemma4.5", "lemma4.8")
CERTIFIED_SUITES = ("cor4.3", "prop4.4", "prop4.5", "cor4.9")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a verify task, or one ``cli.main`` request."""

    key: str
    task: Optional[verify.Task] = None
    argv: Tuple[str, ...] = ()
    # (x, y) cells the request prints, for the checks of rr_*/pr_* values
    cells: Tuple[Tuple[int, int], ...] = ()
    # a verify task the seed picked from a stratum, rather than a fixed one
    sampled: bool = False

    @property
    def block(self) -> str:
        """The suite and p of a verify task."""
        return f"{self.task.suite}|p={self.task.params['p']}"


def make_ops(workload: str, seed: int) -> List[Op]:
    """The operations of one pass, in the seed's order.

    Verify tasks move in blocks of one suite at one p, in the builder's
    order inside a block. Tasks in a block share cache entries, so a full
    shuffle would move the cold-cache cost between operations from seed to
    seed and with it the per-operation percentiles; the pass as a whole
    warms its caches as ``verify --suite all`` does. Requests move singly.
    """
    rng = random.Random(f"{workload}:{seed}")
    blocks = GENERATORS[workload](rng)
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


def _task_blocks(tasks, sample=()) -> List[List[Op]]:
    blocks = {}
    for t, sampled in [(t, True) for t in sample] + [(t, False) for t in tasks]:
        op = Op(f"{t.suite}|{t.check}|p={t.params['p']}", task=t, sampled=sampled)
        blocks.setdefault((t.suite, t.params["p"]), []).append(op)
    return list(blocks.values())


def _suite_tasks(suites, p=None):
    cfg = verify.RunConfig(p=p)
    return [t for sid in suites for t in verify.build_tasks(sid, cfg)]


def _one_per_stratum(tasks, stratum, rng):
    groups = {}
    for t in tasks:
        groups.setdefault(stratum(t), []).append(t)
    return [rng.choice(groups[key]) for key in sorted(groups)]


def finite_exact(rng):
    return _task_blocks(_suite_tasks(FINITE_SUITES))


# the worst prop4.6 check: its coproduct build alone takes seconds
PROP46_HEAVY = "nested_ev_L[ks=(1, 1),j=2,v=0,t=1,ys=[0, 0]]"


def _prop46_candidates():
    # prop4.6 strata are (ks, j, side). A j=1 check takes ~0.07 s: one
    # seeded point from each j=1 stratum. A j=2 check builds an 81x81 dense
    # coproduct and takes 6 to 8.5 s depending on the point, so a seeded
    # j=2 pick would make wall_s depend on the seed: the pass runs the one
    # fixed j=2 check instead.
    return [t for t in _suite_tasks(("prop4.6",)) if t.params["j"] == 1]


def _prop44_candidates():
    # at p=2/3 prop4.4's 36 checks take ~34 s. The sample takes one check
    # per (k, s, t, v, relation) stratum from the index pair {1, 2}: the two
    # orders of that pair cost the same to within 10 %, while the points of
    # one stratum range from 0.6 s to 3.9 s.
    return [t for t in _suite_tasks(("prop4.4",), P_TWO_THIRDS)
            if {t.params["i"], t.params["j"]} == {1, 2}]


# workload -> (every task its sample can pick, the stratum of a task)
SAMPLED = {
    "su11-operators": (_prop46_candidates, lambda t: (t.params["sizes"], t.params["side"])),
    "certified": (_prop44_candidates,
                  lambda t: tuple(t.params[k] for k in ("k", "s", "t", "v", "relation"))),
}


def _sample(workload, rng):
    candidates, stratum = SAMPLED[workload]
    return _one_per_stratum(candidates(), stratum, rng)


def su11_operators(rng):
    fixed = [t for t in _suite_tasks(("prop4.6",)) if t.check == PROP46_HEAVY]
    return _task_blocks(_suite_tasks(SU11_SUITES) + fixed, _sample("su11-operators", rng))


def certified(rng):
    # every certified suite at p=1/2; at p=2/3 all but prop4.4, which is
    # sampled
    tasks = _suite_tasks(CERTIFIED_SUITES)
    tasks += _suite_tasks(("cor4.3", "prop4.5", "cor4.9"), P_TWO_THIRDS)
    return _task_blocks(tasks, _sample("certified", rng))


# ---------------------------------------------------------------------------
# eval-sweep: table/eval requests through cli.main
# ---------------------------------------------------------------------------

P_TEXT = ("1/2", "2/3")
# the (s, t, v) grid the finite suites certify
STV = ((0, 0, 0), (1, 0, 0), (1, 2, 1), (2, 1, -1), (0, 1, -2))
# the (k, s, t, v) grid of cor4.3
KSTV = tuple((k, s, t, v) for k in (1, 2) for s, t, v in ((0, 0, -1), (1, 1, 0), (1, 2, 1)))
# the (s, t, v) points of cor4.9 on the chain ks=(1,1)
MULTI_STV = ((1, 0, 0), (0, 1, -1))
PR_MAX = 4


def _rr_ok(N, s, t, v, cells):
    rp = ratfun.RrParams(s, t, v, N, QBase(P_HALF))
    return all(ratfun.rr_valid(rp, x, y) for x, y in cells)


def _pr_ok(k, s, t, v, cells):
    pp = ratfun.PrParams(s, t, v, k, QBase(P_HALF))
    return all(ratfun.pr_valid(pp, x, y) for x, y in cells)


def _params(**kw):
    out = []
    for name, value in kw.items():
        out += [f"--{name}", str(value)]
    return out


def _rr_request(rng, fn, p, N, table, stv=None):
    while True:
        s, t, v = stv or rng.choice(STV)
        if table:
            y = rng.randint(0, N)
            cells = tuple((x, y) for x in range(N + 1))
            where = ["--grid", f"x=0:{N},y={y}", "--format", rng.choice(("csv", "json"))]
        else:
            cells = ((rng.randint(0, N), rng.randint(0, N)),)
            where = _params(x=cells[0][0], y=cells[0][1])
        if _rr_ok(N, s, t, v, cells):
            return _params(fn=fn, p=p, N=N, s=s, t=t, v=v) + where, cells


def _pr_request(rng, fn, p, k, table, stv=None):
    while True:
        s, t, v = stv or rng.choice([row[1:] for row in KSTV if row[0] == k])
        if table:
            y = rng.randint(0, PR_MAX)
            cells = tuple((x, y) for x in range(PR_MAX + 1))
            where = ["--grid", f"x=0:{PR_MAX},y={y}", "--format", rng.choice(("csv", "json"))]
        else:
            cells = ((rng.randint(0, PR_MAX), rng.randint(0, PR_MAX)),)
            where = _params(x=cells[0][0], y=cells[0][1])
        if _pr_ok(k, s, t, v, cells):
            return _params(fn=fn, p=p, k=k, s=s, t=t, v=v) + where, cells


def _multi_request(rng, fn, p, sizes):
    s, t, v = rng.choice(STV if fn == "rr_multi" else MULTI_STV)
    size_arg = {"N" if fn == "rr_multi" else "k": ",".join(map(str, sizes))}
    xs = ",".join(str(rng.randint(0, n)) for n in sizes)
    ys = ",".join(str(rng.randint(0, n)) for n in sizes)
    return _params(fn=fn, p=p, **size_arg, s=s, t=t, v=v, x=xs, y=ys), ()


def _weights_request(rng, p, N=None, k=None):
    # kraw_W and asc_W have no poles for real 0 < p < 1 and s >= 0
    if N is not None:
        args = _params(fn="weights", p=p, N=N, s=rng.choice(STV)[0], n=rng.randint(0, N))
        return args + ["--grid", f"x=0:{N}"], ()
    s = rng.choice([row[1] for row in KSTV if row[0] == k])
    args = _params(fn="weights", p=p, k=k, s=s, n=rng.randint(0, PR_MAX))
    return args + ["--grid", f"x=0:{PR_MAX}"], ()


def _coefficients_request(rng, p, N=None, k=None):
    # the grids of lemma3.8 (finite) and lemma4.8 (infinite), the suites
    # that check these coefficients; off them asc_dyn_coeffs can divide by 0
    v = rng.choice((0, 1))
    if N is not None:
        t = rng.choice((0, 1, 2))
        return _params(fn="coefficients", p=p, N=N, y=rng.randint(0, N), t=t, v=v), ()
    t = rng.choice((1, 2, 3))
    return _params(fn="coefficients", p=p, k=k, y=rng.randint(0, 3), t=t, v=v), ()


def _eval_strata():
    """(command, builder) for every request of a pass. The strata fix what
    sets a request's cost: the function, p, and N or k. The slowest
    requests, the rr_inner and pr_inner tables, make up the tail of the
    latency distribution, so they also fix (s, t, v) and cover its whole
    grid: a seeded (s, t, v) would move op_ms_p90 from seed to seed. The
    seed picks the rest."""
    for p in P_TEXT:
        for N in range(8, 13):
            yield "table", lambda rng, p=p, N=N: _rr_request(rng, "rr_closed", p, N, True)
        for N, stv in iproduct(range(10, 13), STV):
            yield "table", lambda rng, p=p, N=N, stv=stv: _rr_request(
                rng, "rr_inner", p, N, True, stv)
        # N below the tables' and two different s, so no two rr_inner
        # requests share cache entries whatever the seed picks
        for fn, N, stv in iproduct(("rr_closed", "rr_inner"), range(6, 10), STV[:3:2]):
            yield "eval", lambda rng, fn=fn, p=p, N=N, stv=stv: _rr_request(
                rng, fn, p, N, False, stv)
        for k, s, t, v in KSTV:
            yield "table", lambda rng, p=p, k=k, stv=(s, t, v): _pr_request(
                rng, "pr_inner", p, k, True, stv)
        for k, _ in iproduct((1, 2), range(2)):
            yield "table", lambda rng, p=p, k=k: _pr_request(rng, "pr_closed", p, k, True)
            for fn in ("pr_closed", "pr_inner"):
                yield "eval", lambda rng, fn=fn, p=p, k=k: _pr_request(rng, fn, p, k, False)
        for sizes in ((2, 2), (1, 1, 1)):
            yield "eval", lambda rng, p=p, sizes=sizes: _multi_request(rng, "rr_multi", p, sizes)
        for _ in range(2):
            yield "eval", lambda rng, p=p: _multi_request(rng, "pr_multi", p, (1, 1))
        for N in (4, 8, 12):
            yield "table", lambda rng, p=p, N=N: _weights_request(rng, p, N=N)
        for k in (1, 2):
            yield "table", lambda rng, p=p, k=k: _weights_request(rng, p, k=k)
        for N in range(1, 5):
            yield "eval", lambda rng, p=p, N=N: _coefficients_request(rng, p, N=N)
        for k in (1, 2):
            yield "eval", lambda rng, p=p, k=k: _coefficients_request(rng, p, k=k)


def eval_sweep(rng):
    blocks = []
    for cmd, build in _eval_strata():
        args, cells = build(rng)
        argv = (cmd, *args)
        # the index keeps keys unique if the seed draws a request twice
        key = f"{len(blocks):03d} {' '.join(argv)}"
        blocks.append([Op(key, argv=argv, cells=cells)])
    return blocks


GENERATORS = {
    "finite-exact": finite_exact,
    "su11-operators": su11_operators,
    "certified": certified,
    "eval-sweep": eval_sweep,
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def verdict_error(line: str) -> Optional[str]:
    """Why a report line is not a correct pass, or None if it is.

    An exact check passes only with the literal residual "0"; a certified
    check only with |residual| <= TOL.
    """
    rep = json.loads(line)
    if not rep["pass"] or rep.get("error"):
        return f"failed verdict: {rep.get('error') or rep['residual']}"
    if rep["backend"] == "exact":
        return None if rep["residual"] == "0" else f"exact residual {rep['residual']}"
    if rep["backend"] == "certified":
        if abs(float(rep["residual"])) <= TOL:
            return None
        return f"certified residual {rep['residual']} above {TOL}"
    return f"unexpected backend {rep['backend']}"


def request_error(op: Op, code: int, out: str, err: str) -> Optional[str]:
    """Why a cli request did not succeed, or None if it did."""
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:200]}"
    if not out:
        return "no output"
    if op.argv[0] == "table" and len(parse_table(op.argv, out)) != _grid_size(op.argv):
        return "wrong row count"
    return None


def _arg(argv, name):
    return argv[argv.index(f"--{name}") + 1]


def _grid_size(argv) -> int:
    size = 1
    for piece in _arg(argv, "grid").split(","):
        lo, _, hi = piece.partition("=")[2].partition(":")
        size *= int(hi or lo) - int(lo) + 1
    return size


def parse_table(argv, text: str) -> List[dict]:
    if "--format" in argv and _arg(argv, "format") == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return [json.loads(line) for line in text.splitlines() if line]


def cell_values(op: Op, out: str) -> dict:
    """(x, y) -> printed value for an rr_*/pr_* request."""
    if op.argv[0] == "eval":
        return {op.cells[0]: out.strip()}
    y = int(_arg(op.argv, "grid").split("y=")[1])
    return {(int(row["x"]), y): str(row["value"]) for row in parse_table(op.argv, out)}


def request_mismatches(op: Op, out: str) -> List[str]:
    """Every value a successful request printed, recomputed from the
    library: rr_*/pr_* cells by the other evaluation route, rr_multi by its
    tensor inner-product route, pr_multi, weights and coefficients by the
    function itself."""
    if op.cells:
        values = cell_values(op, out)
        return [problem for cell in sorted(values)
                if (problem := cell_mismatch(op, values[cell], cell))]
    printed, expected = _printed_rows(op, out), _library_rows(op)
    if printed == expected:
        return []
    fn = _arg(op.argv, "fn")
    return [f"{fn} printed {str(printed)[:300]}, the library gives {str(expected)[:300]}"]


def cell_mismatch(op: Op, value: str, cell) -> Optional[str]:
    """Compare a printed rr_*/pr_* value with the other evaluation route."""
    fn = _arg(op.argv, "fn")
    qb = QBase(Fraction(_arg(op.argv, "p")))
    s, t, v = (Fraction(_arg(op.argv, name)) for name in ("s", "t", "v"))
    x, y = cell
    if fn.startswith("rr_"):
        rp = ratfun.RrParams(s, t, v, int(_arg(op.argv, "N")), qb)
        other = ratfun.rr_inner if fn == "rr_closed" else ratfun.rr_closed
        expected = _render(other(rp, x, y))
        return None if value == expected else f"{fn}{cell} = {value}, other route {expected}"
    pp = ratfun.PrParams(s, t, v, Fraction(_arg(op.argv, "k")), qb, CLI_TB)
    inner = ratfun.pr_inner(pp, x, y)
    closed = ratfun.pr_closed(pp, x, y)
    if abs(closed - inner) / (1 + abs(inner)) > TOL:
        return f"pr_closed{cell} - pr_inner{cell} above {TOL}"
    if value != _render(closed if fn == "pr_closed" else inner):
        return f"{fn}{cell} printed {value}, the library gives another value"
    return None


# the tail bound ``qracah eval``/``table`` use when no --tol is given
CLI_TB = qseries.TailBound(tolerance=1e-12, max_terms=20000)


def _render(value) -> str:
    return str(serialize_value(value))


def _printed_rows(op: Op, out: str) -> List[dict]:
    if op.argv[0] == "table":
        axes = {piece.partition("=")[0] for piece in _arg(op.argv, "grid").split(",")}
        return [{k: str(v) for k, v in row.items() if k not in axes}
                for row in parse_table(op.argv, out)]
    if _arg(op.argv, "fn") in ("rr_multi", "pr_multi"):
        return [{"value": out.strip()}]
    return [dict(line.split("=", 1) for line in out.splitlines())]


def _library_rows(op: Op) -> List[dict]:
    argv = op.argv
    fn = _arg(argv, "fn")
    qb = QBase(Fraction(_arg(argv, "p")))

    def num(name):
        return Fraction(_arg(argv, name))

    def ints(name):
        return tuple(int(part) for part in _arg(argv, name).split(","))

    if fn == "rr_multi":
        value = multivar.rr_multi_inner(qb, num("s"), num("t"), num("v"), ints("N"),
                                        ints("x"), ints("y"))
        return [{"value": _render(value)}]
    if fn == "pr_multi":
        value = multivar.pr_multi(qb, num("s"), num("t"), num("v"), ints("k"),
                                  ints("x"), ints("y"), CLI_TB)
        return [{"value": _render(value)}]
    finite = "--N" in argv
    if fn == "weights":
        n, xs = int(_arg(argv, "n")), range(_grid_size(argv))
        if finite:
            N = int(_arg(argv, "N"))
            rows = [{"w": orthopoly.kraw_w(qb, N, n),
                     "W_invbase": orthopoly.kraw_W(qb, num("s"), N, x)} for x in xs]
        else:
            rows = [{"w_k": orthopoly.asc_w(qb, num("k"), n),
                     "W_k": orthopoly.asc_W(qb, num("s"), num("k"), x, CLI_TB)} for x in xs]
        return [{k: _render(v) for k, v in row.items()} for row in rows]
    # coefficients, in the order ``qracah eval`` prints them
    y, t, v = int(_arg(argv, "y")), num("t"), num("v")
    if finite:
        N = int(_arg(argv, "N"))
        groups = (("a_m1", "a_0", "a_1"), orthopoly.kraw_diff_coeffs(qb, N, y, t)), \
                 (("b_m1", "b_0", "b_1"), orthopoly.kraw_b_coeffs(qb, N, y, t, v)), \
                 (("a_m2_p2", "a_m1_p2", "a_0_p2"), orthopoly.kraw_dyn_coeffs(qb, N, y, t, 2)), \
                 (("a_0_m2", "a_1_m2", "a_2_m2"), orthopoly.kraw_dyn_coeffs(qb, N, y, t, -2))
    else:
        k = num("k")
        groups = (("c_m1", "c_0", "c_1"), orthopoly.asc_diff_coeffs(qb, k, y, t)), \
                 (("d_m1", "d_0", "d_1"), orthopoly.asc_d_coeffs(qb, k, y, t, v)), \
                 (("c_m2_p2", "c_m1_p2", "c_0_p2"), orthopoly.asc_dyn_coeffs(qb, k, y, t, 2)), \
                 (("c_0_m2", "c_1_m2", "c_2_m2"), orthopoly.asc_dyn_coeffs(qb, k, y, t, -2))
    return [{name: _render(value) for names, values in groups
             for name, value in zip(names, values)}]


# ---------------------------------------------------------------------------
# the committed reports of the verify workloads
# ---------------------------------------------------------------------------

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_reports.json"


def expected_record(items) -> dict:
    """What ``expected_reports.json`` holds for one workload, from (op,
    canonical report) pairs: the digest of each (suite, p) block of fixed
    tasks, and the sha256 of each sampled task's report."""
    blocks, sampled = {}, {}
    for op, text in items:
        if op.sampled:
            sampled[op.key] = hashlib.sha256(text.encode()).hexdigest()
        else:
            blocks.setdefault(op.block, []).append((op.key, text))
    return {"blocks": {block: stream_digest(pairs) for block, pairs in sorted(blocks.items())},
            "sampled": dict(sorted(sampled.items()))}


EXPECTED_WORKLOADS = ("finite-exact", "su11-operators", "certified")


def report_mismatches(workload: str, ops, items) -> List[Tuple[str, str]]:
    """(block or task, problem) for each block of ``ops`` and each sampled
    task whose reports differ from the committed ones. ``items`` are the
    (op, canonical report) pairs of the operations that finished; a block
    with a failed operation differs too."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    got = expected_record(items)
    problems = [(block, "reports differ from the committed ones")
                for block in sorted({op.block for op in ops if not op.sampled})
                if got["blocks"].get(block) != expected["blocks"].get(block)]
    problems += [(key, "report differs from the committed one")
                 for key, digest in got["sampled"].items()
                 if expected["sampled"].get(key) != digest]
    return problems


def stream_digest(items) -> str:
    """sha256 of (key, output) pairs in key order, so the seed's permutation
    does not change it. Report lines come through ``canonical_report``."""
    h = hashlib.sha256()
    for key, text in sorted(items):
        h.update(key.encode())
        h.update(b"\0")
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def canonical_report(line: str) -> str:
    rep = json.loads(line)
    rep.pop("elapsed_ms", None)
    return json.dumps(rep, sort_keys=True, separators=(",", ":"))
