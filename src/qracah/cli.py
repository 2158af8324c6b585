"""Command-line front end: evaluate functions, run verification suites,
emit value tables.

    qracah eval   --fn rr_closed --p 1/2 --N 2 --s 1 --t 0 --v 0 --x 1 --y 2
    qracah verify --suite lemma2.1 [--out report.jsonl] [--jobs 4]
    qracah table  --fn rr_closed --p 1/2 --N 2 --s 1 --t 0 --v 0 \
                  --grid x=0:2,y=0:2 --format csv --out table.csv

Exact mode prints rationals as num/den.  Verification reports stream as one
JSON object per line; the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import product as iproduct

from . import multivar, orthopoly, qseries, ratfun
from .errors import OutOfRange, QRacahError
from .report import serialize_value
from .scalar import QBase, as_exponent
from .tables import tabled
from .verify import SUITE_IDS, RunConfig, run_suite


def _parse_number(text: str, mode: str):
    if mode == "complex":
        with contextlib.suppress(ValueError):
            z = complex(text)
            # a non-finite part falls through, to be refused as in float mode
            if cmath.isfinite(z):
                return z
    try:
        fr = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number {text!r}") from exc
    if mode == "exact":
        return fr
    try:
        return float(fr)
    except OverflowError:
        raise ValueError(f"number {text!r} is beyond the floating-point range") from None


def _parse_int(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option} must be an integer, got {text!r}") from None


def _parse_int_list(text: str, option: str):
    return tuple(_parse_int(part, option) for part in text.split(","))


def _parse_grid(text: str):
    """'x=0:2,y=0:3' -> ordered [(var, [0,1,2]), (var, [0,1,2,3])]."""
    axes = []
    for piece in text.split(","):
        var, _, rng = piece.partition("=")
        var = var.strip()
        if any(var == name for name, _ in axes):
            raise ValueError(f"grid axis {var!r} is repeated")
        lo, _, hi = rng.partition(":")
        if not hi:
            hi = lo
        values = list(range(_parse_int(lo, "--grid bound"), _parse_int(hi, "--grid bound") + 1))
        if not values:
            raise ValueError(f"grid range {piece!r} is empty")
        axes.append((var, values))
    return axes


class _Point(dict):
    """One grid point that records which coordinates a function read."""

    def __init__(self, coords):
        super().__init__(coords)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def _require_axes_read(names, point, fn):
    # the vector slots x1, x2, ... and y1, ... are read through xs and ys
    read = point.read
    for vec in ("x", "y"):
        if vec + "s" in read:
            read.update(name for name in names if name.startswith(vec) and name != vec)
    for name in names:
        if name not in read:
            raise ValueError(f"grid axis {name!r} is not read by --fn {fn}")


@tabled
def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads, spelled out in full:
    # an abbreviation would read verify's --s as --suite.  Built once per
    # process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(prog="qracah", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    ev, ver, tab = (sub.add_parser(name, allow_abbrev=False)
                    for name in ("eval", "verify", "table"))
    for sp in (ev, ver, tab):
        sp.add_argument("--p", default=None, help="base parameter p with q = p**2, e.g. 1/2")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-terms", type=int, default=None)
    # a verdict runs exact scalars only: the floating backends serve values
    for sp in (ev, tab):
        sp.add_argument("--mode", choices=("exact", "float", "complex"), default="exact")
        sp.add_argument("--fn", required=True, choices=sorted(FUNCTIONS))
        for name in ("s", "t", "u", "v"):
            sp.add_argument(f"--{name}", default=None)
        sp.add_argument("--N", default=None, help="chain sizes, e.g. 3 or 2,2")
        sp.add_argument("--k", default=None, help="weight parameters, e.g. 1 or 1,1")
        for name in ("x", "y", "n"):
            sp.add_argument(f"--{name}", default=None)
    ver.add_argument("--suite", required=True, choices=sorted(SUITE_IDS))
    ver.add_argument("--trunc", type=int, default=None)
    ver.add_argument("--jobs", type=int, default=1)
    tab.add_argument("--grid", required=True,
                     help="inclusive ranges per variable, e.g. x=0:2,y=0:2")
    tab.add_argument("--format", choices=("json", "csv"), default="json")
    for sp in (ver, tab):
        sp.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# evaluable function registry
# ---------------------------------------------------------------------------


def _num(args, name, mode, default=None):
    raw = getattr(args, name)
    if raw is None:
        if default is None:
            raise QRacahError(f"--{name} is required for this function")
        return default
    return _parse_number(raw, mode)


def _int(args, name, default=None):
    raw = getattr(args, name)
    if raw is None:
        if default is None:
            raise QRacahError(f"--{name} is required for this function")
        return default
    return _parse_int(raw, f"--{name}")


def _ints(args, name):
    raw = getattr(args, name)
    if raw is None:
        raise QRacahError(f"--{name} is required for this function")
    return _parse_int_list(str(raw), f"--{name}")


def _nums(args, name, mode):
    # the parts of a list option in the --mode backend; an integral part is
    # an int in every backend, as the suites pass sizes, so an integer weight
    # keys the suites' table entries and prints without a fraction or a dot
    raw = getattr(args, name)
    if raw is None:
        raise QRacahError(f"--{name} is required for this function")
    parts = (_parse_number(part, mode) for part in str(raw).split(","))
    return tuple(int(x.real) if x == int(x.real) else x for x in parts)


def _tb(args) -> qseries.TailBound:
    tol = min(args.tol, 1e-10) if args.tol is not None else 1e-12
    max_terms = args.max_terms if args.max_terms is not None else qseries.DEFAULT_MAX_TERMS
    return qseries.TailBound(tol, max_terms)


def _coord(point, args, name):
    if name in point:
        return point[name]
    return _int(args, name)


def _vcoord(point, args, vec_name, arg_name):
    if vec_name in point:
        return point[vec_name]
    return _ints(args, arg_name)


def fn_kraw(args, qb, point):
    kp = orthopoly.KrawParams(
        _num(args, "u", qb.mode, Fraction(0)), _num(args, "s", qb.mode), _int(args, "N"), qb)
    return orthopoly.kraw(kp, _coord(point, args, "n"), _coord(point, args, "x"))


def fn_asc(args, qb, point):
    ap = orthopoly.ASCParams(
        _num(args, "u", qb.mode, Fraction(0)), _num(args, "s", qb.mode),
        _num(args, "k", qb.mode), qb)
    return orthopoly.asc(ap, _coord(point, args, "n"), _coord(point, args, "x"))


def _rr_params(args, qb):
    # integral parameters as ints, as the suites pass them: the rr_inner and
    # rr_closed table keys of a table's cells then hash no Fraction
    s, t, v = (as_exponent(_num(args, name, qb.mode)) for name in "stv")
    return ratfun.RrParams(s, t, v, _int(args, "N"), qb)


def _pr_params(args, qb):
    # integral parameters as ints, as _rr_params passes them
    s, t, v, k = (as_exponent(_num(args, name, qb.mode)) for name in "stvk")
    return ratfun.PrParams(s, t, v, k, qb, _tb(args))


def _fn_xy(evaluate, params):
    """The evaluator of a univariate rational function ``evaluate(params, x,
    y)``.  Its ``bind(args, qb)`` reads the parameter options once and
    returns the evaluator of one point, which a table calls per cell."""
    def bind(args, qb):
        pack = params(args, qb)
        return lambda point: evaluate(pack, _coord(point, args, "x"), _coord(point, args, "y"))

    def fn(args, qb, point):
        return bind(args, qb)(point)

    fn.bind = bind
    return fn


def fn_rr_multi(args, qb, point):
    Ns = _ints(args, "N")
    xs = _vcoord(point, args, "xs", "x")
    ys = _vcoord(point, args, "ys", "y")
    return multivar.rr_multi(qb, _num(args, "s", qb.mode), _num(args, "t", qb.mode),
                             _num(args, "v", qb.mode), Ns, xs, ys)


def fn_pr_multi(args, qb, point):
    ks = _nums(args, "k", qb.mode)
    xs = _vcoord(point, args, "xs", "x")
    ys = _vcoord(point, args, "ys", "y")
    return multivar.pr_multi(qb, _num(args, "s", qb.mode), _num(args, "t", qb.mode),
                             _num(args, "v", qb.mode), ks, xs, ys, _tb(args))


def fn_weights(args, qb, point):
    out = {}
    if getattr(args, "N", None) is not None:
        N = _int(args, "N")
        if args.n is not None or "n" in point:
            n = _coord(point, args, "n")
            out["w"] = orthopoly.kraw_w(qb, N, n)
        if args.x is not None or "x" in point:
            x = _coord(point, args, "x")
            out["W_invbase"] = orthopoly.kraw_W(qb, _num(args, "s", qb.mode), N, x)
    elif getattr(args, "k", None) is not None:
        k = _num(args, "k", qb.mode)
        s = _num(args, "s", qb.mode, Fraction(0))
        if args.n is not None or "n" in point:
            n = _coord(point, args, "n")
            out["w_k"] = orthopoly.asc_w(qb, k, n)
        if args.x is not None or "x" in point:
            x = _coord(point, args, "x")
            out["W_k"] = orthopoly.asc_W(qb, s, k, x, _tb(args))
    if not out:
        raise QRacahError("weights needs --N or --k plus --n and/or --x")
    return out


# per family: its size option and reader, the letters of its difference and
# twisted-difference coefficients, and their tables
_COEFFICIENT_FAMILIES = (
    ("N", lambda args, qb: _int(args, "N"), "a", "b", orthopoly.kraw_diff_coeffs,
     orthopoly.kraw_b_coeffs, orthopoly.kraw_dyn_coeffs),
    ("k", lambda args, qb: _num(args, "k", qb.mode), "c", "d", orthopoly.asc_diff_coeffs,
     orthopoly.asc_d_coeffs, orthopoly.asc_dyn_coeffs),
)


def fn_coefficients(args, qb, point):
    y = _coord(point, args, "y")
    t = _num(args, "t", qb.mode)
    for option, read_size, a, b, diff, twisted, dyn in _COEFFICIENT_FAMILIES:
        if getattr(args, option, None) is not None:
            break
    else:
        raise QRacahError("coefficients needs --N (finite) or --k (infinite)")
    size = read_size(args, qb)
    out = dict(zip((f"{a}_m1", f"{a}_0", f"{a}_1"), diff(qb, size, y, t)))
    if args.v is not None:
        v = _num(args, "v", qb.mode)
        out.update(zip((f"{b}_m1", f"{b}_0", f"{b}_1"), twisted(qb, size, y, t, v)))
    for direction, names in ((2, ("m2_p2", "m1_p2", "0_p2")), (-2, ("0_m2", "1_m2", "2_m2"))):
        out.update(zip((f"{a}_{name}" for name in names), dyn(qb, size, y, t, direction)))
    return out


def fn_heights(args, qb, point):
    # running height parameters along a chain; table over y1..yM grids
    su11 = getattr(args, "k", None) is not None
    sizes = _nums(args, "k", qb.mode) if su11 else _ints(args, "N")
    base = _num(args, "t", qb.mode, Fraction(0))
    ys = _vcoord(point, args, "ys", "y")
    hs = multivar.heights(base, ys, sizes, su11=su11)
    return {f"h_{j}": h for j, h in enumerate(hs)}


FUNCTIONS = {
    "kraw": fn_kraw,
    "heights": fn_heights,
    "asc": fn_asc,
    "rr_inner": _fn_xy(ratfun.rr_inner, _rr_params),
    "rr_closed": _fn_xy(ratfun.rr_closed, _rr_params),
    "pr_inner": _fn_xy(ratfun.pr_inner, _pr_params),
    "pr_closed": _fn_xy(ratfun.pr_closed, _pr_params),
    "rr_multi": fn_rr_multi,
    "pr_multi": fn_pr_multi,
    "weights": fn_weights,
    "coefficients": fn_coefficients,
}


def _format_scalar(value) -> str:
    # the one place values are printed: a floating value that left the
    # float range is refused, never printed as nan or inf
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise OutOfRange(f"the floating value {value!r} is not finite")
    return str(serialize_value(value))


def _qbase(args) -> QBase:
    # the shared --tol and --max-terms, refused before any evaluation, then
    # the base of --p (1/2 by default) in the backend of --mode
    RunConfig(tolerance=args.tol, max_terms=args.max_terms)
    return QBase(_parse_number(args.p or "1/2", "exact" if args.mode == "exact" else "float"),
                 args.mode)


def _output(path, **kwargs):
    # --out opened before any work, so an unwritable path costs nothing;
    # standard output otherwise, left open
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


def cmd_eval(args) -> int:
    qb = _qbase(args)
    value = FUNCTIONS[args.fn](args, qb, {})
    # every value is formatted before any is printed
    if isinstance(value, dict):
        lines = [f"{key}={_format_scalar(v)}" for key, v in value.items()]
    else:
        lines = [_format_scalar(value)]
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    p = _parse_number(args.p, "exact") if args.p else None
    cfg = RunConfig(p, args.tol, args.trunc, args.jobs, args.max_terms)
    counts = {"pass": 0, "fail": 0}
    # closed on the way out, so a pool stops with the command
    with _output(args.out) as out, contextlib.closing(run_suite(args.suite, cfg)) as reports:
        for report in reports:
            counts["pass" if report.passed else "fail"] += 1
            print(report.to_json(), file=out)
    total = counts["pass"] + counts["fail"]
    print(
        f"suite {args.suite}: {counts['pass']}/{total} checks passed"
        + (f", {counts['fail']} FAILED" if counts["fail"] else ""),
        file=sys.stderr,
    )
    return 0 if counts["fail"] == 0 else 1


def cmd_table(args) -> int:
    qb = _qbase(args)
    axes = _parse_grid(args.grid)
    with _output(args.out, newline="") as out:
        out.write(_table_text(args, qb, axes))
    return 0


def _slots(names, vec):
    # multivariate grids address vector slots as x1, x2, ..., y1, ...: their
    # names in index order, refused unless they are exactly vec1..vecM
    found = [name for name in names if name.startswith(vec) and name != vec]
    slots = [f"{vec}{i}" for i in range(1, len(found) + 1)]
    if set(found) != set(slots):
        raise ValueError(f"grid vector slots must be {vec}1..{vec}{len(slots)}, "
                         f"got {', '.join(found)}")
    return slots


def _table_text(args, qb, axes) -> str:
    names = [name for name, _ in axes]
    xslots, yslots = _slots(names, "x"), _slots(names, "y")
    # a function with ``bind`` reads its options once for the whole table
    fn = FUNCTIONS[args.fn]
    bind = getattr(fn, "bind", None)
    cell = bind(args, qb) if bind else functools.partial(fn, args, qb)
    header = None
    rows = []
    for combo in iproduct(*[values for _, values in axes]):
        coords = dict(zip(names, combo))
        if xslots:
            coords["xs"] = tuple(coords[k] for k in xslots)
        if yslots:
            coords["ys"] = tuple(coords[k] for k in yslots)
        point = _Point(coords)
        value = cell(point)
        cells = value if isinstance(value, dict) else {"value": value}
        if header is None:
            # every cell calls the same function, so the first shows what it reads
            _require_axes_read(names, point, args.fn)
            header = names + list(cells)
        rows.append([*combo, *(_format_scalar(v) for v in cells.values())])
    return _render_table(header, rows, args.format, args.fn)


def _render_table(header, rows, fmt: str, fn: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)  # RFC 4180 dialect: CRLF line endings
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    lines = [
        json.dumps(dict(zip(header, row)), separators=(",", ":"))
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes only -1 and -0.5 for negative numbers: "--v -1/2" or
    # "--v -1+1j" goes in as "--v=-1/2"
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = {"eval": cmd_eval, "verify": cmd_verify, "table": cmd_table}[args.command]
    try:
        status = command(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed early: stop writing.  The interpreter flushes
        # standard output again at exit, so it goes to devnull from here
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except QRacahError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
