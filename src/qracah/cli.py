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
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import product as iproduct

from . import multivar, orthopoly, qseries, ratfun
from .errors import QRacahError
from .report import serialize_value
from .scalar import QBase
from .verify import SUITE_IDS, RunConfig, run_suite


def _parse_number(text: str, mode: str):
    if mode == "complex":
        try:
            return complex(text)
        except ValueError:
            pass
    try:
        fr = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number {text!r}") from exc
    if mode == "exact":
        return fr
    return float(fr)


def _parse_int_list(text: str):
    return tuple(int(part) for part in text.split(","))


def _parse_grid(text: str):
    """'x=0:2,y=0:3' -> ordered [(var, [0,1,2]), (var, [0,1,2,3])]."""
    axes = []
    for piece in text.split(","):
        var, _, rng = piece.partition("=")
        lo, _, hi = rng.partition(":")
        if not hi:
            hi = lo
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"grid range {piece!r} is empty")
        axes.append((var.strip(), values))
    return axes


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads, spelled out in full:
    # an abbreviation would read verify's --s as --suite
    parser = argparse.ArgumentParser(prog="qracah", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    ev, ver, tab = (sub.add_parser(name, allow_abbrev=False)
                    for name in ("eval", "verify", "table"))
    for sp in (ev, ver, tab):
        sp.add_argument("--mode", choices=("exact", "float", "complex"), default="exact")
        sp.add_argument("--p", default=None, help="base parameter p with q = p**2, e.g. 1/2")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-terms", type=int, default=None)
    for sp in (ev, tab):
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
    return int(raw)


def _ints(args, name):
    raw = getattr(args, name)
    if raw is None:
        raise QRacahError(f"--{name} is required for this function")
    return _parse_int_list(str(raw))


def _tb(args) -> qseries.TailBound:
    return qseries.TailBound(
        tolerance=min(args.tol, 1e-10) if args.tol is not None else 1e-12,
        max_terms=args.max_terms if args.max_terms is not None else qseries.DEFAULT_MAX_TERMS,
    )


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
        _num(args, "k", qb.mode), qb, _tb(args))
    return orthopoly.asc(ap, _coord(point, args, "n"), _coord(point, args, "x"))


def _rr_params(args, qb):
    return ratfun.RrParams(
        _num(args, "s", qb.mode), _num(args, "t", qb.mode), _num(args, "v", qb.mode),
        _int(args, "N"), qb)


def _pr_params(args, qb):
    return ratfun.PrParams(
        _num(args, "s", qb.mode), _num(args, "t", qb.mode), _num(args, "v", qb.mode),
        _num(args, "k", qb.mode), qb, _tb(args))


def fn_rr_inner(args, qb, point):
    return ratfun.rr_inner(_rr_params(args, qb),
                           _coord(point, args, "x"), _coord(point, args, "y"))


def fn_rr_closed(args, qb, point):
    return ratfun.rr_closed(_rr_params(args, qb),
                            _coord(point, args, "x"), _coord(point, args, "y"))


def fn_pr_inner(args, qb, point):
    return ratfun.pr_inner(_pr_params(args, qb),
                           _coord(point, args, "x"), _coord(point, args, "y"))


def fn_pr_closed(args, qb, point):
    return ratfun.pr_closed(_pr_params(args, qb),
                            _coord(point, args, "x"), _coord(point, args, "y"))


def fn_rr_multi(args, qb, point):
    Ns = _ints(args, "N")
    xs = _vcoord(point, args, "xs", "x")
    ys = _vcoord(point, args, "ys", "y")
    return multivar.rr_multi(qb, _num(args, "s", qb.mode), _num(args, "t", qb.mode),
                             _num(args, "v", qb.mode), Ns, xs, ys)


def fn_pr_multi(args, qb, point):
    ks = _ints(args, "k")
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


def fn_coefficients(args, qb, point):
    y = _coord(point, args, "y")
    t = _num(args, "t", qb.mode)
    out = {}
    if getattr(args, "N", None) is not None:
        N = _int(args, "N")
        am1, a0, a1 = orthopoly.kraw_diff_coeffs(qb, N, y, t)
        out.update({"a_m1": am1, "a_0": a0, "a_1": a1})
        if args.v is not None:
            v = _num(args, "v", qb.mode)
            bm1, b0, b1 = orthopoly.kraw_b_coeffs(qb, N, y, t, v)
            out.update({"b_m1": bm1, "b_0": b0, "b_1": b1})
        for direction, names in ((2, ("a_m2_p2", "a_m1_p2", "a_0_p2")),
                                 (-2, ("a_0_m2", "a_1_m2", "a_2_m2"))):
            for name, val in zip(names, orthopoly.kraw_dyn_coeffs(qb, N, y, t, direction)):
                out[name] = val
    elif getattr(args, "k", None) is not None:
        k = _num(args, "k", qb.mode)
        cm1, c0, c1 = orthopoly.asc_diff_coeffs(qb, k, y, t)
        out.update({"c_m1": cm1, "c_0": c0, "c_1": c1})
        if args.v is not None:
            v = _num(args, "v", qb.mode)
            dm1, d0, d1 = orthopoly.asc_d_coeffs(qb, k, y, t, v)
            out.update({"d_m1": dm1, "d_0": d0, "d_1": d1})
        for direction, names in ((2, ("c_m2_p2", "c_m1_p2", "c_0_p2")),
                                 (-2, ("c_0_m2", "c_1_m2", "c_2_m2"))):
            for name, val in zip(names, orthopoly.asc_dyn_coeffs(qb, k, y, t, direction)):
                out[name] = val
    else:
        raise QRacahError("coefficients needs --N (finite) or --k (infinite)")
    return out


def fn_heights(args, qb, point):
    # running height parameters along a chain; table over y1..yM grids
    su11 = getattr(args, "k", None) is not None
    sizes = _ints(args, "k") if su11 else _ints(args, "N")
    base = _num(args, "t", qb.mode, Fraction(0))
    ys = _vcoord(point, args, "ys", "y")
    hs = multivar.heights(base, ys, sizes, su11=su11)
    return {f"h_{j}": h for j, h in enumerate(hs)}


FUNCTIONS = {
    "kraw": fn_kraw,
    "heights": fn_heights,
    "asc": fn_asc,
    "rr_inner": fn_rr_inner,
    "rr_closed": fn_rr_closed,
    "pr_inner": fn_pr_inner,
    "pr_closed": fn_pr_closed,
    "rr_multi": fn_rr_multi,
    "pr_multi": fn_pr_multi,
    "weights": fn_weights,
    "coefficients": fn_coefficients,
}


def _format_scalar(value) -> str:
    return str(serialize_value(value))


def cmd_eval(args) -> int:
    raw_p = args.p or "1/2"
    qb = QBase(_parse_number(raw_p, "exact" if args.mode == "exact" else "float"), args.mode)
    value = FUNCTIONS[args.fn](args, qb, {})
    if isinstance(value, dict):
        for key in value:
            print(f"{key}={_format_scalar(value[key])}")
    else:
        print(_format_scalar(value))
    return 0


def cmd_verify(args) -> int:
    cfg = RunConfig(
        mode=args.mode,
        p=_parse_number(args.p, "exact") if args.p else None,
        tolerance=args.tol,
        trunc=args.trunc,
        jobs=args.jobs,
        max_terms=args.max_terms,
    )
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    counts = {"pass": 0, "fail": 0}
    try:
        for report in run_suite(args.suite, cfg):
            counts["pass" if report.passed else "fail"] += 1
            print(report.to_json(), file=out)
    finally:
        if args.out:
            out.close()
    total = counts["pass"] + counts["fail"]
    print(
        f"suite {args.suite}: {counts['pass']}/{total} checks passed"
        + (f", {counts['fail']} FAILED" if counts["fail"] else ""),
        file=sys.stderr,
    )
    return 0 if counts["fail"] == 0 else 1


def cmd_table(args) -> int:
    raw_p = args.p or "1/2"
    qb = QBase(_parse_number(raw_p, "exact" if args.mode == "exact" else "float"), args.mode)
    axes = _parse_grid(args.grid)
    names = [name for name, _ in axes]
    header = None
    rows = []
    for combo in iproduct(*[values for _, values in axes]):
        point = dict(zip(names, combo))
        # multivariate grids address vector slots as x1, x2, ..., y1, ...
        xs = tuple(point[k] for k in sorted(point) if k.startswith("x") and k != "x")
        ys = tuple(point[k] for k in sorted(point) if k.startswith("y") and k != "y")
        if xs:
            point["xs"] = xs
        if ys:
            point["ys"] = ys
        value = FUNCTIONS[args.fn](args, qb, point)
        if isinstance(value, dict):
            if header is None:
                header = names + list(value)
            rows.append([*combo, *(_format_scalar(v) for v in value.values())])
        else:
            if header is None:
                header = names + ["value"]
            rows.append([*combo, _format_scalar(value)])
    text = _render_table(header, rows, args.format, args.fn)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_table(args)
    except QRacahError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
