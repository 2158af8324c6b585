"""Named verification suites over deterministic parameter grids.

Each suite expands to a list of :class:`Task` records (one identity at one
parameter point).  A suite is a generator registered with ``@suite(id)``:
given the run configuration and one p, it yields ``(fn, check, params)``
for each point of its grid, as plain nested loops.  ``build_tasks`` is the
one expander: it runs the generator for every p of the run (only the
first for suites registered ``first_p``), appends the tail-bound fields
``tb_tol``/``tb_max_terms`` to the params of certified suites, then the
point's ``p``.  Tasks carry a contract:

* ``exact``     -- the residual must be identically zero when run in the
  exact backend (the default); under a floating backend the tolerance
  applies instead;
* ``certified`` -- the check involves certified truncation of infinite
  sums/products, always runs its scalars in the exact backend, and passes
  when the residual is within tolerance.

Task execution is a pure function of the task, so suites can run in a
process pool; results stream in deterministic task order either way.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator, List, Optional

from . import multivar, orthopoly, qseries, ratfun, uqsl2
from .errors import QRacahError
from .report import CheckReport, residual_string
from .scalar import QBase, as_exponent, ordered_sum
from .tables import tabled

DEFAULT_PS = (Fraction(1, 2), Fraction(2, 3))  # q = 1/4 and 4/9
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Task:
    suite: str
    check: str
    fn: str
    params: dict
    contract: str = "exact"  # "exact" | "certified"


@dataclass
class RunConfig:
    """Options shared by the front-end commands."""

    mode: str = "exact"
    p: Optional[Fraction] = None
    tolerance: Optional[float] = None
    trunc: Optional[int] = None
    jobs: int = 1
    max_terms: Optional[int] = None

    def __post_init__(self):
        # a window of fewer than 2 levels has no interior row to check
        if self.trunc is not None and self.trunc < 2:
            raise ValueError("trunc must be at least 2")

    def ps(self):
        return (self.p,) if self.p is not None else DEFAULT_PS

    def tol(self) -> float:
        return self.tolerance if self.tolerance is not None else DEFAULT_TOL

    def tail(self) -> qseries.TailBound:
        tol = min(self.tol() * 1e-3, 1e-12)
        max_terms = self.max_terms if self.max_terms is not None else qseries.DEFAULT_MAX_TERMS
        return qseries.TailBound(tolerance=tol, max_terms=max_terms)


# ---------------------------------------------------------------------------
# check functions (all top-level so tasks can cross process boundaries)
# ---------------------------------------------------------------------------


@tabled
def _base(p, mode):
    return QBase(p, mode)


def _qb(params, mode):
    # one shared base per (p, mode): a table lookup whose key holds the base
    # then matches it by identity, without QBase.__eq__
    return _base(params["p"], mode)


def _tb(params):
    return qseries.TailBound(
        tolerance=params.get("tb_tol", 1e-12),
        max_terms=params.get("tb_max_terms", qseries.DEFAULT_MAX_TERMS),
    )


def chk_summation(mode, params):
    qb = _qb(params, mode)
    lhs, rhs = qseries.summation_pair_qracah(
        qb, params["N"], params["s"], params["t"], params["v"], params["x"], params["y"]
    )
    return lhs - rhs


def chk_relations(mode, params):
    rs = _repspec(params, mode)
    res = uqsl2.relation_residuals(rs)
    rows = rs.interior(1)
    return ordered_sum(m.abs_sum(rows) for m in res.values())


def chk_star(mode, params):
    rs = _repspec(params, mode)
    K, Ki, E, F = uqsl2.gens(rs)
    sgn = 1 if rs.kind == "su2" else -1
    pairs = [(K, K), (E, sgn * F), (F, sgn * E)]
    return ordered_sum(uqsl2.star_residual(rs, A, As).abs_sum() for A, As in pairs)


def chk_twist_rewrite(mode, params):
    rs = _repspec(params, mode)
    res = uqsl2.twist_rewrite_residual(rs, params["u"], params["v"], params["s"], params["t"])
    return res.abs_sum(rs.interior(2))


def chk_gevp_rewrite(mode, params):
    rs = _repspec(params, mode)
    return uqsl2.gevp_rewrite_residual(rs, params["s"]).abs_sum(rs.interior(2))


def chk_eigen(mode, params):
    rs = _repspec(params, mode)
    res = uqsl2.eigen_residual(rs, params["u"], params["s"], params["x"])
    rows = rs.interior(1)
    total = None
    for r in res[:rows]:
        total = abs(r) if total is None else total + abs(r)
    return 0 if total is None else total


def chk_prop33(mode, params):
    qb = _qb(params, mode)
    rp = ratfun.RrParams(params["s"], params["t"], params["v"], params["N"], qb)
    return ratfun.rr_closed(rp, params["x"], params["y"]) - ratfun.rr_inner(
        rp, params["x"], params["y"]
    )


def chk_rr_biorth(mode, params):
    qb = _qb(params, mode)
    rp = ratfun.RrParams(params["s"], params["t"], params["v"], params["N"], qb)
    return ratfun.rr_biorth_residual(rp, params["relation"], params["i"], params["j"])


def chk_rr_gevp(mode, params):
    qb = _qb(params, mode)
    rp = ratfun.RrParams(params["s"], params["t"], params["v"], params["N"], qb)
    return ratfun.rr_gevp_residual(rp, params["x"], params["y"])


def chk_kraw_transfer(mode, params):
    # single-site three-term transfer, both the diagonal symbol and the
    # twisted action, checked for every n at once
    qb = _qb(params, mode)
    acc = multivar.transfer_check_k2(qb, 1, [params["y"]], params["t"], params["v"], [params["N"]])
    acc += multivar.transfer_check_x(
        qb, 1, [params["y"]], params["t"], params["v"], params["s"], [params["N"]]
    )
    return acc


def chk_kraw_dyn(mode, params):
    return _chk_dyn(mode, params, su11=False)


def chk_asc_dyn(mode, params):
    return _chk_dyn(mode, params, su11=True)


def _chk_dyn(mode, params, su11):
    # the parameter-shifting five-point transfer, checked for every n of the
    # finite family or of the infinite family's truncated window
    qb = _qb(params, mode)
    y, t, v = params["y"], params["t"], params["v"]
    if su11:
        size, n_top, diag = params["k"], params["trunc"], as_exponent(params["k"])
        family, pack, dyn_coeffs = orthopoly.asc, orthopoly.ASCParams, orthopoly.asc_dyn_coeffs
    else:
        size = n_top = params["N"]
        family, pack, dyn_coeffs = orthopoly.kraw, orthopoly.KrawParams, orthopoly.kraw_dyn_coeffs
        diag = -size
    params_t = pack(v, t, size, qb)
    acc = qb.zero()
    for direction in (2, -2):
        coeffs = dyn_coeffs(qb, size, y, t, direction)
        offsets = (-2, -1, 0) if direction == 2 else (0, 1, 2)
        shifted = pack(v, as_exponent(t) + direction, size, qb)
        for n in range(n_top + 1):
            lhs = qb.qpow(2 * n + diag) * family(params_t, n, y)
            rhs = qb.zero()
            for c, e in zip(coeffs, offsets):
                if 0 <= y + e and (su11 or y + e <= size):
                    rhs += c * family(shifted, n, y + e)
                elif c != 0:
                    raise QRacahError("nonzero coefficient at out-of-range shift")
            acc += abs(lhs - rhs)
    return acc


def chk_asc_transfer(mode, params):
    # single-site ASC transfer: diagonal symbol and twisted action on a
    # truncated window, interior rows
    qb = _qb(params, mode)
    k, y, t, v, s, T = (params["k"], params["y"], params["t"], params["v"],
                        params["s"], params["trunc"])
    ap = orthopoly.ASCParams(v, t, k, qb)
    rs = uqsl2.RepSpec.su11(k, T, qb)
    Y0s = uqsl2.twist_y(rs, 0, s, tilde=False)
    cm1, c0, c1 = orthopoly.asc_diff_coeffs(qb, k, y, t)
    dm1, d0, d1 = orthopoly.asc_d_coeffs(qb, k, y, t, v)
    vec = [orthopoly.asc(ap, n, y) for n in range(T + 1)]
    out = Y0s.apply(vec)
    acc = qb.zero()
    for n in range(T):
        lhs_k2 = qb.qpow(2 * n + as_exponent(k)) * vec[n]
        rhs_k2 = c0 * vec[n]
        rhs_y = (d0 + qb.brace(s)) * vec[n]
        if y > 0:
            val = orthopoly.asc(ap, n, y - 1)
            rhs_k2 += cm1 * val
            rhs_y += dm1 * val
        val = orthopoly.asc(ap, n, y + 1)
        rhs_k2 += c1 * val
        rhs_y += d1 * val
        acc += abs(lhs_k2 - rhs_k2) + abs(out[n] - rhs_y)
    return acc


def chk_nested_eigen(mode, params):
    qb = _qb(params, mode)
    return multivar.nested_eigen_residual(
        qb,
        params["side"],
        params["j"],
        params["v"],
        params["base"],
        params["sizes"],
        params["ys"],
        su11=params.get("su11", False),
        trunc=params.get("trunc"),
    )


def chk_multi_transfer(mode, params):
    qb = _qb(params, mode)
    acc = multivar.transfer_check_k2(
        qb, params["j"], params["ys"], params["t"], params["v"], params["Ns"]
    )
    acc += multivar.transfer_check_x(
        qb, params["j"], params["ys"], params["t"], params["v"], params["sigma"], params["Ns"]
    )
    return acc


def chk_multi_transfer_asc(mode, params):
    qb = _qb(params, mode)
    acc = multivar.transfer_check_k2_asc(
        qb, params["j"], params["ys"], params["t"], params["v"], params["ks"], params["trunc"]
    )
    acc += multivar.transfer_check_y(
        qb, params["j"], params["ys"], params["t"], params["v"], params["sigma"],
        params["ks"], params["trunc"]
    )
    return acc


def chk_multi_gevp(mode, params):
    qb = _qb(params, mode)
    return multivar.multi_gevp_residual(
        qb, params["j"], params["xs"], params["ys"],
        params["s"], params["t"], params["v"], params["Ns"]
    )


def chk_multi_gevp_asc(mode, params):
    qb = _qb(params, mode)
    return multivar.multi_gevp_residual_asc(
        qb, params["j"], params["xs"], params["ys"],
        params["s"], params["t"], params["v"], params["ks"], _tb(params)
    )


def chk_cor43(mode, params):
    # scale-normalized: the function values grow without bound across the
    # grid while the certificates control relative precision
    qb = _qb(params, mode)
    pp = ratfun.PrParams(params["s"], params["t"], params["v"], params["k"], qb, _tb(params))
    inner = ratfun.pr_inner(pp, params["x"], params["y"])
    closed = ratfun.pr_closed(pp, params["x"], params["y"])
    return (closed - inner) / (1 + abs(inner))


def chk_pr_biorth(mode, params):
    # normalized by the diagonal target 1/W on diagonal entries
    qb = _qb(params, mode)
    tb = _tb(params)
    pp = ratfun.PrParams(params["s"], params["t"], params["v"], params["k"], qb, tb)
    raw = ratfun.pr_biorth_residual(pp, params["relation"], params["i"], params["j"])
    if params["i"] == params["j"]:
        diag_s = params["t"] if params["relation"] == "x" else params["s"]
        scale = abs(1 / orthopoly.asc_W(qb, diag_s, params["k"], params["i"], tb))
        return raw / (1 + scale)
    return raw


def chk_pr_gevp(mode, params):
    qb = _qb(params, mode)
    pp = ratfun.PrParams(params["s"], params["t"], params["v"], params["k"], qb, _tb(params))
    return ratfun.pr_gevp_residual(pp, params["x"], params["y"])


def _repspec(params, mode):
    qb = _qb(params, mode)
    if "N" in params:
        return uqsl2.RepSpec.su2(params["N"], qb)
    return uqsl2.RepSpec.su11(params["k"], params["trunc"], qb)


CHECKS = {
    "summation": chk_summation,
    "relations": chk_relations,
    "star": chk_star,
    "twist_rewrite": chk_twist_rewrite,
    "gevp_rewrite": chk_gevp_rewrite,
    "eigen": chk_eigen,
    "prop33": chk_prop33,
    "rr_biorth": chk_rr_biorth,
    "rr_gevp": chk_rr_gevp,
    "kraw_transfer": chk_kraw_transfer,
    "kraw_dyn": chk_kraw_dyn,
    "asc_transfer": chk_asc_transfer,
    "asc_dyn": chk_asc_dyn,
    "nested_eigen": chk_nested_eigen,
    "multi_transfer": chk_multi_transfer,
    "multi_transfer_asc": chk_multi_transfer_asc,
    "multi_gevp": chk_multi_gevp,
    "multi_gevp_asc": chk_multi_gevp_asc,
    "cor43": chk_cor43,
    "pr_biorth": chk_pr_biorth,
    "pr_gevp": chk_pr_gevp,
}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {}


def suite(suite_id: str, first_p: bool = False, certified: bool = False):
    """Register the decorated ``(cfg, p)`` point generator as ``suite_id``."""

    def register(points):
        SUITES[suite_id] = (points, first_p, certified)
        return points

    return register


_STV = ((0, 0, 0), (1, 0, 0), (1, 2, 1), (2, 1, -1), (0, 1, -2))
_UVST = ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2), (2, 1, 0, 2))


def _stv_points(n_top, p=None):
    """(N, s, t, v, x, y) over N <= n_top, _STV and the square 0..N; with a
    p, only the points off the pole locus of the finite closed forms."""
    qb = None if p is None else _base(p, "exact")
    for N, (s, t, v) in iproduct(range(n_top + 1), _STV):
        for x, y in iproduct(range(N + 1), repeat=2):
            if p is None or ratfun.rr_valid(ratfun.RrParams(s, t, v, N, qb), x, y):
                yield N, s, t, v, x, y


def _rep_points(fn, cfg):
    for N in range(5):
        yield fn, f"su2[N={N}]", dict(N=N)
    for k in (1, 2):
        yield fn, f"su11[k={k}]", dict(k=k, trunc=cfg.trunc or 10)


@suite("lemma2.1")
def _lemma21(cfg, p):
    # the product side shares the closed forms' pole locus
    for N, s, t, v, x, y in _stv_points(4, p):
        yield ("summation", f"sum_identity[N={N},s={s},t={t},v={v},x={x},y={y}]",
               dict(N=N, s=s, t=t, v=v, x=x, y=y))


@suite("relations")
def _relations(cfg, p):
    return _rep_points("relations", cfg)


@suite("star")
def _star(cfg, p):
    return _rep_points("star", cfg)


@suite("lemma3.1")
def _lemma31(cfg, p):
    for N, (u, v, s, t) in iproduct(range(6), _UVST):
        yield ("twist_rewrite", f"su2[N={N},u={u},v={v},s={s},t={t}]",
               dict(N=N, u=u, v=v, s=s, t=t))
    yield "gevp_rewrite", "gevp_rewrite_su2[N=4,s=2]", dict(N=4, s=2)


@suite("ev3.x")
def _ev3(cfg, p):
    for N, u, s in iproduct(range(5), (0, 1), (0, 1, 2)):
        for x in range(N + 1):
            yield "eigen", f"su2[N={N},u={u},s={s},x={x}]", dict(N=N, u=u, s=s, x=x)


@suite("prop3.3")
def _prop33(cfg, p):
    for N, s, t, v, x, y in _stv_points(4, p):
        yield ("prop33", f"closed_vs_inner[N={N},s={s},t={t},v={v},x={x},y={y}]",
               dict(N=N, s=s, t=t, v=v, x=x, y=y))


@suite("prop3.4", first_p=True)
def _prop34(cfg, p):
    for N, (s, t), v, relation in iproduct(
            range(4), ((0, 0), (1, 2), (2, 1)), (-2, -1, 0, 1), ("x", "y")):
        for i, j in iproduct(range(N + 1), repeat=2):
            yield ("rr_biorth", f"biorth_{relation}[N={N},s={s},t={t},v={v},{i},{j}]",
                   dict(N=N, s=s, t=t, v=v, relation=relation, i=i, j=j))


@suite("lemma3.5")
def _lemma35(cfg, p):
    for N, (s, t, v) in iproduct(range(4), _STV):
        for y in range(N + 1):
            yield ("kraw_transfer", f"transfer[N={N},s={s},t={t},v={v},y={y}]",
                   dict(N=N, s=s, t=t, v=v, y=y))


@suite("cor3.6")
def _cor36(cfg, p):
    for N, s, t, v, x, y in _stv_points(3):
        yield ("rr_gevp", f"gevp[N={N},s={s},t={t},v={v},x={x},y={y}]",
               dict(N=N, s=s, t=t, v=v, x=x, y=y))


@suite("prop3.7", first_p=True)
def _prop37(cfg, p):
    for sizes in ([1], [2], [1, 1], [2, 2], [1, 1, 1]):
        for j, (v, base) in iproduct(range(1, len(sizes) + 1), ((0, 1), (1, 0))):
            for ys, side in iproduct(iproduct(*[range(N + 1) for N in sizes]), ("L", "R")):
                yield ("nested_eigen",
                       f"nested_ev_{side}[Ns={sizes},j={j},v={v},t={base},ys={list(ys)}]",
                       dict(side=side, j=j, v=v, base=base, sizes=tuple(sizes), ys=ys))


@suite("lemma3.8")
def _lemma38(cfg, p):
    for N, t, v in iproduct(range(1, 4), (0, 1, 2), (0, 1)):
        for y in range(N + 1):
            yield "kraw_dyn", f"dyn[N={N},t={t},v={v},y={y}]", dict(N=N, t=t, v=v, y=y)


@suite("lemma3.9", first_p=True)
def _lemma39(cfg, p):
    for sizes in ([2], [2, 2], [1, 1, 1]):
        for j, (t, v, sigma) in iproduct(range(1, len(sizes) + 1), ((0, 1, 1), (1, 0, 2))):
            for ys in iproduct(*[range(N + 1) for N in sizes]):
                yield ("multi_transfer", f"transfer[Ns={sizes},j={j},t={t},v={v},ys={list(ys)}]",
                       dict(j=j, ys=ys, t=t, v=v, sigma=sigma, Ns=tuple(sizes)))


@suite("cor3.10", first_p=True)
def _cor310(cfg, p):
    for sizes in ([2, 2], [1, 1, 1]):
        grid = list(iproduct(*[range(N + 1) for N in sizes]))
        for j, (s, t, v) in iproduct(range(1, len(sizes) + 1), ((1, 0, 1), (0, 1, 0))):
            for xs, ys in iproduct(grid, repeat=2):
                yield ("multi_gevp",
                       f"gevp[Ns={sizes},j={j},s={s},t={t},v={v},xs={list(xs)},ys={list(ys)}]",
                       dict(j=j, xs=xs, ys=ys, s=s, t=t, v=v, Ns=tuple(sizes)))


@suite("cor4.1")
def _cor41(cfg, p):
    trunc = cfg.trunc or 10
    for k in (1, 2):
        for u, v, s, t in _UVST:
            yield ("twist_rewrite", f"su11[k={k},u={u},v={v},s={s},t={t}]",
                   dict(k=k, trunc=trunc, u=u, v=v, s=s, t=t))
        yield "gevp_rewrite", f"gevp_rewrite_su11[k={k},s=1]", dict(k=k, trunc=trunc, s=1)


@suite("ev4.x")
def _ev4(cfg, p):
    for k, u, s, x in iproduct((1, 2), (0, 1), (0, 1), (0, 1, 2)):
        yield ("eigen", f"su11[k={k},u={u},s={s},x={x}]",
               dict(k=k, trunc=cfg.trunc or 12, u=u, s=s, x=x))


@suite("cor4.3", first_p=True, certified=True)
def _cor43(cfg, p):
    qb = _base(float(p), "float")
    for k, (s, t, v), x, y in iproduct((1, 2), ((0, 0, -1), (1, 1, 0), (1, 2, 1)),
                                        range(4), range(4)):
        if ratfun.pr_valid(ratfun.PrParams(s, t, v, k, qb), x, y):
            yield ("cor43", f"closed_vs_inner[k={k},s={s},t={t},v={v},x={x},y={y}]",
                   dict(k=k, s=s, t=t, v=v, x=x, y=y))


@suite("prop4.4", first_p=True, certified=True)
def _prop44(cfg, p):
    for (k, s, t, v), relation, i, j in iproduct(
            ((1, 0, 0, -1), (2, 1, 1, 0)), ("x", "y"), range(3), range(3)):
        yield ("pr_biorth", f"biorth_{relation}[k={k},s={s},t={t},v={v},{i},{j}]",
               dict(k=k, s=s, t=t, v=v, relation=relation, i=i, j=j))


@suite("lemma4.5")
def _lemma45(cfg, p):
    for k, (s, t, v), y in iproduct((1, 2), _STV, range(4)):
        yield ("asc_transfer", f"transfer[k={k},s={s},t={t},v={v},y={y}]",
               dict(k=k, s=s, t=t, v=v, y=y, trunc=cfg.trunc or 8))


@suite("prop4.5", first_p=True, certified=True)
def _prop45(cfg, p):
    for (k, s, t, v), x, y in iproduct(((1, 0, 1, 0), (2, 1, 0, -1)), range(4), range(4)):
        yield ("pr_gevp", f"gevp[k={k},s={s},t={t},v={v},x={x},y={y}]",
               dict(k=k, s=s, t=t, v=v, x=x, y=y))


@suite("prop4.6", first_p=True)
def _prop46(cfg, p):
    for ks in ((1, 1), (1, 2)):
        for j, (v, base) in iproduct(range(1, len(ks) + 1), ((0, 1), (1, 0))):
            for ys, side in iproduct(iproduct(range(2), range(2)), ("L", "R")):
                yield ("nested_eigen",
                       f"nested_ev_{side}[ks={ks},j={j},v={v},t={base},ys={list(ys)}]",
                       dict(side=side, j=j, v=v, base=base, sizes=ks, ys=ys,
                            su11=True, trunc=cfg.trunc or 8))


@suite("lemma4.8", first_p=True)
def _lemma48(cfg, p):
    trunc = cfg.trunc or 8
    for k, t, v, y in iproduct((1, 2), (1, 2, 3), (0, 1), range(4)):
        yield "asc_dyn", f"dyn[k={k},t={t},v={v},y={y}]", dict(k=k, t=t, v=v, y=y, trunc=trunc)
    for j, ys in iproduct((1, 2), iproduct(range(3), range(3))):
        yield ("multi_transfer_asc", f"transfer[ks=(1,1),j={j},ys={list(ys)}]",
               dict(j=j, ys=ys, t=0, v=0, sigma=1, ks=(1, 1), trunc=min(trunc, 6)))


@suite("cor4.9", first_p=True, certified=True)
def _cor49(cfg, p):
    ks = (1, 1)
    corners = list(iproduct(range(2), range(2)))
    for j, (s, t, v), xs, ys in iproduct((1, 2), ((1, 0, 0), (0, 1, -1)), corners, corners):
        yield ("multi_gevp_asc",
               f"gevp[ks={ks},j={j},s={s},t={t},v={v},xs={list(xs)},ys={list(ys)}]",
               dict(j=j, xs=xs, ys=ys, s=s, t=t, v=v, ks=ks))


SUITE_IDS = tuple(SUITES) + ("all",)


def _expand(suite_id: str, cfg: RunConfig) -> List[Task]:
    points, first_p, certified = SUITES[suite_id]
    tail = {}
    if certified:
        tb = cfg.tail()
        tail = {"tb_tol": tb.tolerance, "tb_max_terms": tb.max_terms}
    contract = "certified" if certified else "exact"
    return [
        Task(suite_id, check, fn, {**params, **tail, "p": p}, contract)
        for p in (cfg.ps()[:1] if first_p else cfg.ps())
        for fn, check, params in points(cfg, p)
    ]


def build_tasks(suite_id: str, cfg: RunConfig) -> List[Task]:
    if suite_id == "all":
        return [task for sid in SUITES for task in _expand(sid, cfg)]
    if suite_id not in SUITES:
        raise KeyError(f"unknown suite {suite_id!r}; choose from {sorted(SUITE_IDS)}")
    return _expand(suite_id, cfg)


def run_task(task: Task, mode: str, tol: float) -> CheckReport:
    """Execute one task; errors become failing reports, never crashes.

    Certified tasks run their scalar arithmetic in the exact backend (so the
    only error is the certified truncation, never float cancellation) and
    are labeled "certified": they pass by tolerance, not by exact zero.
    """
    certified = task.contract == "certified"
    scalar_mode = "exact" if certified else mode
    label = "certified" if certified else mode
    start = time.perf_counter()
    try:
        residual = CHECKS[task.fn](scalar_mode, task.params)
        err = ""
    except QRacahError as exc:
        residual = None
        err = f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    if residual is None:
        passed = False
        res_str = "error"
    else:
        if label == "exact":
            passed = residual == 0
            res_str = residual_string(residual)
        else:
            passed = float(abs(residual)) <= tol
            # tolerance-contract residuals serialize as plain decimals
            res_str = residual_string(
                residual if isinstance(residual, complex) else float(residual)
            )
    return CheckReport(
        suite=task.suite,
        check=task.check,
        params=task.params,
        residual=res_str,
        passed=passed,
        backend=label,
        elapsed_ms=elapsed,
        error=err,
    )


def _run_task_star(args):
    return run_task(*args)


def run_suite(suite_id: str, cfg: RunConfig) -> Iterator[CheckReport]:
    """Execute a suite, yielding reports in deterministic task order."""
    tasks = build_tasks(suite_id, cfg)
    tol = cfg.tol()
    if cfg.jobs <= 1:
        for task in tasks:
            yield run_task(task, cfg.mode, tol)
        return
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        args = [(task, cfg.mode, tol) for task in tasks]
        for report in pool.map(_run_task_star, args, chunksize=8):
            yield report
