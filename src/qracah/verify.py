"""Named verification suites over deterministic parameter grids.

Each suite expands to a list of :class:`Task` records (one identity at one
parameter point).  A suite is a generator registered with ``@suite(id)``:
given the run configuration and one p, it yields ``(fn, check, params)``
for each point of its grid, as plain nested loops.  ``build_tasks`` is the
one expander: it runs the generator for every p of the run (only the
first for suites registered ``first_p``), appends the tail-bound fields
``tb_tol``/``tb_max_terms`` to the params of certified suites, then the
point's ``p``.  ``run_task`` calls ``CHECKS[fn](qb, **point)``: ``p`` becomes
the shared base ``qb``, the tail-bound fields one ``TailBound`` ``tb``, and
the rest are keywords that each check names in its signature, so a library
residual with those parameter names is its own check.  Every check runs in
exact scalars, and a task's contract labels its report:

* ``exact``     -- the residual must be identically zero;
* ``certified`` -- the check involves certified truncation of infinite
  sums/products and passes when the residual is within tolerance.

Task execution is a pure function of the task, so suites can run in a
process pool; results stream in deterministic task order either way.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator, List, NamedTuple, Optional

from . import multivar, orthopoly, qseries, ratfun, uqsl2
from .errors import OutOfRange, QRacahError
from .report import CheckReport, residual_string
from .scalar import QBase, as_exponent, ordered_sum, residual_sum
from .tables import tabled

DEFAULT_PS = (Fraction(1, 2), Fraction(2, 3))  # q = 1/4 and 4/9
DEFAULT_TOL = 1e-9


class Task(NamedTuple):
    suite: str
    check: str
    fn: str
    params: dict
    contract: str = "exact"  # "exact" | "certified"


class _RunConfig(NamedTuple):
    p: Optional[Fraction] = None
    tolerance: Optional[float] = None
    trunc: Optional[int] = None
    jobs: int = 1
    max_terms: Optional[int] = None


class RunConfig(_RunConfig):
    """Options shared by the front-end commands."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a window of fewer than 2 levels has no interior row to check
        if self.trunc is not None and self.trunc < 2:
            raise ValueError("trunc must be at least 2")
        if self.tolerance is not None:
            qseries.check_tolerance(self.tolerance)
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        return self

    def ps(self):
        return (self.p,) if self.p is not None else DEFAULT_PS

    def tol(self) -> float:
        return self.tolerance if self.tolerance is not None else DEFAULT_TOL

    def tail(self) -> qseries.TailBound:
        max_terms = self.max_terms if self.max_terms is not None else qseries.DEFAULT_MAX_TERMS
        return qseries.TailBound(min(self.tol() * 1e-3, 1e-12), max_terms)


# ---------------------------------------------------------------------------
# check functions (all top-level so tasks can cross process boundaries)
# ---------------------------------------------------------------------------


@tabled
def _base(p):
    # one shared base per p: a table lookup whose key holds the base then
    # matches it by identity, without QBase.__eq__
    return QBase(p)


def chk_summation(qb, N, s, t, v, x, y):
    lhs, rhs = ratfun.summation_pair_qracah(qb, N, s, t, v, x, y)
    return lhs - rhs


def _repspec(qb, N=None, k=None, trunc=None):
    if N is not None:
        return uqsl2.RepSpec.su2(N, qb)
    return uqsl2.RepSpec.su11(k, trunc, qb)


def chk_relations(qb, **site):
    rs = _repspec(qb, **site)
    return ordered_sum(uqsl2.relation_residuals(rs, rs.interior(1)).values())


def chk_star(qb, **site):
    return uqsl2.star_residual(_repspec(qb, **site))


def chk_twist_rewrite(qb, u, v, s, t, **site):
    rs = _repspec(qb, **site)
    return uqsl2.twist_rewrite_residual(rs, u, v, s, t, rs.interior(2))


def chk_gevp_rewrite(qb, s, **site):
    rs = _repspec(qb, **site)
    return uqsl2.gevp_rewrite_residual(rs, s, rs.interior(2))


def chk_eigen(qb, u, s, x, N=None, k=None, trunc=None):
    # the one-site chain's left eigen-identity
    size, su11 = (k, True) if N is None else (N, False)
    return multivar.nested_eigen_residual(qb, "L", 1, u, s, (size,), (x,), su11, trunc)


def chk_prop33(qb, N, s, t, v, x, y):
    rp = ratfun.RrParams(s, t, v, N, qb)
    return ratfun.rr_closed(rp, x, y) - ratfun.rr_inner(rp, x, y)


def chk_rr_biorth(qb, N, s, t, v, relation, i, j):
    # the univariate biorthogonality is the one-site chain's
    return multivar.multi_biorth_residual(qb, s, t, v, (N,), relation, (i,), (j,))


def chk_rr_gevp(qb, N, s, t, v, x, y):
    # the univariate three-term identity is the one-site chain's
    return multivar.multi_gevp_residual(qb, 1, (x,), (y,), s, t, v, (N,))


def chk_kraw_transfer(qb, N, s, t, v, y):
    # the single-site three-term transfer is the one-site chain's
    return chk_multi_transfer(qb, 1, (y,), t, v, s, (N,))


def chk_kraw_dyn(qb, N, t, v, y):
    return _chk_dyn(qb, False, N, N, -N, t, v, y)


def chk_asc_dyn(qb, k, t, v, y, trunc):
    return _chk_dyn(qb, True, k, trunc, as_exponent(k), t, v, y)


def _chk_dyn(qb, su11, size, n_top, diag, t, v, y):
    # the parameter-shifting five-point transfer, checked for every n of the
    # finite family or of the infinite family's truncated window
    if su11:
        column, pack = orthopoly.asc_column, orthopoly.ASCParams
        dyn_coeffs = orthopoly.asc_dyn_coeffs
    else:
        column, pack = orthopoly.kraw_column, orthopoly.KrawParams
        dyn_coeffs = orthopoly.kraw_dyn_coeffs
    col_t = column(pack(v, t, size, qb), y)
    rows = []
    for direction in (2, -2):
        coeffs = dyn_coeffs(qb, size, y, t, direction)
        offsets = (-2, -1, 0) if direction == 2 else (0, 1, 2)
        shifted = pack(v, as_exponent(t) + direction, size, qb)
        cols = {e: column(shifted, y + e) for e in offsets
                if 0 <= y + e and (su11 or y + e <= size)}
        for n in range(n_top + 1):
            rhs = []
            for c, e in zip(coeffs, offsets):
                if e in cols:
                    rhs.append((c, cols[e][n]))
                elif c != 0:
                    raise QRacahError("nonzero coefficient at out-of-range shift")
            rows.append(([(qb.qpow(2 * n + diag), col_t[n])], rhs))
    return residual_sum(rows)


def chk_asc_transfer(qb, k, s, t, v, y, trunc):
    # the single-site transfer on a truncated window is the one-site chain's
    return chk_multi_transfer_asc(qb, 1, (y,), t, v, s, (k,), trunc)


def chk_multi_transfer(qb, j, ys, t, v, sigma, Ns):
    acc = multivar.transfer_check_k2(qb, j, ys, t, v, Ns)
    acc += multivar.transfer_check_x(qb, j, ys, t, v, sigma, Ns)
    return acc


def chk_multi_transfer_asc(qb, j, ys, t, v, sigma, ks, trunc):
    acc = multivar.transfer_check_k2_asc(qb, j, ys, t, v, ks, trunc)
    acc += multivar.transfer_check_y(qb, j, ys, t, v, sigma, ks, trunc)
    return acc


def chk_cor43(qb, tb, k, s, t, v, x, y):
    # scale-normalized: the function values grow without bound across the
    # grid while the certificates control relative precision
    pp = ratfun.PrParams(s, t, v, k, qb, tb)
    inner = ratfun.pr_inner(pp, x, y)
    closed = ratfun.pr_closed(pp, x, y)
    return (closed - inner) / (1 + abs(inner))


def chk_pr_biorth(qb, tb, k, s, t, v, relation, i, j):
    # normalized by the diagonal target 1/W on diagonal entries
    raw = ratfun.pr_biorth_residual(ratfun.PrParams(s, t, v, k, qb, tb), relation, i, j)
    if i == j:
        diag_s = t if relation == "x" else s
        return raw / (1 + abs(1 / orthopoly.asc_W(qb, diag_s, k, i, tb)))
    return raw


def chk_pr_gevp(qb, tb, k, s, t, v, x, y):
    # the one-site chain's; certified tasks sum in exact scalars, so the
    # chain's order of the three terms leaves the value as it is
    return multivar.multi_gevp_residual_asc(qb, 1, (x,), (y,), s, t, v, (k,), tb)


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
    "nested_eigen": multivar.nested_eigen_residual,
    "multi_transfer": chk_multi_transfer,
    "multi_transfer_asc": chk_multi_transfer_asc,
    "multi_gevp": multivar.multi_gevp_residual,
    "multi_gevp_asc": multivar.multi_gevp_residual_asc,
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


def _stv_points(n_top, off_poles=False):
    """(N, s, t, v, x, y) over N <= n_top, _STV and the square 0..N; with
    off_poles, only the points off the pole locus of the finite closed
    forms.  The locus does not depend on q, so no base is built for it."""
    for N, (s, t, v) in iproduct(range(n_top + 1), _STV):
        for x, y in iproduct(range(N + 1), repeat=2):
            if not off_poles or ratfun.rr_valid(ratfun.RrParams(s, t, v, N, None), x, y):
                yield N, s, t, v, x, y


def _rep_points(fn, cfg):
    for N in range(5):
        yield fn, f"su2[N={N}]", dict(N=N)
    for k in (1, 2):
        yield fn, f"su11[k={k}]", dict(k=k, trunc=cfg.trunc or 10)


@suite("lemma2.1")
def _lemma21(cfg, p):
    """Lemma 2.1, the summation identity, at the q-Racah point: the
    product side, a prefactor times a terminating 4phi3 in base q**2,
    equals the series side, the n-sum of (bcd)**n (a; q**2)_n /
    (q**2; q**2)_n times two terminating 3phi2's in base q**-2, at a =
    q**(-2N), b**2 = -q**(2s), c**2 = -q**(2t), bcd = -q**(s+t-v+1) and
    bd/c = q**(s-t-v+1).  Exact residual 0 over N <= 4, the five (s, t, v)
    of ``_STV`` and 0 <= x, y <= N, off the product side's poles (those of
    the closed forms, ``rr_valid``).  ``ratfun.summation_pair_qracah``
    computes the sides: the product side is ``rr_closed`` and the series
    side ``rr_inner``."""
    for N, s, t, v, x, y in _stv_points(4, off_poles=True):
        yield ("summation", f"sum_identity[N={N},s={s},t={t},v={v},x={x},y={y}]",
               dict(N=N, s=s, t=t, v=v, x=x, y=y))


@suite("relations")
def _relations(cfg, p):
    """The defining relations of U_q(sl2) in the matrix representations:
    K K**-1 = 1, K E = q E K, K F = q**-1 F K and E F - F E = (K**2 -
    K**-2) / (q - 1/q), each as a left side (the first product) against a
    right side (the other terms).  Exact residual 0, the sum over the four
    relations of |left - right| over every entry of the leading rows: all
    rows of su2 for N = 0..4, and rows 0..trunc - 1 of the su11 window
    0..trunc (default 10) for k in {1, 2}, whose row trunc F feeds from
    outside the window.  ``chk_relations`` adds the four totals of
    ``uqsl2.relation_residuals`` with ``scalar.ordered_sum``: both sides
    are products of the generators ``uqsl2.gens``, whose entries
    ``uqsl2.weighted_products`` yields as factor tuples, and
    ``scalar.residual_sum`` sums each relation's entries."""
    return _rep_points("relations", cfg)


@suite("star")
def _star(cfg, p):
    """The *-structure of each representation under its weighted inner
    product: K* = K, E* = F and F* = E on su2, E* = -F and F* = -E on
    su11.  With w the weights pairing the basis, A* = c B reads w(n) A[n,
    m] = c w(m) B[m, n] for (A, B, c) in ((K, K, 1), (E, F, +-1), (F, E,
    +-1)).  Exact residual 0, the sum of |left - right| over every entry
    of every row, on su2 for N = 0..4 and on the su11 window 0..trunc
    (default 10) for k in {1, 2}.  ``uqsl2.star_residual`` forms both sides
    from ``uqsl2.gens`` and ``RepSpec.weights`` (``orthopoly.kraw_w_column``
    on su2, ``orthopoly.asc_w_column`` on su11), and
    ``scalar.residual_sum`` sums the entries."""
    return _rep_points("star", cfg)


@suite("lemma3.1")
def _lemma31(cfg, p):
    """Lemma 3.1, the rewrites of the compact twisted elements on su2.
    With X_{u,s} = q**(u+1/2) E K + q**(-u-1/2) F K + [s]_q, its tilde
    element Xtilde_{v,t} = q**(-v-1/2) E K**-1 + q**(v+1/2) F K**-1 +
    [t]_q K**-2 (``uqsl2.twist_x``), e = u + v and [A, B]_q = q A B -
    q**-1 B A: X_{u,s} equals (q**e [K**2, Xtilde_{v,t}]_q + q**-e
    [Xtilde_{v,t}, K**2]_q) / (q**2 - q**-2) + [s]_q - [t]_q {e}_q.
    Exact residual 0, the sum of |left - right| over every entry of every
    row, for N = 0..5 and (u, v, s, t) in ``_UVST``; and the rewrite that
    turns the generalized eigenvalue problem into a plain one, K**-2
    X_{0,s} = Xtilde_{1,s}, at N = 4, s = 2.  ``uqsl2.twist_rewrite_residual``
    and ``uqsl2.gevp_rewrite_residual`` build both sides from
    ``uqsl2.gens`` and the tabled elements ``uqsl2._twisted``, their
    products entry by entry (``uqsl2.weighted_products``), and
    ``scalar.residual_sum`` sums the entries."""
    for N, (u, v, s, t) in iproduct(range(6), _UVST):
        yield ("twist_rewrite", f"su2[N={N},u={u},v={v},s={s},t={t}]",
               dict(N=N, u=u, v=v, s=s, t=t))
    yield "gevp_rewrite", "gevp_rewrite_su2[N=4,s=2]", dict(N=4, s=2)


@suite("ev3.x")
def _ev3(cfg, p):
    """Eigenvalues of the finite family on su2: Xtilde_{u,s} f = [2x - N +
    s]_q f for f the column n -> k_{u,s}(n, x), n = 0..N, and Xtilde_{u,s}
    the tilde element of ``lemma3.1``.  Exact residual 0, summed over every
    row n, for N <= 4, u in {0, 1}, s in {0, 1, 2} and x = 0..N.
    ``chk_eigen`` runs the one-site ``multivar.nested_eigen_residual``:
    ``multivar._chain_op`` (``uqsl2.coproduct_op``) on
    ``multivar._nested_vec`` (``orthopoly.kraw_column``) against
    ``QBase.bracket`` times it, summed by ``scalar.scaled_residual``."""
    for N, u, s in iproduct(range(5), (0, 1), (0, 1, 2)):
        for x in range(N + 1):
            yield "eigen", f"su2[N={N},u={u},s={s},x={x}]", dict(N=N, u=u, s=s, x=x)


@suite("prop3.3")
def _prop33(cfg, p):
    """Proposition 3.3, the closed form of the finite rational function.
    The inner product R(x, y) = sum_n k_{1,s}(n, x) k_{v,t}(n, y) w(n),
    n = 0..N, of two members of the finite family equals a prefactor of
    q**2-Pochhammer quotients, one x-free and y-free, one in x and one in
    y, times a terminating 4phi3 in base q**2.  Exact residual closed -
    inner, 0, over N <= 4, the five (s, t, v) of ``_STV`` and 0 <= x, y <=
    N, off the closed form's poles (``ratfun.rr_valid``).  ``chk_prop33``
    computes the left side by ``ratfun.rr_inner`` (the twist-free series
    columns ``orthopoly._series`` and the power-times-weight row
    ``ratfun._coefficient_row``, summed by ``qseries.pair_sum``) and the
    right side by ``ratfun.rr_closed`` (``ratfun._rr_prefactors`` times
    ``ratfun._phi43``)."""
    for N, s, t, v, x, y in _stv_points(4, off_poles=True):
        yield ("prop33", f"closed_vs_inner[N={N},s={s},t={t},v={v},x={x},y={y}]",
               dict(N=N, s=s, t=t, v=v, x=x, y=y))


@suite("prop3.4", first_p=True)
def _prop34(cfg, p):
    """Proposition 3.4, the biorthogonality of the finite rational
    functions, as the one-site chain's.  With R_v(x, y) the finite inner
    product ``rr_inner`` at twist v and R' the one at the partner twist -v
    - 2: relation "x" sums R_v(u, i) R'(u, j) against the x-side weight
    W_s(u) over u = 0..N and equals delta_ij / W_t(i); relation "y" sums
    over the second argument with s and t swapped.  Exact residual, the
    sum minus the diagonal target, 0, over N <= 3, (s, t) in ((0, 0), (1,
    2), (2, 1)), v in -2..1, both relations and 0 <= i, j <= N, at the
    first p.  ``chk_rr_biorth`` runs ``multivar.multi_biorth_residual`` on
    the chain (N,): the sum reads ``multivar._rr_pack`` at v and at the
    partner (products of ``ratfun.rr_inner``, paired by
    ``ratfun.biorth_overlap``) and ``multivar._kraw_W_pack``
    (``orthopoly.kraw_W``), summed by ``scalar.ordered_sum``, and the
    target is ``multivar.kraw_W_multi``."""
    for N, (s, t), v, relation in iproduct(
            range(4), ((0, 0), (1, 2), (2, 1)), (-2, -1, 0, 1), ("x", "y")):
        for i, j in iproduct(range(N + 1), repeat=2):
            yield ("rr_biorth", f"biorth_{relation}[N={N},s={s},t={t},v={v},{i},{j}]",
                   dict(N=N, s=s, t=t, v=v, relation=relation, i=i, j=j))


@suite("lemma3.5")
def _lemma35(cfg, p):
    """Lemma 3.5, the three-term transfer on one site.  With f the column
    n -> k_{v,t}(n, y) of the finite family, n = 0..N: K**2 f = sum_e A_e
    f(y + e), and the compact twisted element X at parameter s gives X f =
    [s]_q f + sum_e B_e f(y + e), over e in {-1, 0, 1} with y + e in 0..N.
    Exact residual 0, the sum of |left - right| over every row n, for N <=
    3, the five (s, t, v) of ``_STV`` and y = 0..N.  ``chk_kraw_transfer``
    runs the one-site chain's ``multivar.transfer_check_k2`` and
    ``transfer_check_x``: the left side is ``multivar._chain_op`` (the
    ``uqsl2.coproduct_op`` image) applied to ``multivar._nested_vec`` (read
    from ``orthopoly.kraw_column``), the right side the A/B maps of
    ``multivar._shift_terms`` (from ``orthopoly.kraw_shift_coeff``) times
    the shifted vectors, and ``scalar.scaled_residual`` sums the rows."""
    for N, (s, t, v) in iproduct(range(4), _STV):
        for y in range(N + 1):
            yield ("kraw_transfer", f"transfer[N={N},s={s},t={t},v={v},y={y}]",
                   dict(N=N, s=s, t=t, v=v, y=y))


@suite("cor3.6")
def _cor36(cfg, p):
    """Corollary 3.6, the generalized eigenvalue identity of the finite
    rational functions, as the one-site chain's.  With R(x, y) the finite
    inner product ``rr_inner``: [2x - N + s]_q sum_e A_e R(x, y + e)
    equals [s]_q R(x, y) + sum_e B_e R(x, y + e), the brackets at the
    chain's heights h_1 and h_0 (``multivar.heights``) and e in {-1, 0, 1}
    with 0 <= y + e <= N.  Exact residual left - right, 0, over N <= 3,
    the five (s, t, v) of ``_STV`` and 0 <= x, y <= N.  ``chk_rr_gevp``
    runs ``multivar.multi_gevp_residual`` on the chain (N,): both sides
    read ``multivar._rr_pack`` (products of ``ratfun.rr_inner``), the A/B
    maps are ``multivar._shift_terms`` (``orthopoly.kraw_shift_coeff``),
    the bracket symbols ``QBase.bracket``, and one
    ``scalar.ordered_sum`` takes every term."""
    for N, s, t, v, x, y in _stv_points(3):
        yield ("rr_gevp", f"gevp[N={N},s={s},t={t},v={v},x={x},y={y}]",
               dict(N=N, s=s, t=t, v=v, x=x, y=y))


@suite("prop3.7", first_p=True)
def _prop37(cfg, p):
    """Proposition 3.7, eigenvalues of the finite nested vectors: with F(ns)
    the product over sites of k_{v,h_(i-1)}(n_i, y_i), h_0 = t, h_i =
    h_(i-1) + 2 y_i - N_i, the coproduct image of Xtilde_{v,t} on the first
    j sites gives [h_j]_q F (side "L"), that of Xtilde_{v,h_(M-j)} on the
    last j sites [h_M]_q F ("R").  Exact residual 0, summed over every row,
    for Ns in [1], [2], [1, 1], [2, 2] and [1, 1, 1], j = 1..M, (v, t) in
    ((0, 1), (1, 0)), every ys and both sides, at the first p.
    ``multivar.nested_eigen_residual`` is the check, with ``ev3.x``'s
    functions."""
    for sizes in ([1], [2], [1, 1], [2, 2], [1, 1, 1]):
        for j, (v, base) in iproduct(range(1, len(sizes) + 1), ((0, 1), (1, 0))):
            for ys, side in iproduct(iproduct(*[range(N + 1) for N in sizes]), ("L", "R")):
                yield ("nested_eigen",
                       f"nested_ev_{side}[Ns={sizes},j={j},v={v},t={base},ys={list(ys)}]",
                       dict(side=side, j=j, v=v, base=base, sizes=tuple(sizes), ys=ys))


@suite("lemma3.8")
def _lemma38(cfg, p):
    """Lemma 3.8, the parameter-shifting five-point transfer of the finite
    family.  With f_t the column n -> k_{v,t}(n, y), n = 0..N: q**(2n-N)
    f_t(n) = sum_e a_e f_{t+2}(y + e) over e in {-2, -1, 0}, and q**(2n-N)
    f_t(n) = sum_e a_e f_{t-2}(y + e) over e in {0, 1, 2}, each with 0 <= y
    + e <= N (a coefficient at a shift out of range must be 0).  Exact
    residual 0, the sum of |left - right| over both directions and every
    row n, for N = 1..3, t in {0, 1, 2}, v in {0, 1} and y = 0..N.
    ``chk_kraw_dyn`` runs ``_chk_dyn``: both sides read
    ``orthopoly.kraw_column``, the coefficients are
    ``orthopoly.kraw_dyn_coeffs``, and ``scalar.residual_sum`` sums the
    rows."""
    for N, t, v in iproduct(range(1, 4), (0, 1, 2), (0, 1)):
        for y in range(N + 1):
            yield "kraw_dyn", f"dyn[N={N},t={t},v={v},y={y}]", dict(N=N, t=t, v=v, y=y)


@suite("lemma3.9", first_p=True)
def _lemma39(cfg, p):
    """Lemma 3.9, the transfer on a chain of M sites.  With F the nested
    vector over the index grid, ns -> the product over sites of the finite
    family at (n_i, y_i) with running heights: the coproduct image of K**2
    on the last j sites gives sum_eps A_eps F(ys + eps), and that of the
    compact twisted element X at sigma gives [sigma]_q F + sum_eps B_eps
    F(ys + eps), over the shift vectors eps of ``multivar.epsilon_set(M,
    j)`` with ys + eps in range.  Exact residual 0, the sum of |left -
    right| over every row of the grid, for Ns in [2], [2, 2] and [1, 1, 1],
    j = 1..M, (t, v, sigma) in ((0, 1, 1), (1, 0, 2)) and every ys, at the
    first p.  ``chk_multi_transfer`` runs ``multivar.transfer_check_k2``
    and ``transfer_check_x``: the left side is ``multivar._chain_op``
    (``uqsl2.coproduct_op``) applied to ``multivar._nested_vec`` (from
    ``orthopoly.kraw_column``), the right side the A/B maps of
    ``multivar._shift_terms`` (``orthopoly.kraw_shift_coeff`` products)
    times the shifted vectors, and ``scalar.scaled_residual`` sums the
    rows."""
    for sizes in ([2], [2, 2], [1, 1, 1]):
        for j, (t, v, sigma) in iproduct(range(1, len(sizes) + 1), ((0, 1, 1), (1, 0, 2))):
            for ys in iproduct(*[range(N + 1) for N in sizes]):
                yield ("multi_transfer", f"transfer[Ns={sizes},j={j},t={t},v={v},ys={list(ys)}]",
                       dict(j=j, ys=ys, t=t, v=v, sigma=sigma, Ns=tuple(sizes)))


@suite("cor3.10", first_p=True)
def _cor310(cfg, p):
    """Corollary 3.10, the generalized eigenvalue identity of the
    multivariate finite rational functions.  With R(xs, ys) the product
    over sites of ``rr_inner`` at the running heights: [h_M]_q sum_eps
    A_eps R(xs, ys + eps) equals [h_(M-j)]_q R(xs, ys) + sum_eps B_eps
    R(xs, ys + eps), the brackets at the heights of xs from s
    (``multivar.heights``), over the shift vectors eps of
    ``multivar.epsilon_set(M, j)`` with ys + eps in range.  Exact residual
    left - right, 0, for Ns in [2, 2] and [1, 1, 1], j = 1..M, (s, t, v)
    in ((1, 0, 1), (0, 1, 0)) and every xs and ys of the grid, at the
    first p.  ``multivar.multi_gevp_residual`` is the check: both sides
    read ``multivar._rr_pack`` (products of ``ratfun.rr_inner``), the A/B
    maps are ``multivar._shift_terms`` (``orthopoly.kraw_shift_coeff``
    products), the bracket symbols ``QBase.bracket``, and one
    ``scalar.ordered_sum`` takes every term."""
    for sizes in ([2, 2], [1, 1, 1]):
        grid = list(iproduct(*[range(N + 1) for N in sizes]))
        for j, (s, t, v) in iproduct(range(1, len(sizes) + 1), ((1, 0, 1), (0, 1, 0))):
            for xs, ys in iproduct(grid, repeat=2):
                yield ("multi_gevp",
                       f"gevp[Ns={sizes},j={j},s={s},t={t},v={v},xs={list(xs)},ys={list(ys)}]",
                       dict(j=j, xs=xs, ys=ys, s=s, t=t, v=v, Ns=tuple(sizes)))


@suite("cor4.1")
def _cor41(cfg, p):
    """Corollary 4.1, the rewrites of the non-compact twisted elements on
    su11, ``lemma3.1``'s identities with braces.  With c = (q - 1/q) / (q +
    1/q), Y_{u,s} = c (q**(u+1/2) E K - q**(-u-1/2) F K) + {s}_q, its
    tilde element Ytilde_{v,t} = c (q**(-v-1/2) E K**-1 - q**(v+1/2) F
    K**-1) + {t}_q K**-2 (``uqsl2.twist_y``) and e = u + v: Y_{u,s} equals
    (q**e [K**2, Ytilde_{v,t}]_q + q**-e [Ytilde_{v,t}, K**2]_q) / (q**2 -
    q**-2) + {s}_q - {t}_q {e}_q; and K**-2 Y_{0,1} = Ytilde_{1,1}.  Exact
    residual 0, the sum of |left - right| over every entry of rows 0..trunc
    - 2 of the window 0..trunc (default 10), where a product of degree 2 in
    E and F reads nothing from outside the window, for k in {1, 2} and (u,
    v, s, t) in ``_UVST``.  ``uqsl2.twist_rewrite_residual`` and
    ``uqsl2.gevp_rewrite_residual`` compute both sides, as in
    ``lemma3.1``, and ``scalar.residual_sum`` sums the entries."""
    trunc = cfg.trunc or 10
    for k in (1, 2):
        for u, v, s, t in _UVST:
            yield ("twist_rewrite", f"su11[k={k},u={u},v={v},s={s},t={t}]",
                   dict(k=k, trunc=trunc, u=u, v=v, s=s, t=t))
        yield "gevp_rewrite", f"gevp_rewrite_su11[k={k},s=1]", dict(k=k, trunc=trunc, s=1)


@suite("ev4.x")
def _ev4(cfg, p):
    """``ev3.x`` on su11: with g the column n -> phi_{u,s}(n, x) at weight k
    and Ytilde_{u,s} the tilde element of ``cor4.1``, Ytilde_{u,s} g = {2x +
    k + s}_q g.  Exact residual 0, summed over the rows n < trunc of the
    window 0..trunc (default 12), for k in {1, 2}, u and s in {0, 1} and x
    in {0, 1, 2}.  The functions are ``ev3.x``'s, with
    ``orthopoly.asc_column`` and ``QBase.brace``."""
    for k, u, s, x in iproduct((1, 2), (0, 1), (0, 1), (0, 1, 2)):
        yield ("eigen", f"su11[k={k},u={u},s={s},x={x}]",
               dict(k=k, trunc=cfg.trunc or 12, u=u, s=s, x=x))


@suite("cor4.3", first_p=True, certified=True)
def _cor43(cfg, p):
    """Corollary 4.3, the closed form of the infinite rational function.
    The inner product sum_n phi_{1,s}(n, x) phi_{v,t}(n, y) w_k(n) of two
    members of the infinite family equals an infinite Pochhammer ratio
    times finite Pochhammer quotients in y and in x times a terminating
    4phi3 in base q**2.  The residual is (closed - inner) / (1 + |inner|),
    for k in {1, 2}, (s, t, v) in ((0, 0, -1), (1, 1, 0), (1, 2, 1)) and
    0 <= x, y <= 3 off the closed form's poles (``ratfun.pr_valid``), at
    the first p.  Certified: the n-sum (``qseries.pair_sum`` under
    ``certified_sum``'s stop rule) and the Pochhammer ratio
    (``qseries.qpoch_inf_ratio``) are truncated under the run's
    ``TailBound``, and a report passes when |residual| <= tol.
    ``chk_cor43`` computes the left side by ``ratfun.pr_inner`` (the
    twist-free series columns ``orthopoly._series`` and the
    power-times-weight row ``ratfun._coefficient_row``) and the right side
    by ``ratfun.pr_closed``."""
    # pr_valid reads s, t and v only: no base is built for it
    for k, (s, t, v), x, y in iproduct((1, 2), ((0, 0, -1), (1, 1, 0), (1, 2, 1)),
                                        range(4), range(4)):
        if ratfun.pr_valid(ratfun.PrParams(s, t, v, k, None), x, y):
            yield ("cor43", f"closed_vs_inner[k={k},s={s},t={t},v={v},x={x},y={y}]",
                   dict(k=k, s=s, t=t, v=v, x=x, y=y))


@suite("prop4.4", first_p=True, certified=True)
def _prop44(cfg, p):
    """Proposition 4.4, the biorthogonality of the infinite rational
    functions.  With R_v(x, y) the certified inner product ``pr_inner`` at
    twist v and R' the one at the partner twist -v - 2: relation "x" sums
    R_v(u, i) R'(u, j) against the x-side weight W_s(u) over u >= 0 and
    equals delta_ij / W_t(i); relation "y" sums over the second argument
    with s and t swapped.  The residual is the sum minus the diagonal
    target, divided by 1 + |1/W(i)| on the diagonal, for (k, s, t, v) in
    ((1, 0, 0, -1), (2, 1, 1, 0)), both relations and 0 <= i, j <= 2, at
    the first p.  Certified: the outer u-sum (``qseries.certified_sum``),
    every inner n-sum (``qseries.pair_sum``, the same stop rule) and the
    weights' Pochhammer ratios are truncated under the run's
    ``TailBound``, and a report passes when |residual| <= tol.
    ``chk_pr_biorth`` computes the sum by
    ``ratfun.pr_biorth_residual`` (``ratfun.biorth_overlap`` over
    ``ratfun.pr_inner``, the weight ``orthopoly.asc_W``) and the target by
    ``orthopoly.asc_W``."""
    for (k, s, t, v), relation, i, j in iproduct(
            ((1, 0, 0, -1), (2, 1, 1, 0)), ("x", "y"), range(3), range(3)):
        yield ("pr_biorth", f"biorth_{relation}[k={k},s={s},t={t},v={v},{i},{j}]",
               dict(k=k, s=s, t=t, v=v, relation=relation, i=i, j=j))


@suite("lemma4.5")
def _lemma45(cfg, p):
    """Lemma 4.5, the three-term transfer on one infinite site.  With g the
    column n -> phi_{v,t}(n, y) of the infinite family at weight k: K**2 g
    = sum_e C_e g(y + e), and the non-compact twisted element Y at
    parameter s gives Y g = {s}_q g + sum_e D_e g(y + e), over e in {-1, 0,
    1} with y + e >= 0.  On the window n = 0..trunc (default 8), exact
    residual 0, the sum of |left - right| over the interior rows n < trunc
    (row trunc is fed from outside the window), for k in {1, 2}, the five
    (s, t, v) of ``_STV`` and y = 0..3.  ``chk_asc_transfer`` runs the
    one-site chain's ``multivar.transfer_check_k2_asc`` and
    ``transfer_check_y``: the left side is ``multivar._chain_op``
    (``uqsl2.coproduct_op``) applied to ``multivar._nested_vec`` (from
    ``orthopoly.asc_column``), the right side the C/D maps of
    ``multivar._shift_terms`` (from ``orthopoly.asc_shift_coeff``) times
    the shifted vectors, and ``scalar.scaled_residual`` sums the rows."""
    for k, (s, t, v), y in iproduct((1, 2), _STV, range(4)):
        yield ("asc_transfer", f"transfer[k={k},s={s},t={t},v={v},y={y}]",
               dict(k=k, s=s, t=t, v=v, y=y, trunc=cfg.trunc or 8))


@suite("prop4.5", first_p=True, certified=True)
def _prop45(cfg, p):
    """Proposition 4.5, the generalized eigenvalue identity of the infinite
    rational functions, as the one-site chain's.  With R(x, y) the
    certified inner product ``pr_inner``: {s + 2x + k}_q sum_e C_e R(x, y +
    e) equals {s}_q R(x, y) + sum_e D_e R(x, y + e), the braces at the
    chain's heights h_1 and h_0 (``multivar.heights``) and e in {-1, 0, 1}
    with y + e >= 0.  Residual
    left - right for (k, s, t, v) in ((1, 0, 1, 0), (2, 1, 0, -1)) and 0
    <= x, y <= 3, at the first p.  Certified: every n-sum
    (``qseries.pair_sum``, ``certified_sum``'s stop rule) is truncated
    under the run's ``TailBound``, and a report passes when |residual| <=
    tol.  ``chk_pr_gevp`` runs
    ``multivar.multi_gevp_residual_asc`` on the chain (k,): both sides read
    ``multivar._pr_pack`` (products of ``ratfun.pr_inner``), the C/D maps
    are ``multivar._shift_terms`` (``orthopoly.asc_shift_coeff``), and the
    brace symbols ``QBase.brace``."""
    for (k, s, t, v), x, y in iproduct(((1, 0, 1, 0), (2, 1, 0, -1)), range(4), range(4)):
        yield ("pr_gevp", f"gevp[k={k},s={s},t={t},v={v},x={x},y={y}]",
               dict(k=k, s=s, t=t, v=v, x=x, y=y))


@suite("prop4.6", first_p=True)
def _prop46(cfg, p):
    """Proposition 4.6, ``prop3.7`` on su11: phi_{v,h_(i-1)}(n_i, y_i) at
    weight k_i, h_i = h_(i-1) + 2 y_i + k_i, Ytilde and braces.  Exact
    residual 0, summed over the rows with every n_i < trunc of the window
    0..trunc (default 8), for ks in ((1, 1), (1, 2)), j in {1, 2}, (v, t) in
    ((0, 1), (1, 0)), ys in {0, 1}**2 and both sides, at the first p, with
    ``ev4.x``'s functions."""
    for ks in ((1, 1), (1, 2)):
        for j, (v, base) in iproduct(range(1, len(ks) + 1), ((0, 1), (1, 0))):
            for ys, side in iproduct(iproduct(range(2), range(2)), ("L", "R")):
                yield ("nested_eigen",
                       f"nested_ev_{side}[ks={ks},j={j},v={v},t={base},ys={list(ys)}]",
                       dict(side=side, j=j, v=v, base=base, sizes=ks, ys=ys,
                            su11=True, trunc=cfg.trunc or 8))


@suite("lemma4.8", first_p=True)
def _lemma48(cfg, p):
    """Lemma 4.8, two transfers of the infinite family, at the first p.

    The parameter-shifting five-point transfer: with g_t the column n ->
    phi_{v,t}(n, y) at weight k, q**(2n+k) g_t = sum_e c_e g_{t+2}(y + e)
    over e in {-2, -1, 0}, and q**(2n+k) g_t = sum_e c_e g_{t-2}(y + e) over
    e in {0, 1, 2}, each with y + e >= 0 (a coefficient at a negative shift
    must be 0).  Exact residual 0, the sum of |left - right| over both
    directions and every row n = 0..trunc (default 8), for k in {1, 2}, t
    in {1, 2, 3}, v in {0, 1} and y = 0..3.  ``chk_asc_dyn`` runs
    ``_chk_dyn``: both sides read ``orthopoly.asc_column``, the
    coefficients are ``orthopoly.asc_dyn_coeffs``, and
    ``scalar.residual_sum`` sums the rows.

    The transfer of ``lemma4.5`` on the two-site chain ks = (1, 1): for j
    in {1, 2}, ys in {0, 1, 2}**2, t = v = 0 and sigma = 1, on the window
    min(trunc, 6), the K**2 and Y identities over the interior rows, with
    the shift vectors of ``multivar.epsilon_set(2, j)``
    (``chk_multi_transfer_asc``, as in ``lemma4.5``)."""
    trunc = cfg.trunc or 8
    for k, t, v, y in iproduct((1, 2), (1, 2, 3), (0, 1), range(4)):
        yield "asc_dyn", f"dyn[k={k},t={t},v={v},y={y}]", dict(k=k, t=t, v=v, y=y, trunc=trunc)
    for j, ys in iproduct((1, 2), iproduct(range(3), range(3))):
        yield ("multi_transfer_asc", f"transfer[ks=(1,1),j={j},ys={list(ys)}]",
               dict(j=j, ys=ys, t=0, v=0, sigma=1, ks=(1, 1), trunc=min(trunc, 6)))


@suite("cor4.9", first_p=True, certified=True)
def _cor49(cfg, p):
    """Corollary 4.9, the generalized eigenvalue identity of the
    multivariate infinite rational functions on the two-site chain ks =
    (1, 1).  With R(xs, ys) the product over sites of ``pr_inner`` at the
    running heights: {h_2}_q sum_eps C_eps R(xs, ys + eps) equals
    {h_(2-j)}_q R(xs, ys) + sum_eps D_eps R(xs, ys + eps), the braces at
    the heights of xs from s (``multivar.heights``), over the
    shift vectors eps of ``multivar.epsilon_set(2, j)`` with ys + eps >= 0.
    Residual left - right for j in {1, 2}, (s, t, v) in ((1, 0, 0), (0, 1,
    -1)) and xs, ys in {0, 1}**2, at the first p.  Certified: every n-sum
    (``qseries.pair_sum``, ``certified_sum``'s stop rule) is truncated
    under the run's ``TailBound``, and a report passes when |residual| <=
    tol.  ``multivar.multi_gevp_residual_asc`` is the check: both sides read
    ``multivar._pr_pack`` (products of ``ratfun.pr_inner``), the C/D maps
    are ``multivar._shift_terms`` (``orthopoly.asc_shift_coeff``
    products), and the brace symbols ``QBase.brace``."""
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
    """Execute one task in exact scalars; errors become failing reports.

    The report is labeled by the task's contract: an exact task passes on a
    residual of exactly 0, a certified one within ``tol``.  ``mode`` must
    be ``"exact"``.
    """
    if mode != "exact":
        raise ValueError(f"verify runs exact scalars only, got mode {mode!r}")
    label = task.contract
    start = time.perf_counter()
    try:
        point = dict(task.params)
        qb = _base(point.pop("p"))
        if label == "certified":
            point["tb"] = qseries.TailBound(point.pop("tb_tol"), point.pop("tb_max_terms"))
        residual = CHECKS[task.fn](qb, **point)
        if label != "exact":
            residual = _floating(residual)
        err = ""
    except QRacahError as exc:
        residual = None
        err = f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    if residual is None:
        passed, res_str = False, "error"
    else:
        passed = residual == 0 if label == "exact" else abs(residual) <= tol
        res_str = residual_string(residual)
    return CheckReport(task.suite, task.check, task.params, res_str, passed, label, elapsed, err)


def _floating(residual):
    """A certified residual as the float it is read and serialized as; one
    past the float range is OutOfRange."""
    try:
        return float(residual)
    except OverflowError:
        bits = abs(residual.numerator).bit_length() - residual.denominator.bit_length()
        raise OutOfRange(f"residual of about 2**{bits} leaves the floating-point range") from None


def _run_task_star(args):
    return run_task(*args)


def run_suite(suite_id: str, cfg: RunConfig) -> Iterator[CheckReport]:
    """Execute a suite, yielding reports in deterministic task order.

    ``cfg.jobs`` > 1 runs the tasks in a process pool, imported on first
    use: a serial run, and every ``import qracah``, loads no
    ``multiprocessing``."""
    tasks = build_tasks(suite_id, cfg)
    tol = cfg.tol()
    if cfg.jobs <= 1:
        for task in tasks:
            yield run_task(task, "exact", tol)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        args = [(task, "exact", tol) for task in tasks]
        for report in pool.map(_run_task_star, args, chunksize=8):
            yield report
