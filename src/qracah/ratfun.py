"""Univariate rational overlap functions of q-Racah type.

``rr_*`` is the finite family: the pairing of two finite-family polynomial
vectors under the n-side weight.  ``rr_inner`` (a finite sum of terminating
series, hence unconditionally exact) is the reference; ``rr_closed`` is the
terminating 4phi3 closed form under test, which has genuine poles at
isolated parameter points rejected by ``rr_valid``.

``pr_*`` is the infinite analogue built on the Al-Salam--Chihara-type
family; its inner product converges for Re(v) < 1 + s + t and is evaluated
under the tail certificate, and its closed form carries a ratio of infinite
Pochhammers computed as one shared truncated product.

Both pairings are evaluated bilinearly (no conjugation inside the sum): for
real parameters this is literally the weighted inner product, and it is the
analytic continuation in v that makes closed form and biorthogonality hold
verbatim for complex v with partner -conj(v) - 2 and an outer conjugation.

Both inner products sum the terms of ``_inner_terms``: one power of q, the
entries of the two twist-free 3phi2 series columns and the n-side weight,
read off rows fetched once per sum.  In an exact base the power and the
weight are one stored row per (base, family, size, power),
``_coefficient_row``, and each term is the integer pair of that entry times
the two series entries (``_inner_pairs``), summed by ``qseries.pair_sum``:
one Fraction per sum, the value and the stopping term of the fold.

``rr_inner``, ``rr_closed`` and ``pr_inner`` are ``tables.tabled``: each
(parameters, x, y) is evaluated once per process and the biorthogonality
and recurrence residuals, and the ``lemma2.1`` and ``prop3.3`` suites,
which both read ``rr_closed`` at the same points, reuse that very value,
so results are bit-identical to an untabled call; a pole raises and stores
nothing.  ``rr_closed`` and ``pr_closed`` read the factors of their
prefactor that a point fixes from one table per point (``_rr_prefactors``,
``_pr_prefactors``): the x- and y-free product, and pack tables of the
quotient of x only and of y only, each formed by the inline expression and
multiplied in the inline order, so every float and complex bit is kept.
Complex parameters that differ only in the sign of a zero part key one
table, as they key one ``rr_inner`` entry.

``summation_pair_qracah`` is Lemma 2.1 at the q-Racah point: its sides are
``rr_closed`` and ``rr_inner`` (``qseries`` has the general form).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple

from .errors import DenominatorPole, NonConvergent, OutOfRange
from .orthopoly import (
    _series,
    _signed_qpow,
    _w_column,
    asc_w_column,
    asc_W,
    kraw_w_column,
    require_positive_k,
)
from .qseries import (
    PhiSpec,
    TailBound,
    certified_sum,
    pair_sum,
    qpoch,
    qpoch_inf_ratio,
    require_q_below_one,
    rphis,
)
from .scalar import QBase, as_exponent, ordered_sum, real_part
from .tables import _Points, _Row, tabled


class RrParams(NamedTuple):
    """Parameters of the finite rational family."""

    s: object
    t: object
    v: object
    N: int
    qb: QBase


class PrParams(NamedTuple):
    """Parameters of the infinite rational family; needs 0 < q < 1 and, for
    the inner product, Re(v) < 1 + s + t."""

    s: object
    t: object
    v: object
    k: object
    qb: QBase
    tb: TailBound = TailBound()


def _inner_terms(qb: QBase, su11: bool, size, s, t, v, x: int, y: int, w: _Row):
    """The terms (q**(n(s+t-v-size)), left[n], right[n], w[n]), n = 0, 1,
    ..., of either family's inner product at twists 1 and v.

    ``left`` and ``right`` are the twist-free series columns at (s, x) and
    (t, y).  The column prefactors q**(n(s-1/2-size/2)) and
    q**(n(t-v-size/2+1/2)) are one power, and their (-1)**n signs on the
    finite side cancel, so each term is that power, the two series entries
    and the weight.  Only the combined power has to be a half-integer
    power of q: where each prefactor alone would need a root of p (s = 1/4,
    t = 3/4, v = 0, say) the sum is still exact.
    """
    left, right = _series(qb, su11, size, s, x), _series(qb, su11, size, t, y)
    e = s + t - v - size
    return ((qb.qpow(n * e), left[n], right[n], w[n]) for n in count())


@tabled
def _coefficient_row(qb: QBase, su11: bool, size, e) -> _Row:
    """Entry n is q**(n e) times the n-side weight of either family, as
    the integer pair of its Fraction: the power and weight of every
    exact inner product with e = s + t - v - size, formed once."""
    w = _w_column(qb, su11, size)

    def entry(n):
        c = qb.qpow(n * e) * w[n]
        return c.numerator, c.denominator

    return _Row(entry)


def _inner_pairs(qb: QBase, su11: bool, size, s, t, v, x: int, y: int):
    """The terms of ``_inner_terms`` in an exact base, each the integer
    pair of the product: the ``_coefficient_row`` entry times the two
    series entries.  A term reads the three stored lists, and a row grows
    through ``row[n]`` only past its end.  A term raises the error
    ``_inner_terms`` raises: the power is read first there too, and the
    weight, read here before the series entries, raises only from entry 1
    on at a k that is not a half-integer, where no series entry of the
    same n raises (a series at such a k raises at entry 0 or not before
    its term limit)."""
    left, right = _series(qb, su11, size, s, x), _series(qb, su11, size, t, y)
    e = s + t - v - size
    coef = _coefficient_row(qb, su11, size, e)
    cs, ls, rs = coef.row, left.row, right.row
    for n in count():
        try:
            (cn, cd), (ln, ld), (rn, rd) = cs[n], ls[n], rs[n]
        except IndexError:
            (cn, cd), (ln, ld), (rn, rd) = coef[n], left[n], right[n]
        yield cn * ln * rn, cd * ld * rd


@tabled
def rr_inner(rp: RrParams, x: int, y: int):
    """Reference evaluation: sum_n k_{1,s}(n,x) k_{v,t}(n,y) w(n), the
    first N + 1 terms of ``_inner_terms``, the route ``pr_inner`` takes (an
    exact base sums their integer pairs, ``_inner_pairs``)."""
    if not (0 <= x <= rp.N and 0 <= y <= rp.N):
        raise OutOfRange(f"(x, y) = ({x}, {y}) outside 0..{rp.N}")
    qb, N = rp.qb, rp.N
    s, t, v = as_exponent(rp.s), as_exponent(rp.t), as_exponent(rp.v)
    if qb.is_exact:
        return pair_sum(islice(_inner_pairs(qb, False, N, s, t, v, x, y), N + 1))
    terms = _inner_terms(qb, False, N, s, t, v, x, y, kraw_w_column(qb, N))
    return ordered_sum(islice(terms, N + 1))


def _pole_index(s, t, v, y):
    # the only real-parameter pole of the closed forms: the denominator
    # parameter q**(-2y+s-t-v+1) equals q**(-2j) at j = y - (s-t-v+1)/2
    e = as_exponent(s) - as_exponent(t) - as_exponent(v) + 1
    if isinstance(e, int):
        # integer parity: e / 2 would be a float, inexact beyond 2**53
        return None if e % 2 else y - e // 2
    j = y - e / 2
    if isinstance(j, Fraction):
        return int(j) if j.denominator == 1 else None
    if isinstance(j, complex):
        if j.imag != 0:
            return None
        j = j.real
    return int(j) if float(j) == int(j) else None


def rr_valid(rp, x: int, y: int) -> bool:
    """True unless the 4phi3 denominator parameter q**(-2y+s-t-v+1) hits
    q**(-2j) for a j inside the x-terminated summation range.  The infinite
    family has the same pole pattern: ``pr_valid`` is this function."""
    j = _pole_index(rp.s, rp.t, rp.v, y)
    return j is None or not 0 <= j <= x - 1


def _require_valid(rp, x: int, y: int) -> None:
    if not rr_valid(rp, x, y):
        raise DenominatorPole(
            f"q^(-2y+s-t-v+1) = q^(-2j) with j = {_pole_index(rp.s, rp.t, rp.v, y)}"
            f" inside the series range 0..{x - 1}"
        )


def _phi43(qb: QBase, su11: bool, size, s, t, v, x: int, y: int):
    """The terminating 4phi3 in base q**2 of either closed form, with size N
    for the finite family and -k for the infinite one."""
    q2 = qb.qpow(2)
    sq = _signed_qpow(qb, su11)
    return rphis(
        PhiSpec(
            numerators=(
                qb.qpow(-2 * x),
                sq(2 * x + 2 * s - 2 * size),
                sq(s + t - v + 1),
                qb.qpow(s - t - v + 1),
            ),
            denominators=(
                sq(2 * s + 2),
                qb.qpow(-2 * y + s - t - v + 1),
                sq(2 * y + s + t - 2 * size - v + 1),
            ),
            base=q2,
            argument=q2,
            terminate_after=x + 1,
        )
    )


@tabled
def rr_closed(rp: RrParams, x: int, y: int):
    """Closed form: prefactor times the terminating 4phi3 in base q**2.

    Agrees with rr_inner on the whole validity domain; raises
    DenominatorPole at rejected points (the offending parameter is the
    denominator entry q**(-2y+s-t-v+1)).
    """
    if not (0 <= x <= rp.N and 0 <= y <= rp.N):
        raise OutOfRange(f"(x, y) = ({x}, {y}) outside 0..{rp.N}")
    _require_valid(rp, x, y)
    qb = rp.qb
    s, t, v = as_exponent(rp.s), as_exponent(rp.t), as_exponent(rp.v)
    c1, X, Y = _rr_prefactors(qb, s, t, v, rp.N)
    c1 *= X[x]
    c1 *= Y[y]
    ser = _phi43(qb, False, rp.N, s, t, v, x, y)
    return c1 * ser


@tabled
def _rr_prefactors(qb: QBase, s, t, v, N):
    """The factors of ``rr_closed``'s prefactor that one point fixes: the
    x-free and y-free (-q**(-2N+s+t-v+1); q**2)_N, and the tables of the
    quotient of x only and of the quotient of y only."""
    q2 = qb.qpow(2)

    def x_quotient(x):
        return qpoch(-qb.qpow(-2 * x - 2 * s), q2, x) / qpoch(qb.qpow(-2 * N), q2, x)

    def y_quotient(y):
        return qpoch(qb.qpow(-2 * y + s - t - v + 1), q2, y) / qpoch(
            -qb.qpow(s + t - 2 * N - v + 1), q2, y
        )

    return qpoch(-qb.qpow(-2 * N + s + t - v + 1), q2, N), _Points(x_quotient), _Points(y_quotient)


def summation_pair_qracah(qb: QBase, N: int, s, t, v, x: int, y: int):
    """(product side, series side) of Lemma 2.1 at the q-Racah point (the
    ``lemma2.1`` suite): ``rr_closed``, prefactor ``_rr_prefactors`` times
    the 4phi3 ``_phi43``, and ``rr_inner``, whose power times ``kraw_w`` is
    the coefficient (bcd)**n (a; q**2)_n / (q**2; q**2)_n and whose series
    columns are the two 3phi2's."""
    rp = RrParams(s, t, v, N, qb)
    return rr_closed(rp, x, y), rr_inner(rp, x, y)


def biorth_overlap(qb: QBase, relation: str, s, t, idx, idx2, left, right):
    """The summand of one biorthogonality relation between the families
    ``left(x, y)`` and ``right(x, y)``.

    Returns ``(outer, diag, overlap)``: relation="x" sums the product of
    the two factors ``overlap(u) = (left(u, idx), conj(right(u, idx2)))``
    against the weight at ``outer = s`` and subtracts the inverse weight at
    ``diag = t`` on the diagonal; relation="y" sums over the second
    argument with s and t swapped.  The factors come unmultiplied so that a
    certified sum can take them as one term's factor tuple.
    """
    if relation == "x":
        return s, t, lambda u: (left(u, idx), qb.conj(right(u, idx2)))
    if relation == "y":
        return t, s, lambda u: (left(idx, u), qb.conj(right(idx2, u)))
    raise OutOfRange(f"relation must be 'x' or 'y', got {relation!r}")


# ---------------------------------------------------------------------------
# the infinite family
# ---------------------------------------------------------------------------


def _pr_convergent(pp: PrParams) -> bool:
    return real_part(pp.v) < real_part(pp.s) + real_part(pp.t) + 1


@tabled
def pr_inner(pp: PrParams, x: int, y: int):
    """Certified evaluation of sum_n phi_{1,s}(n,x) phi_{v,t}(n,y) w_k(n);
    the terms decay like q**(n(s+t+1-v)), so Re(v) < 1+s+t is required.

    The terms are ``_inner_terms`` at size -k: the power q**(n(s+t-v+k)),
    the two series entries and the weight, folded by ``certified_sum``; an
    exact base sums their integer pairs (``_inner_pairs``) by
    ``qseries.pair_sum`` under the same stop rule, the same rational as the
    product of the column values.  At k = 1/2, s = 0, t = v = 1/2 the
    power is q**(n/2), where each prefactor alone would need a root of p.
    """
    if x < 0 or y < 0:
        raise OutOfRange(f"(x, y) = ({x}, {y}) must be nonnegative")
    require_positive_k(pp.k)
    require_q_below_one(pp.qb)
    if not _pr_convergent(pp):
        raise NonConvergent(
            f"inner product diverges: Re(v) = {pp.v} >= 1 + s + t"
        )
    qb = pp.qb
    s, t, v, k = (as_exponent(pp.s), as_exponent(pp.t), as_exponent(pp.v), as_exponent(pp.k))
    if qb.is_exact:
        return pair_sum(_inner_pairs(qb, True, -k, s, t, v, x, y), pp.tb)
    terms = _inner_terms(qb, True, -k, s, t, v, x, y, asc_w_column(qb, pp.k))
    return certified_sum(terms, pp.tb)


pr_valid = rr_valid


def pr_closed(pp: PrParams, x: int, y: int):
    """Closed form: the infinite Pochhammer ratio (shared truncation) times
    finite Pochhammers times the terminating 4phi3 in base q**2."""
    if x < 0 or y < 0:
        raise OutOfRange(f"(x, y) = ({x}, {y}) must be nonnegative")
    require_positive_k(pp.k)
    if not _pr_convergent(pp):
        raise NonConvergent(f"closed form requires Re(v) < 1 + s + t, got v = {pp.v}")
    _require_valid(pp, x, y)
    qb = pp.qb
    s, t, v, k = (as_exponent(pp.s), as_exponent(pp.t), as_exponent(pp.v), as_exponent(pp.k))
    c1, X, Y = _pr_prefactors(qb, s, t, v, k, pp.tb)
    c1 *= Y[y]
    c1 *= X[x]
    ser = _phi43(qb, True, -k, s, t, v, x, y)
    return c1 * ser


@tabled
def _pr_prefactors(qb: QBase, s, t, v, k, tb):
    """The factors of ``pr_closed``'s prefactor that one point fixes: the
    infinite Pochhammer ratio, and the tables of the quotient of y only and
    of the quotient of x only."""
    q2 = qb.qpow(2)

    def y_quotient(y):
        return qpoch(qb.qpow(-2 * y + s - t - v + 1), q2, y) / qpoch(
            qb.qpow(s + t + 2 * k - v + 1), q2, y
        )

    def x_quotient(x):
        return qpoch(qb.qpow(-2 * x - 2 * s), q2, x) / qpoch(qb.qpow(2 * k), q2, x)

    ratio = qpoch_inf_ratio(qb.qpow(s + t + 2 * k - v + 1), qb.qpow(s + t - v + 1), q2, tb)
    return ratio, _Points(x_quotient), _Points(y_quotient)


def pr_biorth_residual(pp: PrParams, relation: str, idx: int, idx2: int):
    """Residual of the infinite biorthogonality relation; requires
    |Re(v) + 1| < 2 + s + t so both family members converge.  The outer sum
    is truncated by :func:`certified_sum` under ``pp.tb``: it stops once
    three consecutive terms fall below tolerance*(1-RATIO_CAP) with term
    ratios at most ``RATIO_CAP`` (``qseries``)."""
    qb = pp.qb
    v = pp.v
    require_q_below_one(qb)
    if not abs(real_part(v) + 1) < 2 + real_part(pp.s) + real_part(pp.t):
        raise NonConvergent(f"biorthogonality needs |Re(v)+1| < 2+s+t, got v = {v}")
    vpart = -qb.conj(v) - 2
    partner = PrParams(pp.s, pp.t, vpart, pp.k, qb, pp.tb)
    outer, diag, overlap = biorth_overlap(
        qb, relation, pp.s, pp.t, idx, idx2,
        lambda x, y: pr_inner(pp, x, y), lambda x, y: pr_inner(partner, x, y))

    def terms():
        u = 0
        while True:
            yield (*overlap(u), asc_W(qb, outer, pp.k, u, pp.tb))
            u += 1

    acc = certified_sum(terms(), pp.tb)
    if idx == idx2:
        acc -= 1 / asc_W(qb, diag, pp.k, idx, pp.tb)
    return acc

