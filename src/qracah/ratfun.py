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

``rr_inner`` and ``pr_inner`` are ``tables.tabled``: each (parameters, x, y)
is summed once per process and the biorthogonality and recurrence residuals
reuse that very value, so results are bit-identical to an untabled sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorPole, NonConvergent, OutOfRange
from .orthopoly import (
    ASCParams,
    KrawParams,
    _signed_qpow,
    asc,
    asc_d_coeffs,
    asc_diff_coeffs,
    asc_w,
    asc_W,
    kraw,
    kraw_b_coeffs,
    kraw_diff_coeffs,
    kraw_w,
    kraw_W,
)
from .qseries import PhiSpec, TailBound, certified_sum, qpoch, qpoch_inf_ratio, rphis
from .scalar import QBase, as_exponent
from .tables import tabled


@dataclass(frozen=True)
class RrParams:
    """Parameters of the finite rational family."""

    s: object
    t: object
    v: object
    N: int
    qb: QBase


@dataclass(frozen=True)
class PrParams:
    """Parameters of the infinite rational family; needs 0 < q < 1 and, for
    the inner product, Re(v) < 1 + s + t."""

    s: object
    t: object
    v: object
    k: object
    qb: QBase
    tb: TailBound = TailBound()


@tabled
def rr_inner(rp: RrParams, x: int, y: int):
    """Reference evaluation: sum_n k_{1,s}(n,x) k_{v,t}(n,y) w(n)."""
    if not (0 <= x <= rp.N and 0 <= y <= rp.N):
        raise OutOfRange(f"(x, y) = ({x}, {y}) outside 0..{rp.N}")
    left = KrawParams(1, rp.s, rp.N, rp.qb)
    right = KrawParams(rp.v, rp.t, rp.N, rp.qb)
    return sum(
        kraw(left, n, x) * kraw(right, n, y) * kraw_w(rp.qb, rp.N, n)
        for n in range(rp.N + 1)
    )


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
    N = rp.N
    q2 = qb.qpow(2)
    c1 = qpoch(-qb.qpow(-2 * N + s + t - v + 1), q2, N)
    c1 *= qpoch(-qb.qpow(-2 * x - 2 * s), q2, x) / qpoch(qb.qpow(-2 * N), q2, x)
    c1 *= qpoch(qb.qpow(-2 * y + s - t - v + 1), q2, y) / qpoch(
        -qb.qpow(s + t - 2 * N - v + 1), q2, y
    )
    ser = _phi43(qb, False, N, s, t, v, x, y)
    return c1 * ser


def _conj_param(qb: QBase, v):
    if qb.mode == "complex" and isinstance(v, complex):
        return v.conjugate()
    return v


def rr_biorth_residual(rp: RrParams, relation: str, idx: int, idx2: int):
    """Residual of the biorthogonality relation against the partner family
    with v replaced by -conj(v) - 2.

    relation="x" sums over x with weight W(x,s): the result is
    delta_{idx,idx2} / W(idx, t) for row indices (y, y') = (idx, idx2).
    relation="y" is the symmetric statement summing over y.
    """
    qb = rp.qb
    vpart = -_conj_param(qb, rp.v) - 2
    partner = RrParams(rp.s, rp.t, vpart, rp.N, qb)
    outer, diag, overlap = biorth_overlap(
        qb, relation, rp.s, rp.t, idx, idx2,
        lambda x, y: rr_inner(rp, x, y), lambda x, y: rr_inner(partner, x, y))
    acc = 0
    for u in range(rp.N + 1):
        left, right = overlap(u)
        acc += left * right * kraw_W(qb, outer, rp.N, u)
    if idx == idx2:
        acc -= 1 / kraw_W(qb, diag, rp.N, idx)
    return acc


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


def rr_gevp_residual(rp: RrParams, x: int, y: int, path: str = "inner"):
    """Residual of the generalized-eigenvalue three-term identity in y.

    [2x-N+s]_q (a_-1 R(x,y-1) + a_0 R(x,y) + a_1 R(x,y+1))
      - (b_-1 R(x,y-1) + (b_0 + [s]_q) R(x,y) + b_1 R(x,y+1)).

    Boundary terms are dropped exactly where their coefficient vanishes.
    path="inner" (total) or "closed" (raises at validity-rejected points).
    """
    return _gevp_residual(rp, x, y, False, rr_inner if path == "inner" else rr_closed)


def _gevp_residual(p, x, y, su11, evaluate):
    """The three-term identity of either family: brackets, the a/b tables
    and y <= N for the finite one; braces, the c/d tables and no upper
    boundary in y for the infinite one."""
    qb = p.qb
    if su11:
        sym = qb.brace
        ev = sym(2 * x + as_exponent(p.k) + as_exponent(p.s))
        a, b = asc_diff_coeffs(qb, p.k, y, p.t), asc_d_coeffs(qb, p.k, y, p.t, p.v)
    else:
        sym = qb.bracket
        ev = sym(2 * x - p.N + as_exponent(p.s))
        a, b = kraw_diff_coeffs(qb, p.N, y, p.t), kraw_b_coeffs(qb, p.N, y, p.t, p.v)
    (am1, a0, a1), (bm1, b0, b1) = a, b
    val = evaluate(p, x, y)
    lhs = a0 * val
    rhs = (b0 + sym(p.s)) * val
    if y > 0:
        val = evaluate(p, x, y - 1)
        lhs += am1 * val
        rhs += bm1 * val
    if su11 or y < p.N:
        val = evaluate(p, x, y + 1)
        lhs += a1 * val
        rhs += b1 * val
    return ev * lhs - rhs


# ---------------------------------------------------------------------------
# the infinite family
# ---------------------------------------------------------------------------


def _re(x) -> float:
    # the complex backend parses every parameter as complex: compare real parts
    x = as_exponent(x)
    return x.real if isinstance(x, complex) else float(x)


def _pr_convergent(pp: PrParams) -> bool:
    return _re(pp.v) < _re(pp.s) + _re(pp.t) + 1


@tabled
def pr_inner(pp: PrParams, x: int, y: int):
    """Certified evaluation of sum_n phi_{1,s}(n,x) phi_{v,t}(n,y) w_k(n);
    the terms decay like q**(n(s+t+1-v)), so Re(v) < 1+s+t is required."""
    if x < 0 or y < 0:
        raise OutOfRange(f"(x, y) = ({x}, {y}) must be nonnegative")
    if not _pr_convergent(pp):
        raise NonConvergent(
            f"inner product diverges: Re(v) = {pp.v} >= 1 + s + t"
        )
    left = ASCParams(1, pp.s, pp.k, pp.qb, pp.tb)
    right = ASCParams(pp.v, pp.t, pp.k, pp.qb, pp.tb)

    def terms():
        n = 0
        while True:
            yield asc(left, n, x), asc(right, n, y), asc_w(pp.qb, pp.k, n)
            n += 1

    return certified_sum(terms(), pp.tb)


pr_valid = rr_valid


def pr_closed(pp: PrParams, x: int, y: int):
    """Closed form: the infinite Pochhammer ratio (shared truncation) times
    finite Pochhammers times the terminating 4phi3 in base q**2."""
    if x < 0 or y < 0:
        raise OutOfRange(f"(x, y) = ({x}, {y}) must be nonnegative")
    if not _pr_convergent(pp):
        raise NonConvergent(f"closed form requires Re(v) < 1 + s + t, got v = {pp.v}")
    _require_valid(pp, x, y)
    qb = pp.qb
    s, t, v, k = (as_exponent(pp.s), as_exponent(pp.t), as_exponent(pp.v), as_exponent(pp.k))
    q2 = qb.qpow(2)
    c1 = qpoch_inf_ratio(qb.qpow(s + t + 2 * k - v + 1), qb.qpow(s + t - v + 1), q2, pp.tb)
    c1 *= qpoch(qb.qpow(-2 * y + s - t - v + 1), q2, y) / qpoch(
        qb.qpow(s + t + 2 * k - v + 1), q2, y
    )
    c1 *= qpoch(qb.qpow(-2 * x - 2 * s), q2, x) / qpoch(qb.qpow(2 * k), q2, x)
    ser = _phi43(qb, True, -k, s, t, v, x, y)
    return c1 * ser


def pr_biorth_residual(pp: PrParams, relation: str, idx: int, idx2: int):
    """Residual of the infinite biorthogonality relation; requires
    |Re(v) + 1| < 2 + s + t so both family members converge.  The outer sum
    is truncated by :func:`certified_sum` under ``pp.tb``: it stops once
    three consecutive terms fall below tolerance*(1-ratio_cap) with term
    ratios below ``ratio_cap``."""
    qb = pp.qb
    v = pp.v
    if not abs(_re(v) + 1) < 2 + _re(pp.s) + _re(pp.t):
        raise NonConvergent(f"biorthogonality needs |Re(v)+1| < 2+s+t, got v = {v}")
    vpart = -_conj_param(qb, v) - 2
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


def pr_gevp_residual(pp: PrParams, x: int, y: int):
    """Residual of the three-term identity for the infinite family, with
    {2x+k+s}_q on the left; float-precision contract (the closed form's
    infinite Pochhammer ratio prevents exact cancellation)."""
    return _gevp_residual(pp, x, y, True, pr_inner)
