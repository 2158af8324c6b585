"""The two discrete orthogonal families and their transfer-coefficient tables.

Both families are renormalized terminating 3phi2's in base q**-2:

* ``kraw``  -- the finite family on {0..N} (dual q-Krawtchouk flavour),
  orthogonal in both variables with weights ``kraw_w`` / ``kraw_W``;
* ``asc``   -- the infinite family on the nonnegative integers
  (Al-Salam--Chihara flavour), orthogonal with weights ``asc_w`` / ``asc_W``.

The *_diff_coeffs / *_b_coeffs / *_d_coeffs / *_dyn_coeffs functions tabulate
the three-term (and parameter-shifting five-point) transfer coefficients that
move a diagonal action in n to a tridiagonal action in x.  Every table here
is machine-verified against the defining identities by the test suite; the
exact normalizations are pinned by the n = 0 row, where every polynomial
equals 1, so each coefficient row must sum to the diagonal symbol at n = 0
(q**-N for the finite family, q**k for the infinite one).

The infinite family is the finite one at N = -k: the 3phi2 (``_series``
and ``_column``), the three-term table (``_diff_coeffs``), the
twisted-action table (``_b_coeffs``, brackets or braces), the
five-point table (``_dyn_coeffs``) and the n-side weight (``_w_column``)
are each written once, taking ``su11``
and a size that is N or -k.  The finite side negates each parameter whose
exponent carries s or t (other than through s - t) and its prefactor
carries (-1)**n; the upper-boundary zeros (y = N, y >= N, y >= N - 1) are
finite-only.  Exponents keep the infinite formulas' addend order (- c*k
becomes + c*size) and signs are applied by negation, so every value,
signed zeros included, is bit-identical to each family's formula written
out on its own, except the infinite d_-1, whose height keeps the finite
addend order 2y - size + t + v - 1 (a float or complex k, t, v may round
it differently from 2y + t + k + v - 1).  The x-side weights
(``kraw_W``/``asc_W``) and the orthogonality sums stay per family: their
algorithms differ, not only their parameters.

Values that run over n are rows, ``tables._Row``: entries 0, 1, ...
computed in order on first request and kept, grown under a lock.  A sum
over n fetches each row once and reads it by index.

* Polynomial values are columns over n.  ``_column(qb, su11, size, u, s,
  x)`` holds q**(n(s-u-size/2+1/2)) times entry n of the twist-free
  series column ``_series(qb, su11, size, s, x)``: u enters only the
  prefactor, so every twist reads one 3phi2 per (s, x).  ``kraw``/``asc``
  read a column by index and ``kraw_column``/``asc_column`` hand a whole
  column to the sums over n.  The inner products of ``ratfun`` read the
  two series and fold both prefactors into one power, in every backend.
  Each value still comes
  from its own series, never from the recurrences that the verify suites
  check: in an exact base the series column is the exact 3phi2 column
  ``qseries._Phi32Column`` (n-free term ratios computed once per column,
  one Horner pass per entry), in the floating backends one ``rphis`` per
  entry, ``_series_entry``.  An exact series entry is the unreduced
  Horner pair, a tuple (numerator, positive denominator):
  ``_column_entry`` builds one Fraction from the prefactor's pair times
  it, and the exact inner products multiply it unreduced into the integer
  pairs of their terms.  For int s, u and size the
  prefactor exponent is n(2s-2u-size+1)/2 on ints, the same power as the
  general expression.
* The n-side weights of both families are one row body, ``_w_column(qb,
  su11, size)``, fetched by ``kraw_w_column(qb, N)`` and ``asc_w_column(qb,
  k)``: the ratio row ``_ratio_row(qb, -2size, size+1)`` of q**(n(size+1))
  (q**(-2size); q**2)_n / (q**2; q**2)_n, on the finite side signed
  (-1)**n, ending at n = N and read at min(n, N - n), as ``kraw_w`` =
  q**(n(n-N)) times the q**2-binomial is symmetric.  A ratio row grows by
  its consecutive ratio, the lead power folded into each step, so each
  entry stays near its value: no Pochhammer prefix (n**2 bits near q = 1,
  past the float range at q > 1) and no q**(n(size+1)) is built.  An exact
  entry is the direct ``qpoch``/``qbinom`` formula's Fraction; ``asc_W``
  reads the row at (2k, 0), so it needs q**2k only.

The rows, ``kraw_W``/``asc_W`` and the ``*_diff_coeffs``/``*_dyn_coeffs``
tables are ``tables.tabled``: the first call at a key stores the value for
the life of the process, later calls return that same object, so every
value is bit-identical to the undecorated function's.  Keys carry the
type of each scalar argument, so a float exponent never reads the entry of
an equal ``Fraction``, and ``QBase`` equality includes the backend, so
exact and floating bases never share a row; calls and row entries that
raise store nothing.  The certified infinite sums refuse q > 1 before
their first term (``qseries.require_q_below_one``).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import wraps
from typing import NamedTuple

from .errors import DenominatorPole, OutOfRange
from .qseries import (
    DEFAULT_MAX_TERMS,
    PhiSpec,
    TailBound,
    _Phi32Column,
    certified_sum,
    qbinom,
    qpoch,
    qpoch_inf_ratio,
    require_q_below_one,
    rphis,
)
from .scalar import QBase, as_exponent, ordered_sum, real_part
from .tables import _Row, tabled

_HALF = Fraction(1, 2)


class KrawParams(NamedTuple):
    """Parameter pack for the finite family: twist u, base point s, size N."""

    u: object
    s: object
    N: int
    qb: QBase


class ASCParams(NamedTuple):
    """Parameter pack for the infinite family: twist u, base point s, weight k."""

    u: object
    s: object
    k: object
    qb: QBase
    tb: TailBound = TailBound()


# ---------------------------------------------------------------------------
# one body per formula: the infinite family is the finite one at N = -k
# ---------------------------------------------------------------------------


def _signed_qpow(qb: QBase, su11: bool):
    """e -> q**e on the su11 side, e -> -q**e on the su2 side: the finite
    family negates every parameter whose exponent carries s or t other than
    through s - t."""
    if su11:
        return qb.qpow
    return lambda e: -qb.qpow(e)


def _diff_coeffs(qb: QBase, su11: bool, size, y: int, t):
    """The three-term table of either family; only the finite family has
    the upper boundary y = N."""
    qp, sq = qb.qpow, _signed_qpow(qb, su11)
    zero = qb.zero()
    if y == 0:
        am1 = zero
    else:
        am1 = sq(-4 * y - 2 * t + 3 * size + 2) * (1 - qp(-2 * y)) * (
            1 - sq(-2 * y - 2 * t)
        ) / ((1 - sq(-4 * y - 2 * t + 2 * size + 2)) * (1 - sq(-4 * y - 2 * t + 2 * size)))
    if not su11 and y == size:
        a1 = zero
    else:
        a1 = qp(-size) * (1 - qp(-2 * y + 2 * size)) * (
            1 - sq(-2 * y - 2 * t + 2 * size)
        ) / ((1 - sq(-4 * y - 2 * t + 2 * size)) * (1 - sq(-4 * y - 2 * t + 2 * size - 2)))
    a0 = qp(-size) - am1 - a1
    return am1, a0, a1


def _b_coeffs(qb: QBase, su11: bool, size, y: int, t, v):
    """The twisted-action table of either family: its three-term table
    times brackets on the finite side, braces on the infinite one, at the
    height 2y - size + t."""
    if su11:
        sym, (am1, a0, a1) = qb.brace, asc_diff_coeffs(qb, -size, y, t)
    else:
        sym, (am1, a0, a1) = qb.bracket, kraw_diff_coeffs(qb, size, y, t)
    h = 2 * y - size + t
    return (am1 * sym(h + v - 1),
            a0 * sym(h) * qb.brace(v) - sym(t) * qb.brace(v),
            a1 * sym(h - v + 1))


def _dyn_coeffs(qb: QBase, su11: bool, size, y: int, t, direction: int):
    """The five-point table of either family; only the finite family has
    the upper-boundary zeros, at y >= N and y >= N - 1."""
    if direction not in (2, -2):
        raise OutOfRange(f"direction must be +-2, got {direction}")
    qp, sq = qb.qpow, _signed_qpow(qb, su11)
    qs = qp(-size)
    zero = qb.zero()
    if direction == 2:
        am22 = zero if y <= 1 else qs * (1 - qp(2 * y)) * (1 - qp(2 * y - 2)) / (
            (1 - sq(4 * y + 2 * t - 2 * size)) * (1 - sq(4 * y + 2 * t - 2 * size - 2)))
        am12 = zero if y == 0 else qs * (1 + qp(2)) * (1 - qp(2 * y)) * (
            1 - sq(-2 * y + 2 * size - 2 * t)) / (
            (1 - sq(4 * y + 2 * t - 2 * size + 2)) * (1 - sq(-4 * y + 2 * size - 2 * t + 2)))
        a02 = qs * (1 - sq(-2 * y + 2 * size - 2 * t)) * (1 - sq(-2 * y + 2 * size - 2 * t - 2)) / (
            (1 - sq(-4 * y + 2 * size - 2 * t)) * (1 - sq(-4 * y + 2 * size - 2 * t - 2)))
        return am22, am12, a02
    a0m2 = qs * (1 - sq(2 * y + 2 * t)) * (1 - sq(2 * y + 2 * t - 2)) / (
        (1 - sq(4 * y + 2 * t - 2 * size)) * (1 - sq(4 * y + 2 * t - 2 * size - 2)))
    a1m2 = zero if not su11 and y >= size else qs * (1 + qp(2)) * (1 - qp(-2 * y + 2 * size)) * (
        1 - sq(2 * y + 2 * t)) / (
        (1 - sq(-4 * y + 2 * size - 2 * t + 2)) * (1 - sq(4 * y + 2 * t - 2 * size + 2)))
    a2m2 = zero if not su11 and y >= size - 1 else qs * (1 - qp(-2 * y + 2 * size)) * (
        1 - qp(-2 * y + 2 * size - 2)) / (
        (1 - sq(-4 * y + 2 * size - 2 * t)) * (1 - sq(-4 * y + 2 * size - 2 * t - 2)))
    return a0m2, a1m2, a2m2


# ---------------------------------------------------------------------------
# rows over n: Pochhammer ratios, weights and polynomial values
# ---------------------------------------------------------------------------


@tabled
def _ratio_row(qb: QBase, e, d) -> _Row:
    """The row of q**(dm) (q**e; q**2)_m / (q**2; q**2)_m, m = 0, 1, ...:
    entry m is entry m - 1 times (q**d - q**(d+e) f) / (1 - q**2 f) at f =
    q**(2m-2).  The lead q**d is folded into every step, so each entry stays
    near the value it is and no power past q**d, q**(d+e+2m-2) or q**(2m)
    is taken; a floating entry outside the float range raises OutOfRange.

    An exact base runs the step on integer pairs, one Fraction per entry:
    near q = 1 the two Pochhammer prefixes grow like m**2 bits while their
    ratio stays small.  The powers are made at entry 1, q**d first, so a d
    or e that is not a half-integer raises there.
    """
    if not qb.is_exact:
        def entry(m):
            if m == 0:
                return qb.one()
            out = row[m - 1] * ((qb.qpow(d) - qb.qpow(d + e + 2 * m - 2)) / (1 - qb.qpow(2 * m)))
            if not cmath.isfinite(out):
                raise OutOfRange(f"entry {m} of a ratio row leaves the floating-point range")
            return out
    else:
        pairs = None  # q**d, q**(d+e) and q**2 as integer pairs, made at entry 1
        fu = fd = 1  # f = fu / fd

        def entry(m):
            nonlocal pairs, fu, fd
            if m == 0:
                return qb.one()
            if pairs is None:
                pairs = [(f.numerator, f.denominator)
                         for f in (qb.qpow(d), qb.qpow(d + e), qb.qpow(2))]
            (an, ad), (cn, cd), (u, v) = pairs
            out = row[m - 1] * Fraction(v * (an * cd * fd - cn * ad * fu),
                                        ad * cd * (v * fd - u * fu))
            fu, fd = fu * u, fd * v
            return out

    row = _Row(entry)
    return row


def _series_entry(qb: QBase, su11: bool, size, s, x: int, n: int):
    return rphis(
        PhiSpec(
            numerators=(
                qb.qpow(2 * n),
                qb.qpow(2 * x),
                _signed_qpow(qb, su11)(-2 * x - 2 * s + 2 * size),
            ),
            denominators=(qb.qpow(2 * size),),
            base=qb.qpow(-2),
            argument=qb.qpow(-2),
            terminate_after=min(n, x) + 1,
        )
    )


@tabled
def _series(qb: QBase, su11: bool, size, s, x: int) -> _Row:
    """The column over n of the renormalized terminating 3phi2 of either
    family at (s, x).  The twist u enters only the prefactor, so every u
    reads this one column.  An exact base takes the exact column
    ``qseries._Phi32Column`` (Q = q**2, C = +-q**(-2x-2s+2size), B =
    q**(2size)); the floating backends evaluate each entry by ``rphis``."""
    if qb.is_exact:
        sq = _signed_qpow(qb, su11)
        return _Row(_Phi32Column(
            lambda: (x, sq(-2 * x - 2 * s + 2 * size), qb.qpow(2 * size), qb.qpow(2)),
            DEFAULT_MAX_TERMS))
    return _Row(_series_entry, qb, su11, size, s, x)


def _column_entry(qb: QBase, su11: bool, size, u, s, series: _Row, n: int):
    if type(s) is int and type(u) is int and type(size) is int:
        # the exponent n(2s-2u-size+1)/2 on ints; an odd numerator stays a half
        m = n * (2 * s - 2 * u - size + 1)
        e = Fraction(m, 2) if m % 2 else m // 2
    else:
        e = n * (s - u - size * _HALF + _HALF)
    pref = qb.qpow(e)
    if not su11:
        pref = (-1) ** n * pref
    entry = series[n]
    if qb.is_exact:
        # the series entry is an integer pair: one Fraction for the product
        num, den = entry
        return Fraction(pref.numerator * num, pref.denominator * den)
    return pref * entry


@tabled
def _column(qb: QBase, su11: bool, size, u, s, x: int) -> _Row:
    """The column over n of either family's values at (u, s, x): the
    prefactor q**(n(s-u-size/2+1/2)), with (-1)**n on the finite side,
    times the twist-free series."""
    if su11:
        require_positive_k(-size)
    return _Row(_column_entry, qb, su11, size, u, s, _series(qb, su11, size, s, x))


@tabled
def _w_column(qb: QBase, su11: bool, size) -> _Row:
    """The n-side weights of either family: entry n is (-+1)**n
    q**(n(size+1)) (q**(-2size); q**2)_n / (q**2; q**2)_n, the ratio row
    itself at size -k; at size N it ends at n = N and, being symmetric
    under n <-> N - n, reads ratio entry min(n, N - n)."""
    ratio = _ratio_row(qb, as_exponent(-2 * size), as_exponent(size + 1))
    if su11:
        return ratio

    def entry(n):
        if n > size:
            raise OutOfRange(f"n = {n} outside 0..{size}")
        n = min(n, size - n)
        return -ratio[n] if n % 2 else ratio[n]

    return _Row(entry)


# ---------------------------------------------------------------------------
# finite family
# ---------------------------------------------------------------------------


def kraw_column(kp: KrawParams, x: int) -> _Row:
    """The values kraw(kp, n, x), n = 0, 1, ..., N, as one column read by
    index; an x outside 0..N raises before any entry is computed."""
    if not 0 <= x <= kp.N:
        raise OutOfRange(f"x = {x} outside 0..{kp.N}")
    return _column(kp.qb, False, kp.N, as_exponent(kp.u), as_exponent(kp.s), x)


def kraw(kp: KrawParams, n: int, x: int):
    """Evaluate the finite family member at (n, x), 0 <= n, x <= N."""
    if not (0 <= n <= kp.N and 0 <= x <= kp.N):
        raise OutOfRange(f"(n, x) = ({n}, {x}) outside 0..{kp.N}")
    return kraw_column(kp, x)[n]


def kraw_w_column(qb: QBase, N: int) -> _Row:
    """The weights kraw_w(qb, N, n), n = 0, 1, ..., N, as one row read by
    index; an entry past N raises OutOfRange."""
    return _w_column(qb, False, N)


def kraw_w(qb: QBase, N: int, n: int):
    """n-side weight: q**(n(n-N)) times the q**2-binomial; invariant under
    q <-> 1/q.  Entry n of ``_w_column`` at size N."""
    if not 0 <= n <= N:
        raise OutOfRange(f"n = {n} outside 0..{N}")
    return kraw_w_column(qb, N)[n]


@tabled
def kraw_W(qb: QBase, s, N: int, x: int):
    """x-side weight, evaluated in base 1/q (``b`` below), the base every
    usage site needs."""
    if not 0 <= x <= N:
        raise OutOfRange(f"x = {x} outside 0..{N}")
    b = qb.inverse()
    s = as_exponent(s)
    q2 = b.qpow(2)
    out = (1 + b.qpow(4 * x + 2 * s - 2 * N)) / (1 + b.qpow(2 * s - 2 * N))
    out *= qpoch(-b.qpow(2 * s - 2 * N), q2, x) / qpoch(-b.qpow(2 * s + 2), q2, x)
    out *= b.qpow(-x * (2 * s + 1 + x - 2 * N)) / qpoch(-b.qpow(-2 * s), q2, N)
    return out * qbinom(N, x, q2)


def kraw_orth_x(kp: KrawParams, n: int, n2: int):
    """Residual of the x-summed orthogonality: sum_x k(n,x) k(n2,x) W(x) - delta/w(n)."""
    k0 = KrawParams(0, kp.s, kp.N, kp.qb)
    acc = ordered_sum(
        (kraw(k0, n, x), kraw(k0, n2, x), kraw_W(kp.qb, kp.s, kp.N, x))
        for x in range(kp.N + 1)
    )
    if n == n2:
        acc -= 1 / kraw_w(kp.qb, kp.N, n)
    return acc


def kraw_orth_n(kp: KrawParams, x: int, x2: int):
    """Residual of the n-summed orthogonality: sum_n k(n,x) k(n,x2) w(n) - delta/W(x)."""
    k0 = KrawParams(0, kp.s, kp.N, kp.qb)
    left, right, w = kraw_column(k0, x), kraw_column(k0, x2), kraw_w_column(kp.qb, kp.N)
    acc = ordered_sum((left[n], right[n], w[n]) for n in range(kp.N + 1))
    if x == x2:
        acc -= 1 / kraw_W(kp.qb, kp.s, kp.N, x)
    return acc


@tabled
def kraw_diff_coeffs(qb: QBase, N: int, y: int, t):
    """Three-term transfer coefficients (a_-1, a_0, a_1) for the diagonal
    symbol q**(2n-N): q**(2n-N) k(n,y) = sum_eps a_eps k(n, y+eps).

    Boundary coefficients vanish (a_-1 at y=0, a_1 at y=N) and are returned
    as exact zeros without evaluating the shifted formula, which can hit a
    removable 0/0 there.  The middle coefficient is fixed by the n=0 row:
    a_-1 + a_0 + a_1 = q**-N.
    """
    if not 0 <= y <= N:
        raise OutOfRange(f"y = {y} outside 0..{N}")
    return _diff_coeffs(qb, False, N, y, as_exponent(t))


def kraw_b_coeffs(qb: QBase, N: int, y: int, t, v):
    """Tridiagonal coefficients (b_-1, b_0, b_1) of the twisted-element action;
    the full identity adds [s]_q on the diagonal."""
    return _b_coeffs(qb, False, N, y, as_exponent(t), as_exponent(v))


@tabled
def kraw_dyn_coeffs(qb: QBase, N: int, y: int, t, direction: int):
    """Parameter-shifting transfer coefficients for the finite family.

    direction=+2: q**(2n-N) k_{v,t}(n,y) = sum of k_{v,t+2}(n, y+eps) over
    eps in (-2,-1,0); direction=-2 shifts t down with eps in (0,1,2).
    Returned in increasing eps order.  The common factor q**-N is pinned by
    the n=0 row sum.
    """
    if not 0 <= y <= N:
        raise OutOfRange(f"y = {y} outside 0..{N}")
    return _dyn_coeffs(qb, False, N, y, as_exponent(t), direction)


def kraw_shift_coeff(qb: QBase, N: int, y: int, t, eps: int, delta: int):
    """Unified lookup a_(eps, delta): delta=0 for the static triple, +-2 for
    the parameter-shifting tables.  Only the nine legal (eps, delta) pairs
    exist; anything else raises OutOfRange."""
    return _shift_coeff(kraw_diff_coeffs, kraw_dyn_coeffs, qb, N, y, t, eps, delta)


# the legal eps of each delta, in the order of its coefficient triple
_SHIFT_EPS = {0: (-1, 0, 1), 2: (-2, -1, 0), -2: (0, 1, 2)}


def _shift_coeff(diff_coeffs, dyn_coeffs, qb, size, y, t, eps, delta):
    legal = _SHIFT_EPS.get(delta)
    if legal is None:
        raise OutOfRange(f"delta = {delta} is not one of -2, 0, +2")
    if eps not in legal:
        sign = "+" if delta > 0 else ""
        raise OutOfRange(f"eps = {eps} illegal for delta = {sign}{delta}")
    row = dyn_coeffs(qb, size, y, t, delta) if delta else diff_coeffs(qb, size, y, t)
    return row[legal.index(eps)]


# ---------------------------------------------------------------------------
# infinite family
# ---------------------------------------------------------------------------


def require_positive_k(k) -> None:
    """Refuse Re(k) <= 0: the infinite family and the non-compact
    representation live on the lowest weight k > 0."""
    if not real_part(k) > 0:
        raise OutOfRange(f"k must be positive, got k = {k}")


def asc_column(ap: ASCParams, x: int) -> _Row:
    """The values asc(ap, n, x), n = 0, 1, ..., as one column read by index;
    a negative x raises before any entry is computed."""
    if x < 0:
        raise OutOfRange(f"x = {x} must be nonnegative")
    return _column(ap.qb, True, -as_exponent(ap.k), as_exponent(ap.u), as_exponent(ap.s), x)


def asc(ap: ASCParams, n: int, x: int):
    """Evaluate the infinite family member at (n, x), n, x >= 0."""
    if n < 0 or x < 0:
        raise OutOfRange(f"(n, x) = ({n}, {x}) must be nonnegative")
    return asc_column(ap, x)[n]


def asc_w_column(qb: QBase, k) -> _Row:
    """The weights asc_w(qb, k, n), n = 0, 1, ..., as one row read by index."""
    require_positive_k(k)
    return _w_column(qb, True, -as_exponent(k))


def asc_w(qb: QBase, k, n: int):
    """n-side weight q**(-n(k-1)) (q**2k; q**2)_n / (q**2; q**2)_n: entry n
    of ``_w_column`` at size -k.  Entry 0 is 1, and a k that is not a
    half-integer raises at entry 1."""
    if n < 0:
        raise OutOfRange(f"n = {n} must be nonnegative")
    return asc_w_column(qb, k)[n]


def _poles_named(table):
    """Make a coefficient or weight table raise DenominatorPole, not ZeroDivisionError,
    at parameters where one of its denominator factors vanishes."""

    @wraps(table)
    def checked(qb, *args, **kwargs):
        try:
            return table(qb, *args, **kwargs)
        except ZeroDivisionError as exc:
            point = ", ".join([*map(str, args), *(f"{k}={v}" for k, v in kwargs.items())])
            raise DenominatorPole(
                f"{table.__name__}({point}): a denominator factor vanishes"
            ) from exc

    return checked


@tabled
@_poles_named
def asc_W(qb: QBase, s, k, x: int, tb: TailBound = TailBound()):
    """x-side weight; positive for s > -1, k > 0, decays like q**(2x(x+s)).

    The infinite Pochhammer pair is evaluated as a single truncated ratio so
    both factors share one truncation point.
    """
    if x < 0:
        raise OutOfRange(f"x = {x} must be nonnegative")
    require_positive_k(k)
    s, k = as_exponent(s), as_exponent(k)
    q2 = qb.qpow(2)
    out = (1 - qb.qpow(4 * x + 2 * s + 2 * k)) / (1 - qb.qpow(2 * x + 2 * s + 2 * k))
    out *= _ratio_row(qb, as_exponent(2 * k), 0)[x]
    out *= qpoch_inf_ratio(qb.qpow(2 * x + 2 * s + 2), qb.qpow(2 * x + 2 * s + 2 * k + 2), q2, tb)
    return out * qb.qpow(2 * x * (x + s))


def asc_orth_n(ap: ASCParams, x: int, x2: int):
    """Residual of the n-summed orthogonality (infinite sum, certified):
    sum_n phi(n,x) phi(n,x2) w_k(n) - delta/W_k(x)."""
    require_q_below_one(ap.qb)
    a0 = ASCParams(0, ap.s, ap.k, ap.qb, ap.tb)
    left, right, w = asc_column(a0, x), asc_column(a0, x2), asc_w_column(ap.qb, ap.k)

    def terms():
        n = 0
        while True:
            yield left[n], right[n], w[n]
            n += 1

    acc = certified_sum(terms(), ap.tb)
    if x == x2:
        acc -= 1 / asc_W(ap.qb, ap.s, ap.k, x, ap.tb)
    return acc


def asc_orth_x(ap: ASCParams, n: int, n2: int):
    """Residual of the x-summed orthogonality; the weight decays
    super-geometrically, so the certificate closes quickly."""
    require_q_below_one(ap.qb)
    a0 = ASCParams(0, ap.s, ap.k, ap.qb, ap.tb)

    def terms():
        x = 0
        while True:
            yield asc(a0, n, x), asc(a0, n2, x), asc_W(ap.qb, ap.s, ap.k, x, ap.tb)
            x += 1

    acc = certified_sum(terms(), ap.tb)
    if n == n2:
        acc -= 1 / asc_w(ap.qb, ap.k, n)
    return acc


@tabled
@_poles_named
def asc_diff_coeffs(qb: QBase, k, y: int, t):
    """Three-term transfer coefficients (c_-1, c_0, c_1) for the diagonal
    symbol q**(2n+k).  The boundary coefficient c_-1 vanishes at y=0 (and is
    short-circuited: its closed form is 0/0 there for some parameters); the
    n=0 row pins c_-1 + c_0 + c_1 = q**k."""
    if y < 0:
        raise OutOfRange(f"y = {y} must be nonnegative")
    return _diff_coeffs(qb, True, -as_exponent(k), y, as_exponent(t))


def asc_d_coeffs(qb: QBase, k, y: int, t, v):
    """Tridiagonal coefficients (d_-1, d_0, d_1) of the twisted-element
    action for the infinite family; the identity adds {s}_q on the diagonal."""
    return _b_coeffs(qb, True, -as_exponent(k), y, as_exponent(t), as_exponent(v))


@tabled
@_poles_named
def asc_dyn_coeffs(qb: QBase, k, y: int, t, direction: int):
    """Parameter-shifting transfer coefficients for the infinite family,
    in increasing eps order; the n=0 row pins the common factor q**k.

    There is no upper boundary in y, so only the downward-shift coefficients
    vanish (at y=0 and y<=1)."""
    if y < 0:
        raise OutOfRange(f"y = {y} must be nonnegative")
    return _dyn_coeffs(qb, True, -as_exponent(k), y, as_exponent(t), direction)


def asc_shift_coeff(qb: QBase, k, y: int, t, eps: int, delta: int):
    """Unified lookup c_(eps, delta), mirroring kraw_shift_coeff."""
    return _shift_coeff(asc_diff_coeffs, asc_dyn_coeffs, qb, k, y, t, eps, delta)
