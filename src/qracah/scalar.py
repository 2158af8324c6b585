"""Scalar backends and the deformation base q = p**2.

All formulas in this package are generic over three scalar backends:

* ``exact``   -- arbitrary-precision rationals (:class:`fractions.Fraction`),
* ``float``   -- double-precision reals,
* ``complex`` -- double-precision complex numbers.

The deformation parameter is stored as a rational ``p`` with ``q = p**2``,
so every half-integer power ``q**(m/2) = p**m`` is an exact rational in the
exact backend.  Parameters that enter exponents (``s``, ``t``, ``u``, ``v``)
must be half-integers in the exact backend; arbitrary reals (or a complex
``v``) are allowed in the floating backends.  :func:`as_exponent` keeps
integral exponents as Python ints (only a half-integer stays a Fraction),
so exponent arithmetic and the exact ``p**(2e)`` stay on ints.

A :class:`QBase` computes ``q - 1/q`` and ``q + 1/q`` once and keeps the
values of ``qpow``, ``bracket`` and ``brace`` in per-instance tables, so a
power or q-number is reduced once per base, not once per use.  A key is the
exponent with its type: ``1.0 == 1`` yet an exact base must still reject the
float, and complex exponents are never stored (equal complex numbers can
differ in the sign of a zero part, and so can their powers).  In the
floating backends a power beyond the float range raises
:class:`~qracah.errors.OutOfRange`, and a base whose q or 1/q is not a
finite nonzero float is refused with ``ValueError``.

:func:`ordered_sum` is the package's sum of products of backend scalars.
Each term is a tuple of factors (a bare scalar is one factor).  While every
factor is int or Fraction, a term is the unreduced pair of its numerator and
denominator products, and :func:`add_pair` adds it to one running pair with
a single gcd against the running denominator (Henrici's addition), so a sum
builds one Fraction, not one per product and addition; Fractions are stored
reduced, so it is the rational ``*`` and ``+`` give.  From the first factor
that is not int or Fraction on, terms are multiplied and added left to
right: the float residuals do not depend on whether the interpreter's
``sum`` compensates rounding (it does from Python 3.12 on).

A factor may also be an :class:`Unreduced` pair, an exact rational whose
numerator and denominator were never divided by their gcd (a 3phi2 column
entry, say).  The exact kernels read its two integers as they read a
Fraction's, and the term counts as rational, so a sum over such factors is
the Fraction the reduced factors give: reducing each factor first would be
a gcd the sum's own reduction makes again.

:func:`residual_sum` is the total absolute residual of a check, the sum
over rows of |sum(plus) - sum(minus)|, each side a list of factor tuples
(an operator row applied to a vector, say, against the other side of the
identity).  Checks run in the exact backend only: each row is one
unreduced integer pair, its magnitude is added to one outer pair, and a
call builds one Fraction, not one per row for each sum, difference and
``abs``.

:func:`scaled_residual` is the same sum for the checks whose rows are an
operator applied to a vector against coefficients times vectors: the
operator is held as integer rows over one denominator E and every vector
as integer numerators over their lcm (:func:`scaled`).  A check folds each
coefficient into its vector's denominator and brings them to one
denominator L; every row is then an integer dot product on one common
denominator G = lcm(E·D, L), with no gcd in the loop, and the call builds
the one Fraction of the sum of the rows' magnitudes over G.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul

from .errors import ExactnessError, OutOfRange

MODES = ("exact", "float", "complex")

# The largest exact power p**m the exact backend takes, as a bound on the
# bits of its numerator and denominator: |m| times the longer of p's two.
# A power of a million bits takes milliseconds, while q**e at e = 1e12 and
# p = 1/2 would hold 4e12 bits, about 500 GB.  The suites, the CI runs at
# p = 3/4, 9/10 and 1e-200 and the CI's long pr_inner evals take at most
# about 73,000 bits, a fourteenth of the bound.
MAX_POWER_BITS = 1 << 20


@dataclass(frozen=True, slots=True)
class Unreduced:
    """The rational numerator/denominator as an integer pair that is not
    reduced; the denominator is positive, as a Fraction's is.  It has no
    arithmetic: :func:`ordered_sum`, :func:`residual_sum` and
    ``qseries.certified_sum`` take it as a factor, and :func:`product`
    multiplies it as its Fraction.  Not a tuple: a tuple term is a factor
    tuple to those sums."""

    numerator: int
    denominator: int


def as_exponent(x):
    """Normalize a parameter for use in an exponent of q.

    Every integral int or Fraction becomes an int, so exponent arithmetic
    runs on Python ints; a non-integral Fraction (a half-integer, say)
    stays a Fraction; float/complex pass through (allowed only in the
    floating backends).
    """
    if isinstance(x, int):
        return int(x)  # bool too
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    return x


def real_part(x) -> float:
    """The real part of a parameter as a float (the complex backend parses
    every parameter as complex)."""
    x = as_exponent(x)
    return x.real if isinstance(x, complex) else float(x)


def ordered_sum(values, start=0):
    """start + v0 + v1 + ..., where a tuple value is the product of its
    factors, multiplied and added left to right.

    While ``start`` and every factor are int, Fraction or Unreduced, the
    terms are summed on one unreduced integer pair (see the module
    docstring) and the result is one Fraction, or an int if no Fraction or
    Unreduced entered: the value and the type of the ``*``/``+`` fold of
    the reduced factors.  At the first other factor the exact
    prefix becomes that fold's value, and the rest is the fold itself, so
    float and complex results keep their operation order and bits.  Plain
    ``+`` is what ``sum`` computes up to Python 3.11; from 3.12 on ``sum``
    compensates the rounding of float terms (Neumaier), so the float
    residuals of a check would depend on the interpreter.
    """
    values = iter(values)
    out = start
    if _is_exact(start):
        num, den, ratio, pending = _add_terms(values, start.numerator, start.denominator)
        # whether a Fraction entered
        ratio = ratio or not isinstance(start, int)
        out = Fraction(num, den) if ratio else num
        if pending is None:
            return out
        out = out + product(pending)
    for value in values:
        out = out + (product(value) if isinstance(value, tuple) else _reduced(value))
    return out


def residual_sum(rows, zero):
    """The sum over rows of |sum(plus) - sum(minus)|, from ``zero``: each row
    is a pair (plus, minus) of term sequences in :func:`ordered_sum`'s form.

    Every caller is a check, so ``zero`` and every factor must be int,
    Fraction or Unreduced (ExactnessError otherwise).  The value and type
    are those of ``ordered_sum((abs(ordered_sum(plus) - ordered_sum(minus,
    zero)) for plus, minus in rows), zero)``: each row is one unreduced
    integer pair (the minus terms negated), and its magnitude is added to
    one outer pair by :func:`add_pair`, so a call builds one Fraction.
    """
    if not _is_exact(zero):
        raise ExactnessError(f"a residual sums exact scalars, got zero = {zero!r}")
    zn, zd = zero.numerator, zero.denominator
    num, den = zn, zd
    ratio = not isinstance(zero, int)
    for plus, minus in rows:
        # sum(plus) - (zero + sum(minus)): the minus side starts at zero
        rn, rd, plus_ratio, pending = _add_terms(plus, -zn, zd)
        if pending is None:
            rn, rd, minus_ratio, pending = _add_terms(minus, rn, rd, True)
        if pending is not None:
            raise ExactnessError(f"a residual sums exact scalars, got the term {pending!r}")
        ratio = ratio or plus_ratio or minus_ratio
        if rn:
            num, den = add_pair(num, den, abs(rn), rd)
    return Fraction(num, den) if ratio else num


def scaled(values):
    """Exact values as (D, nums): the lcm D of their denominators and the
    tuple of integer numerators over D (D = 1 for no values).  A value
    that is not int or Fraction raises ExactnessError."""
    values = tuple(values)
    for x in values:
        if not _is_exact(x):
            raise ExactnessError(f"a scaled vector holds exact scalars, got {x!r}")
    den = math.lcm(*(x.denominator for x in values))
    return den, tuple(x.numerator * (den // x.denominator) for x in values)


def scaled_rows(rows):
    """Sparse rows {column: exact entry} as (E, op_rows): E the lcm of
    every entry's denominator, op_rows[i] the pair (columns, integer
    entries over E) of row i, the operator form of :func:`scaled_residual`."""
    E, entries = scaled(a for row in rows for a in row.values())
    entries = iter(entries)
    return E, tuple((tuple(row), tuple(islice(entries, len(row)))) for row in rows)


def scaled_residual(op, vec, terms, rows, zero):
    """The sum over the row indices ``rows`` of |(A vec)[i] - sum_e c_e
    vec_e[i]|, on one common denominator.

    ``op`` is (E, op_rows): row i of A is op_rows[i], a pair (columns,
    integer entries) over the positive denominator E.  ``vec`` and each
    vec_e are :func:`scaled` pairs (D, nums), and ``terms`` holds the pairs
    (c_e, vec_e) of exact coefficients; an eigenvalue is the term
    (lambda, vec).  Each coefficient is folded into its vector's
    denominator, c_e / D_e, and these are brought to one denominator L
    with integer multipliers M_e; with G = lcm(E·D, L), row i is the
    integer lhs·(G / (E·D)) - sum_e M_e·nums_e[i]·(G / L), lhs the dot
    product of row i of A with vec's numerators.

    ``zero`` is the backend's exact zero (0 or Fraction(0)).  The value is
    :func:`residual_sum`'s over the same rows read as rationals.  The
    result is the int sum when ``zero`` and every c_e are ints and E and
    every D are 1, as all-int inputs give, and the Fraction of the sum over
    G otherwise: residual_sum's type whenever ``zero`` is a Fraction, as a
    check's is, or the inputs are all ints.
    """
    if not _is_exact(zero) or zero:
        raise ExactnessError(f"a residual sums from an exact zero, got zero = {zero!r}")
    E, op_rows = op
    D, nums = vec
    ratio = type(zero) is not int or E != 1 or D != 1
    kappas = []
    for c, (De, we) in terms:
        if not _is_exact(c):
            raise ExactnessError(f"a residual sums exact scalars, got the coefficient {c!r}")
        ratio = ratio or De != 1 or type(c) is not int
        kappas.append((Fraction(c.numerator, c.denominator * De), we))
    L = math.lcm(*(k.denominator for k, _ in kappas))
    G = math.lcm(E * D, L)
    scale, rhs_scale = G // (E * D), G // L
    mults = [(k.numerator * (L // k.denominator) * rhs_scale, we) for k, we in kappas]
    at = nums.__getitem__
    total = 0
    for i in rows:
        columns, entries = op_rows[i]
        r = scale * sum(map(mul, entries, map(at, columns)))
        for m, we in mults:
            r -= m * we[i]
        total += abs(r)
    return Fraction(total, G) if ratio else total


def _is_exact(x) -> bool:
    # type() first: isinstance(x, Fraction) on any other type runs the slow
    # ABC check (Fraction is a numbers.Rational)
    return type(x) is Fraction or type(x) is int or isinstance(x, (int, Fraction))


def _add_terms(terms, num, den, negate=False):
    """Add the terms (negated with ``negate``) to the pair num/den.

    Returns (num, den, ratio, pending): the pair after the last term whose
    factors are all int, Fraction or Unreduced, whether a Fraction or
    Unreduced factor entered those terms, and the factor tuple of the first
    term with another factor (``None`` if there is none).  An iterator is
    left just past that term.
    """
    ratio = False
    for value in terms:
        factors = value if isinstance(value, tuple) else (value,)
        tn = td = 1
        term_ratio = False
        for f in factors:
            if type(f) is Fraction or type(f) is Unreduced:
                tn *= f.numerator
                td *= f.denominator
                term_ratio = True
            elif type(f) is int or isinstance(f, int):
                tn *= f
            elif isinstance(f, Fraction):
                tn *= f.numerator
                td *= f.denominator
                term_ratio = True
            else:
                return num, den, ratio, factors
        if negate:
            tn = -tn
        if td == 1:
            # an integer term needs no gcd
            num += tn * den
        else:
            num, den = add_pair(num, den, tn, td)
        ratio = ratio or term_ratio
    return num, den, ratio, None


def add_pair(num, den, tn, td):
    """num/den + tn/td as an unreduced integer pair: one gcd against the
    running denominator ``den`` (Henrici's addition)."""
    g = math.gcd(den, td)
    td //= g
    return num * td + tn * (den // g), den * td


def product(factors):
    """f0 * f1 * ..., multiplied left to right; an Unreduced factor is
    multiplied as its Fraction."""
    out = _reduced(factors[0])
    for f in factors[1:]:
        out = out * _reduced(f)
    return out


def _reduced(f):
    return Fraction(f.numerator, f.denominator) if type(f) is Unreduced else f


_MISSING = object()


def _tabled(table, compute, e):
    """table[e, type(e)], computed on a miss.  A call that raises stores
    nothing, and a complex exponent is never stored: complex(x, 0.0) ==
    complex(x, -0.0), yet their powers can differ in the sign of a zero."""
    key = (e, type(e))
    value = table.get(key, _MISSING)
    if value is _MISSING:
        value = compute(e)
        if type(e) is not complex:
            table[key] = value
    return value


class QBase:
    """The base q = p**2 with a fixed scalar backend.

    ``p`` must be a positive rational different from 1 (so q > 0, q != 1).
    In the exact backend every half-integer power of q is the exact rational
    p**m; the floating backends evaluate powers with math/cmath.
    """

    __slots__ = ("p", "mode", "_q", "_logq", "_qdiff", "_qsum", "_hash",
                 "_powers", "_brackets", "_braces", "_zero", "_one")

    def __init__(self, p, mode: str = "exact"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        if isinstance(p, float) and mode == "exact":
            raise ExactnessError("exact mode requires a rational p")
        self.p = Fraction(p) if not isinstance(p, float) else p
        if mode == "exact":
            if self.p.numerator <= 0 or self.p.numerator == self.p.denominator:
                raise ValueError("p must be positive and different from 1")
            self._q = self.p * self.p
            self._logq = None
        else:
            if not self.p > 0 or self.p == 1:
                raise ValueError("p must be positive and different from 1")
            try:
                pf = float(self.p)
            except OverflowError:
                pf = math.inf
            self._q = pf * pf
            # q and 1/q must be finite, nonzero floats, and q must differ from 1
            if not (0 < self._q < math.inf and 1 / self._q < math.inf) or self._q == 1:
                raise ValueError(f"p = {p} gives the unusable floating-point base q = {self._q!r}")
            self._logq = 2.0 * math.log(pf)
        inv = 1 / self._q
        self._qdiff = self._q - inv
        self._qsum = self._q + inv
        # every table key holds a base: hash it once, not on each lookup
        self._hash = hash((self.p, mode))
        # (exponent, its type) -> q**e, [e]_q, {e}_q: see _tabled
        self._powers = {}
        self._brackets = {}
        self._braces = {}
        # scalars are immutable: every zero() and one() can be the same one
        self._zero = self.scalar(0)
        self._one = self.scalar(1)

    # -- scalar constructors -------------------------------------------------

    def scalar(self, x):
        """Cast an exact number into this backend's scalar type."""
        if self.mode == "exact":
            if isinstance(x, float):
                raise ExactnessError(f"cannot use float {x!r} in exact mode")
            return Fraction(x) if not isinstance(x, Fraction) else x
        if self.mode == "complex":
            return complex(x)
        return float(x)

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    @property
    def q(self):
        return self._q

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    # -- powers ---------------------------------------------------------------

    def qpow(self, e):
        """q**e.  Exact iff 2e is an integer (then q**e = p**(2e))."""
        return _tabled(self._powers, self._qpow, e)

    def _qpow(self, e):
        e = as_exponent(e)
        if self.mode == "exact":
            te = 2 * e
            if type(e) is not int:
                if not isinstance(te, Fraction) or te.denominator != 1:
                    raise ExactnessError(f"exponent {e} is not a half-integer")
                te = te.numerator
            pbits = max(self.p.numerator.bit_length(), self.p.denominator.bit_length())
            if abs(te) * pbits > MAX_POWER_BITS:
                # e itself can be too long to print
                raise OutOfRange(f"q**e with |2e| > {MAX_POWER_BITS // pbits} needs more than "
                                 f"{MAX_POWER_BITS} bits in the exact backend")
            return self.p ** te
        try:
            if isinstance(e, complex):
                if self.mode != "complex":
                    raise ExactnessError("complex exponent requires the complex backend")
                return cmath.exp(e * self._logq)
            val = math.exp(float(e) * self._logq)
        except OverflowError as exc:
            raise OutOfRange(f"q**{e} leaves the floating-point range") from exc
        return complex(val) if self.mode == "complex" else val

    def inverse(self) -> "QBase":
        """The base with p replaced by 1/p (hence q by 1/q)."""
        return QBase(1 / self.p, self.mode)

    # -- backend-dependent scalar operations ----------------------------------

    def conj(self, z):
        """Complex conjugation; the identity on exact and real scalars."""
        if self.mode == "complex":
            return z.conjugate() if isinstance(z, complex) else z
        return z

    # -- the two q-number brackets --------------------------------------------

    def bracket(self, t):
        """[t]_q = (q**t - q**-t) / (q - 1/q)."""
        return _tabled(self._brackets, self._bracket, t)

    def _bracket(self, t):
        return (self.qpow(t) - self.qpow(-1 * as_exponent(t))) / self._qdiff

    def brace(self, t):
        """{t}_q = (q**t + q**-t) / (q + 1/q)."""
        return _tabled(self._braces, self._brace, t)

    def _brace(self, t):
        return (self.qpow(t) + self.qpow(-1 * as_exponent(t))) / self._qsum

    @property
    def bracket_brace_ratio(self):
        """(q - 1/q) / (q + 1/q), the scale relating the two brackets."""
        return self._qdiff / self._qsum

    def __eq__(self, other):
        return isinstance(other, QBase) and self.p == other.p and self.mode == other.mode

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"QBase(p={self.p}, mode={self.mode!r})"
