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
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ExactnessError

MODES = ("exact", "float", "complex")


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


class QBase:
    """The base q = p**2 with a fixed scalar backend.

    ``p`` must be a positive rational different from 1 (so q > 0, q != 1).
    In the exact backend every half-integer power of q is the exact rational
    p**m; the floating backends evaluate powers with math/cmath.
    """

    __slots__ = ("p", "mode", "_q", "_pf", "_hash")

    def __init__(self, p, mode: str = "exact"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        if isinstance(p, float) and mode == "exact":
            raise ExactnessError("exact mode requires a rational p")
        self.p = Fraction(p) if not isinstance(p, float) else p
        pf = float(self.p)
        if not pf > 0 or pf == 1.0:
            raise ValueError("p must be positive and different from 1")
        self._pf = pf
        self._q = self.p * self.p if mode == "exact" else pf * pf
        # every table key holds a base: hash it once, not on each lookup
        self._hash = hash((self.p, mode))

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
        return self.scalar(1)

    def zero(self):
        return self.scalar(0)

    @property
    def q(self):
        return self._q

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    # -- powers ---------------------------------------------------------------

    def qpow(self, e):
        """q**e.  Exact iff 2e is an integer (then q**e = p**(2e))."""
        e = as_exponent(e)
        if self.mode == "exact":
            if type(e) is int:
                return self.p ** (2 * e)
            te = 2 * e
            if not isinstance(te, Fraction) or te.denominator != 1:
                raise ExactnessError(f"exponent {e} is not a half-integer")
            return self.p ** te.numerator
        logq = 2.0 * math.log(self._pf)
        if isinstance(e, complex):
            if self.mode != "complex":
                raise ExactnessError("complex exponent requires the complex backend")
            return cmath.exp(e * logq)
        val = math.exp(float(e) * logq)
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
        return (self.qpow(t) - self.qpow(-1 * as_exponent(t))) / (self._q - 1 / self._q)

    def brace(self, t):
        """{t}_q = (q**t + q**-t) / (q + 1/q)."""
        return (self.qpow(t) + self.qpow(-1 * as_exponent(t))) / (self._q + 1 / self._q)

    @property
    def bracket_brace_ratio(self):
        """(q - 1/q) / (q + 1/q), the scale relating the two brackets."""
        return (self._q - 1 / self._q) / (self._q + 1 / self._q)

    def __eq__(self, other):
        return isinstance(other, QBase) and self.p == other.p and self.mode == other.mode

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"QBase(p={self.p}, mode={self.mode!r})"


def qpow(qb: QBase, e):
    """q**e in the backend of ``qb``."""
    return qb.qpow(e)


def qbracket(qb: QBase, t):
    """The symmetric q-number [t]_q = (q**t - q**-t)/(q - 1/q)."""
    return qb.bracket(t)


def qbrace(qb: QBase, t):
    """The companion q-number {t}_q = (q**t + q**-t)/(q + 1/q)."""
    return qb.brace(t)
