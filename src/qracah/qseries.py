"""q-shifted factorials, q-binomials and basic hypergeometric series.

Terminating series are evaluated exactly in the exact backend.  Truncated
infinite objects carry an error certificate controlled by a
:class:`TailBound`, and the certificates differ in strength:

* non-terminating :func:`rphis` has a *proved* bound: it stops at term J only
  when R, a bound on every later term ratio derived from the parameters
  (see ``_ratio_bound``), satisfies R < 1 and ``|t_J| R / (1 - R) <=
  tolerance``, so the neglected tail is at most ``tolerance``;
* :func:`certified_sum` (``pr_inner``, ``pr_biorth_residual``,
  ``asc_orth_*``, the infinite ``summation_rhs``, the multivariate shell
  sums) only sees its terms, so it stops once the current term is
  below ``tolerance * (1 - RATIO_CAP)`` and the *observed* term ratios have
  stayed below ``RATIO_CAP``; that bounds the tail only if later ratios
  stay below the cap too.  The sums of the infinite family call
  :func:`require_q_below_one` first: their weights decay only for q < 1;
* ``qpoch_inf`` / ``qpoch_inf_ratio`` bound the relative error of the
  product to first order.

If a certificate cannot be met within ``max_terms``,
:class:`~qracah.errors.NonConvergent` is raised rather than returning an
unreliable value.

When the base, the argument and every parameter are int or Fraction (the
exact backend, hence every certified check), :func:`rphis` sums on Python
ints: each parameter is a (numerator, denominator) pair, a factor
1 - a*base**j is the pair (a_d f_d - a_n f_n, a_d f_d), the term and the
running total share one unreduced denominator, and a single Fraction is
built at the end.  Zero factors (termination, denominator poles) are the
integer tests a_n f_n == a_d f_d in the same loop.  The result is
bit-identical to summing factor by factor in Fraction arithmetic: both are
the same rational, and Fractions are stored reduced.  The term magnitudes
the proved tail bound reads are ``abs(n) / d`` of the unreduced pair, which
int true division rounds correctly, so they are the floats ``float()`` of
the reduced term gives.  Float and complex series run the floating loop,
whose operation order fixes their results.

:func:`pair_sum` sums exact terms given as integer pairs: each is added to
one running pair by :func:`~qracah.scalar.add_pair`, the step
:func:`~qracah.scalar.ordered_sum` uses (Henrici's addition: a single gcd
against the running denominator, none on a divisor chain), its magnitude
is the same correctly rounded quotient, and one Fraction is built at the
end.  Given a TailBound it stops by the one stop rule of the module,
``_stop_rule``, a filter on the pairs that reads two counters, the
trailing terms below the floor and the trailing ratios at most the cap, so
each term costs O(1) however long the sum runs.  The exact inner products
(``ratfun.rr_inner``/``pr_inner``) pass it their terms' pairs.
:func:`certified_sum` takes each term as a tuple of factors and sums exact
terms or floating ones, never both: an exact first term makes each term
the integer pair of its factors' numerator and denominator products,
summed by the same loop, so it stops at the term Fraction arithmetic would
stop at and returns the same rational; a floating first term makes every
term the left-to-right product of its factors, summed in order, and the
stop rule alone reads their magnitudes.

:func:`qpoch` multiplies int or Fraction inputs the same way: each factor
1 - a*base**i is an integer pair, the pairs multiply unreduced, and one
Fraction (an int for int inputs) is built at the end, the rational the
factor-by-factor product gives.  :func:`qpoch_inf_ratio` runs on integer
pairs for a Fraction base too: its stop test reads the correctly rounded
quotients of the unreduced a*base**m pairs, the floats of the reduced
values, so it stops at the same factor.  Its running pair is cancelled
against each factor, since the ratios its callers pass telescope: their
reduced value stays small while an unreduced pair grows like m**2 bits.

Both families' polynomial series (``orthopoly._series``) are columns over
n of one terminating 3phi2(Q**n, Q**x, C; B; 1/Q, 1/Q), whose term ratios
depend on n only through the numerator Q**n.  In the exact backend the
column body is ``_Phi32Column``, written once here: the n-free ratios are
reduced integer pairs computed once per column, the pairs 1 - Q**m are
read from one row per Q (``_one_minus_row``), and entry n is one Horner
pass on one unreduced integer pair, or, past the first 16 entries, the
same pair from the column's polynomial in Q**n stepped from the entry
before.  It is kept as that tuple (numerator, positive denominator),
whose value is the rational ``rphis`` gives, with its errors raised from
the same entry read.  The pair is not reduced: its gcd removes a small
share of its bits, and both readers multiply it into a value that is
reduced once anyway (a polynomial column entry builds one Fraction from
its prefactor and the pair, ``orthopoly._column_entry``, and an exact
inner product's term goes to ``pair_sum``, ``ratfun._inner_pairs``).
The float and complex backends evaluate each entry by its own ``rphis``
(``orthopoly._series_entry``), so their bits are those of the series
loop.

The summation identity (Lemma 2.1) is written here in its general form,
``summation_lhs`` and ``summation_rhs`` for any (a, b, c, d), each side a
direct expression.  Its q-Racah point is the finite rational function:
``ratfun.summation_pair_qracah`` returns ``rr_closed`` and ``rr_inner``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, count, islice
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import DenominatorPole, ExactnessError, NonConvergent, OutOfRange
from .scalar import QBase, _add_terms, add_pair, ordered_sum, product
from .tables import _Row, tabled

DEFAULT_MAX_TERMS = 20000
# the first entry of a _Phi32Column read from its power-basis form: the
# form costs a few Horner entries to build, and the columns of 13 entries
# or fewer (N <= 12) measured no faster with it
_POWER_FROM = 16
# the bound certified_sum's stop rule puts on its last term ratios
RATIO_CAP = 0.9
_INF = math.inf


class _TailBound(NamedTuple):
    tolerance: float = 1e-12
    max_terms: int = DEFAULT_MAX_TERMS


class TailBound(_TailBound):
    """Truncation policy for infinite sums and products.

    The bound ``tolerance`` gives depends on the consumer:

    * non-terminating series (:func:`rphis`): a *proved* bound on the
      *absolute* truncation error, from a bound on every later term ratio
      derived from the series parameters;
    * sums (:func:`certified_sum`): if summation stops, the *absolute*
      truncation error is at most ``tolerance`` provided the
      post-truncation term ratios stay below ``RATIO_CAP``; this is only
      checked on the observed ratios, so it is not a proof;
    * products (:func:`qpoch_inf`, :func:`qpoch_inf_ratio`): ``tolerance``
      bounds the tail of the log-product, hence the *relative* error of the
      product, not the absolute one.

    ``max_terms`` is the one limit on the terms or factors any of them reads.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_tolerance(self.tolerance)
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        return self


def check_tolerance(tolerance) -> None:
    """Refuse a tolerance that is not a positive finite number: NaN passes
    every ``<=`` test, and a stop rule compared against it never fires."""
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")


def qpoch(a, base, n: int):
    """The q-shifted factorial (a; base)_n = prod_{i<n} (1 - a*base**i).

    The empty product (n = 0) is 1.  When a and base are int or Fraction the
    factors are multiplied on one unreduced integer pair and a single
    Fraction is built at the end (an int when both are ints), the rational
    factor-by-factor Fraction arithmetic gives.
    """
    if n < 0:
        raise OutOfRange(f"Pochhammer length {n} is negative")
    if isinstance(a, (int, Fraction)) and isinstance(base, (int, Fraction)):
        an, ad = _pair(a)
        bn, bd = _pair(base)
        num = den = fn = fd = 1
        for _ in range(n):
            # 1 - a*base**i = (ad fd - an fn) / (ad fd) with base**i = fn/fd
            num *= ad * fd - an * fn
            den *= ad * fd
            fn *= bn
            fd *= bd
        if isinstance(a, Fraction) or isinstance(base, Fraction):
            return Fraction(num, den)
        return num
    one = a * 0 + base * 0 + 1
    out = one
    f = one
    for _ in range(n):
        out *= 1 - a * f
        f *= base
    return out


def qpoch_inf(a, base, tb: TailBound = TailBound()):
    """The infinite product (a; base)_inf, |base| < 1: the truncated ratio over
    (0; base)_inf = 1, so its *relative* error is at most about ``tolerance``;
    the absolute error scales with |(a; base)_inf|."""
    return qpoch_inf_ratio(a, 0, base, tb)


def qpoch_inf_ratio(a_top, a_bot, base, tb: TailBound = TailBound()):
    """(a_top; base)_inf / (a_bot; base)_inf as a single truncated product.

    Sharing one truncation point makes the ratio converge faster than the
    two factors separately.  Truncation stops once both |a_top*base**m| and
    |a_bot*base**m| are below tolerance*(1-|base|), so each log-product
    tail is bounded by ``tolerance`` (to first order) and the *relative*
    error of the ratio is at most about 2*tolerance; the absolute error
    scales with the ratio itself.

    When a_top, a_bot and base are int or Fraction (an int base with
    |base| < 1 is 0), the product runs on integer pairs: a*base**m is an
    unreduced pair whose correctly rounded quotient, the float of the
    reduced value, is the stop test; a vanishing denominator factor is an
    integer test; each factor is an integer pair cancelled into the running
    pair by two gcds against the small factor, as Fraction multiplication
    does; and one Fraction is built at the end, the rational the
    factor-by-factor Fraction loop gives.  Other inputs run that loop.
    """
    bmag = abs(float(abs(base)))
    if bmag >= 1:
        raise NonConvergent(f"infinite Pochhammer needs |base| < 1, got {bmag}")
    cutoff = tb.tolerance * (1 - bmag)
    if all(isinstance(x, (int, Fraction)) for x in (a_top, a_bot, base)):
        tn, td = _pair(a_top)
        bn, bd = _pair(a_bot)
        qn, qd = _pair(base)
        num = den = fn = fd = 1
        for m in range(tb.max_terms):
            # a_top*base**m = top/tden and a_bot*base**m = bot/bden
            top, tden, bot, bden = tn * fn, td * fd, bn * fn, bd * fd
            if _quotient(top, tden) < cutoff and _quotient(bot, bden) < cutoff:
                return Fraction(num, den)
            if bot == bden:
                raise DenominatorPole(f"(a;q)_inf pole: factor 1 - {a_bot}*base^{m} vanishes")
            # (1 - top/tden) / (1 - bot/bden) = (tden - top) bd / ((bden - bot) td),
            # cancelled against the pair as Fraction multiplication does
            fnum, fden = (tden - top) * bd, (bden - bot) * td
            g1, g2 = math.gcd(num, fden), math.gcd(fnum, den)
            num, den = (num // g1) * (fnum // g2), (den // g2) * (fden // g1)
            fn *= qn
            fd *= qd
    else:
        out = a_top * 0 + a_bot * 0 + base * 0 + 1
        f = out
        for m in range(tb.max_terms):
            if float(abs(a_top * f)) < cutoff and float(abs(a_bot * f)) < cutoff:
                return out
            bot = 1 - a_bot * f
            if bot == 0:
                raise DenominatorPole(f"(a;q)_inf pole: factor 1 - {a_bot}*base^{m} vanishes")
            out *= (1 - a_top * f) / bot
            f *= base
    raise NonConvergent(
        f"Pochhammer ratio needed more than {tb.max_terms} factors for tolerance {tb.tolerance}"
    )


def qbinom(n: int, j: int, base):
    """The q-binomial coefficient [n choose j] in the given base."""
    if j < 0 or j > n:
        raise OutOfRange(f"q-binomial index j={j} outside 0..{n}")
    return qpoch(base, base, n) / (qpoch(base, base, j) * qpoch(base, base, n - j))


class PhiSpec(NamedTuple):
    """Parameters of a basic hypergeometric series sum_n (...)*z^n/(base;base)_n.

    ``terminate_after`` gives the exact number of terms when the caller knows
    the series terminates; it is required for terminating evaluation in the
    floating backends (where an exact zero factor cannot be detected) and is
    cross-checked in the exact backend.
    """

    numerators: Sequence
    denominators: Sequence
    base: object
    argument: object
    terminate_after: Optional[int] = None


def rphis(spec: PhiSpec, tb: TailBound = TailBound()):
    """Evaluate a basic hypergeometric series.

    Terminating series (a numerator parameter of the form base**-m) are
    summed exactly; otherwise the sum is truncated once the proved tail
    bound of the module docstring is below ``tb.tolerance``.  A denominator
    Pochhammer vanishing at a reached index raises DenominatorPole before
    any division happens, and so does a denominator parameter that
    vanishes before term ``terminate_after`` where a numerator zero ends
    the sum earlier: the caller asked for those terms.  When the base, the
    argument and every parameter are int or Fraction the result is a
    Fraction; any float or complex value selects the floating loop, which
    sees an exact zero factor only where the arithmetic produces one.
    """
    values = (spec.base, spec.argument, *spec.numerators, *spec.denominators)
    if all(isinstance(x, (int, Fraction)) for x in values):
        return _rphis_exact(spec, tb.max_terms, tb.tolerance)
    return _rphis_float(spec, tb.max_terms, tb.tolerance)


def _pair(x):
    return x.numerator, x.denominator


def _rphis_exact(spec: PhiSpec, limit: int, tolerance: float) -> Fraction:
    # Every value is an integer pair (numerator, denominator), f = base**j
    # is (fn, fd), and the term t_j and the partial sum share the unreduced
    # denominator td.  The ratio t_(j+1)/t_j is
    #   z prod(1 - a f) / ((1 - base f) prod(1 - b f))
    #   = cn prod(ad fd - an fn) fd**e / (cd (bd fd - bn fn) prod(b_d fd - b_n fn))
    # with the constant parts cn/cd and e = 1 + #dens - #nums, so a factor
    # is zero exactly when an*fn == ad*fd; the one gcd is the final Fraction.
    bn, bd = _pair(spec.base)
    zn, zd = _pair(spec.argument)
    nums = [_pair(a) for a in spec.numerators]
    dens = [_pair(b) for b in spec.denominators]
    n_terms = spec.terminate_after
    cn, cd = zn * bd, zd
    for _, d in dens:
        cn *= d
    for _, d in nums:
        cd *= d
    e = 1 + len(dens) - len(nums)
    if n_terms is None:
        mags = (_quotient(zn, zd), _quotient(bn, bd),
                [_quotient(*a) for a in nums], [_quotient(*b) for b in dens])

    fn = fd = tn = td = 1
    acc = 0
    for j in range(limit):
        acc += tn
        if n_terms is not None and j == n_terms - 1:
            return Fraction(acc, td)
        top, bot = cn, cd * (bd * fd - bn * fn)
        for an, ad in nums:
            x = ad * fd - an * fn
            if not x:
                # the sum ends here, unless a denominator parameter vanishes
                # before the last of the terms the caller asked for
                hit = _first_zero(dens, bn, bd, j, (spec.terminate_after or 0) - 1)
                if hit is not None:
                    raise _den_param_pole(spec.denominators[hit[1]], hit[0])
                return Fraction(acc, td)
            top *= x
        for dn, dd in dens:
            bot *= dd * fd - dn * fn
        if not bot:
            raise _pole(spec, nums, dens, bn, bd, j, limit)
        if e > 0:
            top *= fd**e
        elif e < 0:
            bot *= fd**-e
        tn *= top
        td *= bot
        acc *= bot
        fn *= bn
        fd *= bd
        if n_terms is None:
            # tn/td is t_(j+1) and fn/fd = base**(j+1): bound every later ratio
            ratio = _ratio_bound(*mags, _quotient(fn, fd))
            if ratio < 1 and _quotient(tn, td) * ratio / (1 - ratio) <= tolerance:
                # the sum terminates instead if a numerator factor vanishes
                # at a later index within the limit; |base| < 1 here, so
                # only a factor with |a f| >= 1 still can
                later = [(an, ad) for an, ad in nums if abs(an * fn) >= ad * fd]
                hit = _first_zero(later, bn, bd, j + 1, limit) if later else None
                if hit is None:
                    return Fraction(acc + tn, td)
                n_terms = hit[0] + 1
    if n_terms is not None:
        # a terminating sum reaches every factor index up to n_terms - 2
        hit = _first_zero(dens, bn, bd, limit, n_terms - 1)
        if hit is not None:
            raise _den_param_pole(spec.denominators[hit[1]], hit[0])
    raise NonConvergent(f"series did not terminate or certify within {limit} terms")


def _first_zero(pairs, bn, bd, start, stop):
    # the first (index i, position) in [start, stop) whose factor
    # 1 - c*base**i vanishes, c = pairs[position]; None if there is none
    fn, fd = bn**start, bd**start
    for i in range(start, stop):
        for pos, (cn, cd) in enumerate(pairs):
            if cn * fn == cd * fd:
                return i, pos
        fn *= bn
        fd *= bd
    return None


def _den_param_pole(b, i):
    return DenominatorPole(f"denominator parameter {b} equals base**-{i}, hit at term {i + 1}")


def _pole(spec, nums, dens, bn, bd, j, limit):
    # A denominator factor vanishes at index j, and no factor vanished
    # before.  If the sum terminates (n_terms given, or a numerator factor
    # vanishing later within the limit), a denominator parameter that
    # vanishes before its last term is named; otherwise the failing term is.
    n_terms = spec.terminate_after
    window = min(limit, n_terms or limit)
    hit = _first_zero(nums, bn, bd, j + 1, window)
    if hit is not None and (n_terms is None or hit[0] + 1 < n_terms):
        n_terms = hit[0] + 1
    if n_terms is not None:
        hit = _first_zero(dens, bn, bd, j, n_terms - 1)
        if hit is not None:
            return _den_param_pole(spec.denominators[hit[1]], hit[0])
    return DenominatorPole(f"denominator factor vanishes at term {j + 1}")


def _rphis_float(spec: PhiSpec, limit: int, tolerance: float):
    nums = list(spec.numerators)
    dens = list(spec.denominators)
    base = spec.base
    z = spec.argument
    n_terms = spec.terminate_after
    if n_terms is None:
        mags = (_magnitude(z), _magnitude(base),
                [_magnitude(a) for a in nums], [_magnitude(b) for b in dens])

    one = base * 0 + z * 0 + 1
    total = one * 0
    term = one
    f = one
    for j in range(limit):
        total += term
        if n_terms is not None and j == n_terms - 1:
            return total
        numf = one
        for a in nums:
            numf *= 1 - a * f
        if numf == 0:
            # as in the exact loop: a denominator parameter that vanishes
            # before the last requested term is named
            g = f
            for i in range(j, (n_terms or 0) - 1):
                for b in dens:
                    if 1 - b * g == 0:
                        raise _den_param_pole(b, i)
                g *= base
            return total
        denf = 1 - base * f
        for b in dens:
            denf *= 1 - b * f
        if denf == 0:
            raise DenominatorPole(f"denominator factor vanishes at term {j + 1}")
        term = term * numf * z / denf
        f *= base
        if n_terms is None:
            # term is t_(j+1) and f = base**(j+1): bound every later ratio
            ratio = _ratio_bound(*mags, _magnitude(f))
            if ratio < 1 and _magnitude(term) * ratio / (1 - ratio) <= tolerance:
                return total + term
    raise NonConvergent(f"series did not terminate or certify within {limit} terms")


def _magnitude(x) -> float:
    # |x| as a float; inf when it leaves the floating-point range
    try:
        return float(abs(x))
    except OverflowError:
        return math.inf


def _quotient(n: int, d: int) -> float:
    # |n/d|: int true division is correctly rounded, so this is
    # _magnitude(Fraction(n, d)) without reducing the pair
    try:
        return abs(n) / abs(d)
    except OverflowError:
        return math.inf


def _ratio_bound(z_mag, base_mag, num_mags, den_mags, F):
    """A bound R on |t_(j+1) / t_j| for every j >= J, where F = |base|**J.

    The ratio is z * prod(1 - a_i f) / ((1 - base f) * prod(1 - b_i f)) with
    f = base**j, |f| <= F, so R = |z| prod(1 + |a_i| F) / ((1 - |base| F) *
    prod(1 - |b_i| F)); inf while some denominator factor is not positive,
    which is always the case for |base| >= 1.
    """
    dens = [1 - base_mag * F, *(1 - m * F for m in den_mags)]
    if min(dens) <= 0:
        return math.inf
    out = z_mag
    for m in num_mags:
        out *= 1 + m * F
    for d in dens:
        out /= d
    return out


# ---------------------------------------------------------------------------
# Exact terminating 3phi2 columns over n (see the module docstring)
# ---------------------------------------------------------------------------


@tabled
def _one_minus_row(Q: Fraction) -> _Row:
    """The row of 1 - Q**m, m = 0, 1, ..., each the reduced integer pair
    (Qd**m - Qn**m, Qd**m) of Q = Qn/Qd: one row per Q serves every column
    in that base."""
    qn, qd = _pair(Q)
    pn = pd = 1

    def entry(m):
        nonlocal pn, pd
        if m:
            pn, pd = pn * qn, pd * qd
        return pd - pn, pd

    return _Row(entry)


class _Phi32Column:
    """The entries of ``_Row(_Phi32Column(params, limit))``, the column over
    n of the terminating series 3phi2(Q**n, Q**x, C; B; 1/Q, 1/Q) for int
    or Fraction C and B and a Fraction base 1/Q with Q > 0, Q != 1:

        entry n = sum_(j <= min(n, x)) prod_(i < j) r_i (1 - Q**(n-i)),
        r_i = (1 - Q**(x-i)) (1 - C/Q**i) / (Q (1 - Q**(-1-i)) (1 - B/Q**i)),

    with j <= n when x < 0.  Only the numerator Q**n depends on n (Gasper
    and Rahman, section 1.2), so the ratios r_i are reduced integer pairs
    computed once per column, and entry n is one Horner pass 1 + r_0 a_0
    (1 + r_1 a_1 (1 + ...)) on one unreduced integer pair, a_i = 1 -
    Q**(n-i) read from ``_one_minus_row(Q)``.

    A long column is a polynomial in Z = Q**n: from entry ``_POWER_FROM``
    on, when 0 < x < limit and every r_i (i < x) exists, entry n is P(Q**n)
    for P(Z) = sum_a C_a Z**a / D, built once in integers from the same
    r_i.  With Q = qn/qd, P(Q**n) = sum_a T_a / (D qd**(nx)), T_a = C_a
    (qn**a qd**(x-a))**n, so each later entry multiplies every T_a and the
    denominator by fixed integers of a few bits, where a Horner step
    multiplies integers that grow with n.  The T_a and D carry a common
    factor f = (qn qd)**(x(x-1)/2) beyond Horner's pair; divided out once,
    at the first such entry, they give Horner's very integer pair, so a
    reader cannot tell the two routes apart.

    Entry n is a tuple (numerator, positive denominator) whose value is
    the Fraction ``rphis`` gives for the series at n with
    ``terminate_after=min(n, x) + 1`` and at most ``limit`` terms, and it
    raises what that call raises.  No entry is reduced: the sums that read
    the column multiply the pair unreduced and reduce once, and a column of
    polynomial values builds one Fraction per entry from the prefactor and
    the pair (``orthopoly._column_entry``).

    ``params()`` returns (x, C, B, Q) and is called at entry 0, so it
    should evaluate C and B in the per-entry PhiSpec's order: an invalid
    parameter then raises its error from the entry read.  A vanishing
    1 - C/Q**i ends every later sum at term i + 1, except that an entry
    whose terms would reach a vanishing 1 - B/Q**j (i <= j < min(n, x))
    names B, as ``rphis`` names a denominator parameter within
    ``terminate_after``; a vanishing 1 - B/Q**i is the DenominatorPole of
    every entry that reaches it; a sum longer than ``limit`` terms raises
    the ``max_terms`` error.
    """

    __slots__ = ("params", "limit", "x", "c", "b", "q", "ones", "ratios", "end", "power")

    def __init__(self, params, limit: int):
        self.params, self.limit = params, limit
        self.ratios = []  # r_0, r_1, ... as reduced integer pairs
        # (i, pole) once 1 - C/Q**i or 1 - B/Q**i is 0 at i: pole is the
        # index of the vanishing 1 - B/Q**j an entry names once it reads
        # past j, or None
        self.end = None
        self.power = None  # ([T_0/f, ..., T_x/f, den], their multipliers)

    def __call__(self, n: int):
        if self.power is not None:
            # entry n from entry n - 1: each T_a times qn**a qd**(x-a), the
            # denominator times qd**x; a row reads its entries in order
            terms, mults = self.power
            terms[:] = map(mul, terms, mults)
            return sum(terms[:-1]), terms[-1]
        if n == 0:
            # the parameters are made here, so an invalid one raises from
            # the entry read, as the per-entry PhiSpec does
            self.x, self.c, self.b, self.q = self.params()
            self.params = None
            self.ones = _one_minus_row(self.q)
            return 1, 1
        x, limit = self.x, self.limit
        # rphis stops at term min(n, x) + 1, or at the zero of 1 - Q**(n-i)
        # when x < 0, or at a zero of 1 - C/Q**i; within ``limit`` terms.
        # A row computes its entries in order, so ``last`` grows by at most
        # one per entry: the first entry past the limit has last == limit,
        # where rphis's scan for a pole in [limit, last) is empty
        last = min(n, x) if x >= 0 else n
        self._grow(min(last, limit))
        if self.end is not None:
            stop, pole = self.end
            if pole is not None and pole < last:
                if x < 0:
                    raise DenominatorPole(f"denominator factor vanishes at term {stop + 1}")
                raise _den_param_pole(self.b, pole)
        elif last >= limit:
            raise NonConvergent(f"series did not terminate or certify within {limit} terms")
        else:
            stop = last
        if 0 < x == stop and n >= _POWER_FROM:
            # every r_i exists: from here on, step the power-basis form
            return self._start_power(n)
        # 1 + r_0 a_0 (1 + r_1 a_1 (1 + ...)), a_i = 1 - Q**(n-i), on one
        # unreduced pair
        ratios, ones = self.ratios, self.ones
        num = den = 1
        for i in range(stop - 1, -1, -1):
            rn, rd = ratios[i]
            an, ad = ones[n - i]
            d = rd * ad * den
            num, den = d + rn * an * num, d
        # r_i's denominator carries Q - 1/Q**i, negative for Q < 1
        return (num, den) if den > 0 else (-num, -den)

    def _start_power(self, n: int):
        # P(Z) = 1 + r_0 (1 - Z) (1 + r_1 (1 - Z/Q) (1 + ...)) as integer
        # coefficients C_0..C_x over D, built inside out with 1 - Z/Q**i =
        # (qn**i - Z qd**i) / qn**i
        x = self.x
        qn, qd = _pair(self.q)
        coeffs, den = [1], 1
        for i in range(x - 1, -1, -1):
            rn, rd = self.ratios[i]
            a, b = rn * qn**i, rn * qd**i
            coeffs = [a * c - b * z for c, z in zip([*coeffs, 0], [0, *coeffs])]
            den *= rd * qn**i
            coeffs[0] += den
        if den < 0:
            coeffs, den = [-c for c in coeffs], -den
        # at Z = Q**n, P = sum_a T_a / (D qd**(nx)) with T_a = C_a (qn**a
        # qd**(x-a))**n.  D qd**(nx) is Horner's denominator |prod rd_i|
        # qd**(nx - x(x-1)/2) times f = (qn qd)**(x(x-1)/2), and from n =
        # x - 1 on f divides every T_a (C_a carries qd**(a(a-1)/2)
        # qn**((x-a)(x-a-1)/2)): the T_a / f sum to Horner's numerator, so
        # an entry is Horner's pair.  The denominator is kept last.
        f = (qn * qd) ** (x * (x - 1) // 2)
        mults = [qn**a * qd**(x - a) for a in range(x + 1)] + [qd**x]
        terms = [c * m**n // f for c, m in zip([*coeffs, den], mults)]
        self.power = terms, mults
        return sum(terms[:-1]), terms[-1]

    def _grow(self, reach: int):
        ratios = self.ratios
        if len(ratios) >= reach or self.end is not None:
            return
        (qn, qd), (xn, xd) = _pair(self.q), _pair(self.q**self.x)
        (cn, cd), (bn, bd) = _pair(self.c), _pair(self.b)
        while len(ratios) < reach:
            i = len(ratios)
            fn, fd = qd**i, qn**i  # Q**-i
            # the numerator factor 1 - C/Q**i is tested before the
            # denominator's 1 - B/Q**i, as in rphis
            c = cd * fd - cn * fn
            b = bd * fd - bn * fn
            if not c:
                # the sum ends at term i + 1, yet an entry of more terms
                # names a later zero of 1 - B/Q**j within them, as rphis
                # does within its terminate_after
                hit = _first_zero(((bn, bd),), qd, qn, i, self.x) if self.x >= 0 else None
                self.end = (i, None if hit is None else hit[0])
                return
            if not b:
                self.end = (i, i)
                return
            # r_i = (1 - Q**(x-i)) (1 - C/Q**i) / ((Q - 1/Q**i) (1 - B/Q**i))
            num = (xd * fd - xn * fn) * c * qd * bd
            den = xd * cd * (qn * fd - qd * fn) * b
            g = math.gcd(num, den)
            ratios.append((num // g, den // g))


def require_q_below_one(qb: QBase) -> None:
    """Refuse q > 1 at the entry of a certified infinite sum of the
    infinite family: its weights decay only for 0 < q < 1."""
    if qb.q > 1:
        raise NonConvergent(f"certified infinite sum needs 0 < q < 1, got q = {qb.q}")


def pair_sum(pairs, tb: Optional[TailBound] = None):
    """The sum of exact terms given as integer pairs (numerator, positive
    denominator), as one Fraction, or the int 0 for no terms.

    The first pair is the running pair, and each later one is added to it
    on the divisor chain (``scalar.add_pair``).  Without ``tb`` every pair
    is added; with it the pairs pass through the stop rule of
    :func:`certified_sum`, :func:`_stop_rule`.
    """
    pairs = iter(pairs if tb is None else _stop_rule(pairs, tb))
    first = next(pairs, None)
    if first is None:
        return 0
    num, den = first
    for tn, td in pairs:
        num, den = add_pair(num, den, tn, td)
    return Fraction(num, den)


def _stop_rule(pairs, tb: TailBound):
    """The pairs (tn, td), td > 0, of a certified sum up to its stopping
    term, each yielded before the rule reads its magnitude |tn|/td, so no
    pair past that term is read; NonConvergent past ``tb.max_terms``.  A
    finite floating term t comes as the pair (t, 1)."""
    floor = tb.tolerance * (1 - RATIO_CAP)
    cap, max_terms = RATIO_CAP, tb.max_terms
    # the trailing terms below the floor, the trailing ratios at most the
    # cap, the last term's magnitude and the last pair beyond the float range
    below = capped = 0
    last = huge = None
    for n, pair in enumerate(pairs):
        yield pair
        tn, td = pair
        try:
            # int true division is correctly rounded: the float of tn/td
            mag = abs(tn) / td
        except OverflowError:
            mag = _INF
        below = below + 1 if mag < floor else 0
        if n:
            if last < _INF:
                over = last > 0 and mag / last > cap
            else:
                over = _above_cap(tn, td, *huge, cap)
            capped = 0 if over else capped + 1
        if mag == _INF:
            huge = pair
        last = mag
        if n + 1 >= 6 and below >= 3 and capped >= 3:
            return
        if n + 1 >= max_terms:
            raise NonConvergent(
                f"series tail not certified below {tb.tolerance} within {max_terms} terms"
            )


def _above_cap(tn: int, td: int, hn: int, hd: int, cap: float) -> bool:
    """|tn/td| / |hn/hd| > cap (positive td and hd, nonzero hn), that is
    |tn| hd cd > cn |hn| td with cap = cn/cd.  A product of positive ints
    of a and b bits has a + b - 1 or a + b bits, so the bit lengths decide
    unless their sums on the two sides are at most 2 apart; only then are
    the products, near q = 0 of hundreds of thousands of bits, formed."""
    if not tn:
        return False
    cn, cd = cap.as_integer_ratio()
    left = abs(tn).bit_length() + hd.bit_length() + cd.bit_length()
    right = cn.bit_length() + abs(hn).bit_length() + td.bit_length()
    if abs(left - right) > 2:
        return left > right
    return abs(tn) * hd * cd > cn * abs(hn) * td


def _term_pair(term):
    # an exact term as the integer pair of its factors' products, read
    # through the sum loop of scalar
    tn, td, _, pending = _add_terms((term,), 0, 1)
    if pending is not None:
        raise ExactnessError(f"a certified sum of exact terms got the term {pending!r}")
    return tn, td


def certified_sum(terms, tb: TailBound):
    """Sum an infinite series under the TailBound certificate.

    ``terms`` is an iterable of terms with eventually geometric decay, each
    a tuple of factors (a bare scalar is a one-factor term).  The first
    term decides the arithmetic.  If its factors are int or Fraction, each
    term is the integer pair of its factors' numerator and denominator
    products, and the pairs are summed by :func:`pair_sum`'s loop: the
    result is a Fraction, the rational and the stopping term of Fraction
    arithmetic (see the module docstring), and a later term with another
    factor raises ExactnessError.  Otherwise each term multiplies its
    factors left to right and is added to the sum in order, and the same
    stop rule (:func:`_stop_rule`) reads the term's float magnitude.

    Summation stops after term n once n + 1 >= 6, the last three term
    magnitudes are below tolerance*(1-RATIO_CAP) and each of the last three
    ratios |t_j / t_(j-1)| with t_(j-1) != 0 is at most ``RATIO_CAP``.  Two
    counters of trailing terms keep that test O(1) per term.

    An exact term whose magnitude is beyond the floating-point range reads
    as inf: it is not below the floor, its ratio to a finite predecessor is
    inf, above the cap as the exact ratio (above 1) is, and the ratio of
    the next term to it is compared exactly, on integer pairs.  Finite
    magnitudes keep the float test, so such a sum stops where Fraction
    arithmetic would.

    Raises NonConvergent if the stopping rule cannot be met within
    max_terms, or if a floating term leaves the floating-point range (a
    certified result is then impossible; failing loudly beats returning
    NaN).
    """
    terms = iter(terms)
    first = next(terms, None)
    if first is None:
        return 0
    terms = chain((first,), terms)
    if _add_terms((first,), 0, 1)[3] is None:
        return pair_sum(map(_term_pair, terms), tb)
    total = None
    terms = ((product(term if isinstance(term, tuple) else (term,)), 1) for term in terms)
    for n, (t, _) in enumerate(_stop_rule(terms, tb)):
        # checked and summed before the stop rule reads it: the rule sees finite floats
        if not math.isfinite(_magnitude(t)):
            raise NonConvergent(f"term {n} exceeds the floating-point range")
        total = t if total is None else total + t
    return total


# ---------------------------------------------------------------------------
# The central summation identity (Lemma 2.1): a weighted sum of products of
# two 3phi2's in base 1/q equals a terminating 4phi3 with explicit
# Pochhammer prefactors.  The finite case has a = q**-N and lives on the
# domain x, y <= N.
# ---------------------------------------------------------------------------


def summation_lhs(qb: QBase, x: int, y: int, a, b, c, d, N: Optional[int] = None,
                  tb: TailBound = TailBound()):
    """Product side of the summation identity, in base q = qb.q.

    With ``N`` given, the infinite Pochhammer ratio collapses to the exact
    (a*b*c*d; q)_N (finite case a = q**-N, which requires x, y <= N);
    otherwise it is evaluated under the tail certificate (needs |bcd| < 1).
    The 4phi3's denominator parameter bd/c q**-y at q**-j, j < x, raises
    DenominatorPole even where the numerator bd/c ends the sum before term
    j + 1: the rule ``ratfun.rr_valid`` applies at the q-Racah point.
    """
    return _summation_lhs(qb.q, x, y, a, b * b, b * c * d, b * d / c, N, tb)


def _summation_lhs(q, x, y, a, b2, bcd, bd_c, N, tb):
    if N is not None and (x > N or y > N):
        raise DenominatorPole(
            f"finite case is restricted to x, y <= N; got x={x}, y={y}, N={N}"
        )
    abcd = a * bcd
    pref = qpoch(abcd, q, N) if N is not None else qpoch_inf_ratio(abcd, bcd, q, tb)
    denom = qpoch(abcd, q, y)
    if denom == 0:
        raise DenominatorPole(f"(abcd;q)_y vanishes at abcd={abcd}, y={y}")
    pref *= qpoch(bd_c * q ** (-y), q, y) / denom
    denom = qpoch(a, q, x)
    if denom == 0:
        raise DenominatorPole(f"(a;q)_x vanishes at a={a}, x={x}")
    pref *= qpoch(q ** (-x) / b2, q, x) / denom
    pole = bd_c * q ** (-y)
    for j in range(x):
        if pole * q ** j == 1:
            raise _den_param_pole(pole, j)
    ser = rphis(PhiSpec(numerators=(q ** (-x), a * b2 * q ** x, bcd, bd_c),
                        denominators=(b2 * q, pole, abcd * q ** y), base=q, argument=q,
                        terminate_after=x + 1), tb)
    return pref * ser


def summation_rhs(qb: QBase, x: int, y: int, a, b, c, d, N: Optional[int] = None,
                  tb: TailBound = TailBound()):
    """Series side of the summation identity: sum over n of
    (bcd)**n (a;q)_n/(q;q)_n times two terminating 3phi2 factors in base 1/q.
    """
    return _summation_rhs(qb.q, x, y, a, b * b, c * c, b * c * d, N, tb)


def _summation_rhs(q, x, y, a, b2, c2, bcd, N, tb):
    inv_a = Fraction(1) / a  # exact for an int a too; 1 / a for the rest

    def factor(n, z, sq):
        return rphis(PhiSpec(numerators=(q ** n, q ** z, q ** (-z) / (a * sq)),
                             denominators=(inv_a,), base=1 / q, argument=1 / q,
                             terminate_after=min(n, z) + 1), tb)

    def terms():
        # the coefficient (bcd)**n (a; q)_n / (q; q)_n, carried term by term
        coeff = poch_q = q * 0 + 1
        for n in count():
            yield coeff / poch_q, factor(n, x, b2), factor(n, y, c2)
            coeff *= bcd * (1 - a * q ** n)
            poch_q *= 1 - q ** (n + 1)

    if N is not None:
        return ordered_sum(islice(terms(), N + 1))
    return certified_sum(terms(), tb)
