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
  below ``tolerance * (1 - ratio_cap)`` and the *observed* term ratios have
  stayed below ``ratio_cap``; that bounds the tail only if later ratios
  stay below the cap too;
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DenominatorPole, NonConvergent, OutOfRange
from .scalar import QBase, as_exponent

DEFAULT_MAX_TERMS = 20000


@dataclass(frozen=True)
class TailBound:
    """Truncation policy for infinite sums and products.

    The bound ``tolerance`` gives depends on the consumer:

    * non-terminating series (:func:`rphis`): a *proved* bound on the
      *absolute* truncation error, from a bound on every later term ratio
      derived from the series parameters; ``ratio_cap`` is not used;
    * sums (:func:`certified_sum`): if summation stops, the *absolute*
      truncation error is at most ``tolerance`` provided the
      post-truncation term ratios stay below ``ratio_cap``; this is only
      checked on the observed ratios, so it is not a proof;
    * products (:func:`qpoch_inf`, :func:`qpoch_inf_ratio`): ``tolerance``
      bounds the tail of the log-product, hence the *relative* error of the
      product, not the absolute one.
    """

    tolerance: float = 1e-12
    ratio_cap: float = 0.9
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.ratio_cap < 1:
            raise ValueError("ratio_cap must lie in (0, 1)")


def qpoch(a, base, n: int):
    """The q-shifted factorial (a; base)_n = prod_{i<n} (1 - a*base**i).

    The empty product (n = 0) is 1.
    """
    if n < 0:
        raise OutOfRange(f"Pochhammer length {n} is negative")
    one = a * 0 + base * 0 + 1
    out = one
    f = one
    for _ in range(n):
        out *= 1 - a * f
        f *= base
    return out


def qpoch_inf(a, base, tb: TailBound = TailBound()):
    """The infinite product (a; base)_inf, truncated with a certificate.

    Factors are accumulated until |a*base**m| < tolerance*(1-|base|); the
    tail of the log-product is then bounded by ``tolerance`` (to first
    order), so the *relative* error of the result is at most about
    ``tolerance``; the absolute error scales with |(a; base)_inf|.
    Requires |base| < 1.
    """
    bmag = abs(float(abs(base)))
    if bmag >= 1:
        raise NonConvergent(f"infinite Pochhammer needs |base| < 1, got {bmag}")
    cutoff = tb.tolerance * (1 - bmag)
    out = a * 0 + base * 0 + 1
    f = out
    for m in range(tb.max_terms):
        if float(abs(a * f)) < cutoff:
            return out
        out *= 1 - a * f
        f *= base
    raise NonConvergent(
        f"(a;q)_inf needed more than {tb.max_terms} factors for tolerance {tb.tolerance}"
    )


def qpoch_inf_ratio(a_top, a_bot, base, tb: TailBound = TailBound()):
    """(a_top; base)_inf / (a_bot; base)_inf as a single truncated product.

    Sharing one truncation point makes the ratio converge faster than the
    two factors separately.  Truncation stops once both |a_top*base**m| and
    |a_bot*base**m| are below tolerance*(1-|base|), so each log-product
    tail is bounded by ``tolerance`` (to first order) and the *relative*
    error of the ratio is at most about 2*tolerance; the absolute error
    scales with the ratio itself.
    """
    bmag = abs(float(abs(base)))
    if bmag >= 1:
        raise NonConvergent(f"infinite Pochhammer needs |base| < 1, got {bmag}")
    cutoff = tb.tolerance * (1 - bmag)
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


@dataclass(frozen=True)
class PhiSpec:
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
    max_terms: Optional[int] = None
    terminate_after: Optional[int] = None


def rphis(spec: PhiSpec, tb: TailBound = TailBound()):
    """Evaluate a basic hypergeometric series.

    Terminating series (a numerator parameter of the form base**-m) are
    summed exactly; otherwise the sum is truncated once the proved tail
    bound of the module docstring is below ``tb.tolerance``.  A denominator
    Pochhammer vanishing at a reached index raises DenominatorPole before
    any division happens.  When the base, the argument and every parameter
    are int or Fraction the result is a Fraction; any float or complex value
    selects the floating loop, which sees an exact zero factor only where
    the arithmetic produces one.
    """
    limit = spec.max_terms or tb.max_terms
    values = (spec.base, spec.argument, *spec.numerators, *spec.denominators)
    if all(isinstance(x, (int, Fraction)) for x in values):
        return _rphis_exact(spec, limit, tb.tolerance)
    return _rphis_float(spec, limit, tb.tolerance)


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
            raise _den_param_pole(spec, *hit)
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


def _den_param_pole(spec, i, pos):
    return DenominatorPole(
        f"denominator parameter {spec.denominators[pos]} equals base**-{i}, hit at term {i + 1}"
    )


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
            return _den_param_pole(spec, *hit)
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


def _tail_certified(magnitudes, tb: TailBound, run: int = 3) -> bool:
    # require `run` consecutive sub-threshold terms with ratios below the cap
    if len(magnitudes) < max(run + 1, 6):
        return False
    floor = tb.tolerance * (1 - tb.ratio_cap)
    recent = magnitudes[-run:]
    if any(m >= floor for m in recent):
        return False
    prev = magnitudes[-run - 1 :]
    for a, b in zip(prev, prev[1:]):
        if a > 0 and b / a > tb.ratio_cap:
            return False
    return True


def certified_sum(terms, tb: TailBound, min_terms: int = 6):
    """Sum an infinite series under the TailBound certificate.

    ``terms`` is an iterable of scalars with eventually geometric decay.
    Raises NonConvergent if the stopping rule cannot be met within
    max_terms, or if a term leaves the floating-point range (a certified
    result is then impossible; failing loudly beats returning NaN).
    """
    total = None
    magnitudes = []
    for n, t in enumerate(terms):
        total = t if total is None else total + t
        mag = _magnitude(t)
        if not math.isfinite(mag):
            raise NonConvergent(f"term {n} exceeds the floating-point range")
        magnitudes.append(mag)
        if n + 1 >= min_terms and _tail_certified(magnitudes, tb):
            return total
        if n + 1 >= tb.max_terms:
            raise NonConvergent(
                f"series tail not certified below {tb.tolerance} within {tb.max_terms} terms"
            )
    return total if total is not None else 0


# ---------------------------------------------------------------------------
# The central summation identity: a weighted sum of products of two 3phi2's
# in base 1/q equals a terminating 4phi3 (q-Racah type) with explicit
# Pochhammer prefactors.  The finite case has a = q**-N and, like the
# q-Racah setting it feeds, lives on the domain x, y <= N.
# ---------------------------------------------------------------------------


def summation_lhs(qb: QBase, x: int, y: int, a, b, c, d, N: Optional[int] = None,
                  tb: TailBound = TailBound()):
    """Product side of the summation identity, in base q = qb.q.

    With ``N`` given, the infinite Pochhammer ratio collapses to the exact
    (a*b*c*d; q)_N (finite case a = q**-N, which requires x, y <= N);
    otherwise it is evaluated under the tail certificate (needs |bcd| < 1).
    """
    return _summation_lhs(qb, x, y, a, b * b, b * c * d, b * d / c, N, tb)


def _summation_lhs(qb, x, y, a, b2, bcd, bd_c, N, tb):
    q = qb.q
    abcd = a * bcd
    if N is not None:
        if x > N or y > N:
            raise DenominatorPole(
                f"finite case is restricted to x, y <= N; got x={x}, y={y}, N={N}"
            )
        inf_ratio = qpoch(abcd, q, N)
    else:
        inf_ratio = qpoch_inf_ratio(abcd, bcd, q, tb)
    pref = inf_ratio
    pref *= qpoch(bd_c * q ** (-y), q, y) / qpoch(abcd, q, y)
    denom = qpoch(a, q, x)
    if denom == 0:
        raise DenominatorPole(f"(a;q)_x vanishes at a={a}, x={x}")
    pref *= qpoch(q ** (-x) / b2, q, x) / denom
    ser = rphis(
        PhiSpec(
            numerators=(q ** (-x), a * b2 * q ** x, bcd, bd_c),
            denominators=(b2 * q, bd_c * q ** (-y), abcd * q ** y),
            base=q,
            argument=q,
            terminate_after=x + 1,
        ),
        tb,
    )
    return pref * ser


def summation_rhs(qb: QBase, x: int, y: int, a, b, c, d, N: Optional[int] = None,
                  tb: TailBound = TailBound()):
    """Series side of the summation identity: sum over n of
    (bcd)**n (a;q)_n/(q;q)_n times two terminating 3phi2 factors in base 1/q.
    """
    return _summation_rhs(qb, x, y, a, b * b, c * c, b * c * d, N, tb)


def _summation_rhs(qb, x, y, a, b2, c2, bcd, N, tb):
    q = qb.q

    def factor(n, z, sq):
        return rphis(
            PhiSpec(
                numerators=(q ** n, q ** z, q ** (-z) / (a * sq)),
                denominators=(1 / a,),
                base=1 / q,
                argument=1 / q,
                terminate_after=min(n, z) + 1,
            ),
            tb,
        )

    def terms():
        coeff = q * 0 + 1
        poch_q = coeff
        n = 0
        while True:
            yield coeff / poch_q * factor(n, x, b2) * factor(n, y, c2)
            coeff *= bcd * (1 - a * q ** n)
            poch_q *= 1 - q ** (n + 1)
            n += 1

    if N is not None:
        gen = terms()
        return sum(next(gen) for _ in range(N + 1))
    return certified_sum(terms(), tb)


def summation_pair_qracah(qb: QBase, N: int, s, t, v, x: int, y: int):
    """Both sides of the finite summation identity at the q-Racah point.

    The substitution has purely imaginary b and c; only the real
    combinations b**2 = -q**(2s), c**2 = -q**(2t), bcd = -q**(s+t-v+1) and
    bd/c = q**(s-t-v+1) enter either side, so the evaluation stays in the
    exact (or real) backend.  Base is q**2, handled by squaring qb.p.
    """
    qb2 = QBase(qb.p * qb.p, qb.mode) if qb.mode == "exact" else QBase(float(qb.p) ** 2, qb.mode)
    s, t, v = as_exponent(s), as_exponent(t), as_exponent(v)
    a = qb.qpow(-2 * N)
    b2 = -qb.qpow(2 * s)
    c2 = -qb.qpow(2 * t)
    bcd = -qb.qpow(s + t - v + 1)
    bd_c = qb.qpow(s - t - v + 1)
    lhs = _summation_lhs(qb2, x, y, a, b2, bcd, bd_c, N, TailBound())
    rhs = _summation_rhs(qb2, x, y, a, b2, c2, bcd, N, TailBound())
    return lhs, rhs
