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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _detect_termination(nums, base, limit):
    # smallest j with some numerator factor 1 - a*base**j == 0; None if no
    # exact zero within the scan window (exact backend only)
    f = base * 0 + 1
    for j in range(limit):
        for a in nums:
            if 1 - a * f == 0:
                return j + 1  # terms 0..j survive
        f *= base
    return None


def rphis(spec: PhiSpec, tb: TailBound = TailBound()):
    """Evaluate a basic hypergeometric series.

    Terminating series (a numerator parameter of the form base**-m) are
    summed exactly; otherwise the sum is truncated once the proved tail
    bound of the module docstring is below ``tb.tolerance``.  A denominator
    Pochhammer vanishing at a reached index raises DenominatorPole before
    any division happens.
    """
    nums = list(spec.numerators)
    dens = list(spec.denominators)
    base = spec.base
    z = spec.argument
    limit = spec.max_terms or tb.max_terms

    n_terms = spec.terminate_after
    exact_zero_detection = not isinstance(base, (float, complex))
    if exact_zero_detection:
        detected = _detect_termination(nums, base, min(limit, n_terms or limit))
        if n_terms is None:
            n_terms = detected
        elif detected is not None and detected < n_terms:
            n_terms = detected

    # eager pole scan over the factor indices a terminating sum will reach
    if n_terms is not None and exact_zero_detection:
        f = base * 0 + 1
        for j in range(n_terms - 1):
            for b in dens:
                if 1 - b * f == 0:
                    raise DenominatorPole(
                        f"denominator parameter {b} equals base**-{j}, hit at term {j + 1}"
                    )
            f *= base

    if n_terms is None:
        z_mag, base_mag = _magnitude(z), _magnitude(base)
        num_mags = [_magnitude(a) for a in nums]
        den_mags = [_magnitude(b) for b in dens]

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
            ratio = _ratio_bound(z_mag, base_mag, num_mags, den_mags, _magnitude(f))
            if ratio < 1 and _magnitude(term) * ratio / (1 - ratio) <= tb.tolerance:
                return total + term
    raise NonConvergent(f"series did not terminate or certify within {limit} terms")


def _magnitude(x) -> float:
    # |x| as a float; inf when it leaves the floating-point range
    try:
        return float(abs(x))
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
        mag = float(abs(t))
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
