"""Pochhammer symbols, hypergeometric series and the summation identity."""

import re
from fractions import Fraction as F
from itertools import count, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qracah import (
    PhiSpec,
    PrParams,
    QBase,
    RrParams,
    TailBound,
    certified_sum,
    pr_closed,
    pr_inner,
    pr_valid,
    qbinom,
    qpoch,
    qpoch_inf,
    qpoch_inf_ratio,
    rphis,
    rr_closed,
    rr_inner,
)
from qracah import multivar, orthopoly, qseries, verify
from qracah.errors import (
    DenominatorPole,
    ExactnessError,
    NonConvergent,
    OutOfRange,
)
from qracah.tables import _Row

import reference
from test_ratfun import _rr_closed_inline


def test_qpoch_basics():
    q = F(1, 4)
    assert qpoch(F(1, 3), q, 0) == 1
    assert qpoch(1, q, 5) == 0  # first factor 1-1
    assert qpoch(F(1, 4), F(1, 4), 1) == F(3, 4)
    assert qpoch(F(1, 2), q, 3) == (1 - F(1, 2)) * (1 - F(1, 8)) * (1 - F(1, 32))
    with pytest.raises(OutOfRange):
        qpoch(F(1, 2), q, -1)


def _qpoch_fraction_loop(a, base, n):
    # the product factor by factor, every partial product a reduced Fraction;
    # an int result when a and base are both ints, as Python arithmetic gives
    out = 1 if type(a) is type(base) is int else F(1)
    for i in range(n):
        out *= 1 - a * base**i
    return out


_EXACT = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=9))


@settings(max_examples=300)
@given(a=_EXACT, base=_EXACT, n=st.integers(0, 9))
@example(a=F(1, 3), base=F(1, 4), n=0)  # the empty product
@example(a=3, base=-2, n=5)  # int inputs, a negative base
@example(a=F(-5, 2), base=F(-1, 3), n=6)  # negative parameters
@example(a=F(4), base=F(1, 2), n=5)  # 1 - a*base**2 vanishes
@example(a=-1, base=-1, n=4)  # 1 - a*base vanishes
def test_exact_qpoch_is_the_fraction_product(a, base, n):
    # the one-pair product equals the factor-by-factor product, with its type
    got, want = qpoch(a, base, n), _qpoch_fraction_loop(a, base, n)
    assert type(got) is type(want) and got == want


def test_tail_bound_validation():
    for kwargs, message in (({"tolerance": 0}, "tolerance must be positive"),
                            ({"max_terms": 0}, "max_terms must be at least 1")):
        with pytest.raises(ValueError, match=message):
            TailBound(**kwargs)
    assert TailBound(max_terms=1).max_terms == 1


def test_qpoch_inf_against_long_product():
    # brute-force oracle: 200 explicit factors
    val = qpoch_inf(0.5, 0.5, TailBound(tolerance=1e-15))
    brute = 1.0
    for m in range(200):
        brute *= 1 - 0.5 * 0.5 ** m
    assert val == pytest.approx(brute, rel=1e-12)
    assert qpoch_inf(0.0, 0.25) == 1.0


def test_exact_qpoch_inf_with_an_int_base_is_a_fraction():
    # an int base (0 is the only one below 1) takes the integer-pair
    # product: (2; 0)_inf = 1 - 2, not the float of a `/` loop
    for got, want in ((qpoch_inf(2, 0), F(-1)), (qpoch_inf_ratio(2, 3, 0), F(1, 2)),
                      (qpoch_inf_ratio(F(1, 2), 3, 0), F(-1, 4))):
        assert type(got) is F and got == want


def test_qpoch_inf_shift_relation():
    # (a;q)_inf / (a q**j; q)_inf == (a; q)_j
    a, q, j = 0.2, 0.25, 3
    tb = TailBound(tolerance=1e-15)
    lhs = qpoch_inf(a, q, tb) / qpoch_inf(a * q ** j, q, tb)
    assert lhs == pytest.approx(float(qpoch(F(1, 5), F(1, 4), j)), rel=1e-11)


def test_qpoch_inf_errors():
    with pytest.raises(NonConvergent):
        qpoch_inf(0.5, 1.5)
    with pytest.raises(NonConvergent):
        qpoch_inf(0.5, 0.999999, TailBound(tolerance=1e-15, max_terms=10))


def test_qpoch_inf_ratio_matches_separate_products():
    tb = TailBound(tolerance=1e-15)
    r = qpoch_inf_ratio(0.3, 0.7, 0.25, tb)
    sep = qpoch_inf(0.3, 0.25, tb) / qpoch_inf(0.7, 0.25, tb)
    assert r == pytest.approx(sep, rel=1e-12)


def _ratio_fraction_loop(a_top, a_bot, base, tb):
    # the truncated product factor by factor, every partial product a
    # reduced Fraction (int inputs too) and every stop test a float(); also
    # returns the index m of the stop test that ended it
    cutoff = tb.tolerance * (1 - abs(float(abs(base))))
    out = f = F(1)
    for m in range(tb.max_terms):
        if float(abs(a_top * f)) < cutoff and float(abs(a_bot * f)) < cutoff:
            return out, m
        bot = 1 - a_bot * f
        if bot == 0:
            raise DenominatorPole(f"(a;q)_inf pole: factor 1 - {a_bot}*base^{m} vanishes")
        out *= (1 - a_top * f) / bot
        f *= base
    raise NonConvergent(
        f"Pochhammer ratio needed more than {tb.max_terms} factors for tolerance {tb.tolerance}"
    )


@settings(max_examples=300, deadline=None)
@given(a_top=_EXACT, a_bot=_EXACT,
       base=st.fractions(F(-8, 9), F(8, 9), max_denominator=9),
       tol=st.one_of(st.integers(1, 14).map(lambda e: 10.0**-e), st.just(2.0**-10)),
       max_terms=st.integers(1, 120))
@example(a_top=F(1, 3), a_bot=4, base=F(1, 2), tol=1e-12, max_terms=99)  # pole at m = 2
@example(a_top=F(-5, 2), a_bot=F(9, 4), base=F(-2, 3), tol=1e-9, max_terms=99)  # pole at m = 2
@example(a_top=F(1, 3), a_bot=F(1, 5), base=F(7, 8), tol=1e-12, max_terms=40)  # NonConvergent
@example(a_top=3, a_bot=-2, base=F(1, 2), tol=1e-12, max_terms=99)  # int parameters
@example(a_top=2, a_bot=3, base=0, tol=1e-12, max_terms=99)  # int inputs: the Fraction 1/2
@example(a_top=F(-5, 2), a_bot=F(-1, 3), base=F(-1, 3), tol=1e-14, max_terms=99)  # negatives
@example(a_top=0, a_bot=0, base=F(1, 2), tol=1e-3, max_terms=1)  # stops at m = 0
# |a_top base**8| is the cutoff 2**-11 itself, which does not stop the product
@example(a_top=F(1, 8), a_bot=0, base=F(1, 2), tol=2.0**-10, max_terms=99)
def test_exact_qpoch_inf_ratio_is_the_fraction_loop(a_top, a_bot, base, tol, max_terms):
    # the one-pair product gives the Fraction loop's value and type and
    # stops at its index m: m + 1 factors are enough and m are not; a pole
    # or a missed certificate raises the loop's error with its text
    tb = TailBound(tol, max_terms=max_terms)
    try:
        want, m = _ratio_fraction_loop(a_top, a_bot, base, tb)
    except (DenominatorPole, NonConvergent) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            qpoch_inf_ratio(a_top, a_bot, base, tb)
        return
    got = qpoch_inf_ratio(a_top, a_bot, base, TailBound(tb.tolerance, max_terms=m + 1))
    assert type(got) is type(want) and got == want
    if m:
        with pytest.raises(NonConvergent):
            qpoch_inf_ratio(a_top, a_bot, base, TailBound(tb.tolerance, max_terms=m))


def test_exact_qpoch_inf_ratio_runs_past_the_float_range():
    # |a_bot*base**m| above the float range is not below the cutoff (its
    # quotient is inf), so the product runs on to its stop test; float() of
    # the Fraction raised OverflowError there
    a_top, a_bot, base = F(1, 3), 3 * F(2) ** 1100, F(1, 256)
    cutoff = TailBound().tolerance * (1 - float(base))
    m = next(m for m in count() if abs(a_bot * base**m) < cutoff)
    assert qpoch_inf_ratio(a_top, a_bot, base) == qpoch(a_top, base, m) / qpoch(a_bot, base, m)


def test_qbinom():
    q2 = F(1, 4)
    for n in range(6):
        assert qbinom(n, 0, q2) == 1
        assert qbinom(n, n, q2) == 1
        for j in range(n + 1):
            assert qbinom(n, j, q2) == qbinom(n, n - j, q2)
    # [2 choose 1] in base q**2 equals 1 + q**2 at q = 1/2
    assert qbinom(2, 1, F(1, 4)) == F(5, 4)
    with pytest.raises(OutOfRange):
        qbinom(3, 4, q2)


def test_rphis_trivial_cases():
    q = F(1, 4)
    # argument zero: only the n=0 term
    assert rphis(PhiSpec([F(1, 2)], [F(1, 3)], q, 0, terminate_after=None),
                 TailBound(max_terms=50)) == 1
    # numerator parameter 1 kills everything past n=0
    assert rphis(PhiSpec([1, F(1, 2)], [F(1, 3)], q, F(1, 2))) == 1


def test_rphis_two_term_expansion():
    # 2phi1 with numerators (1/base, b) terminates after 2 terms:
    # 1 + (1 - 1/base)(1 - b) z / ((1 - c)(1 - base))
    q2 = F(1, 4)
    b, c, z = F(1, 3), F(1, 5), F(2, 7)
    val = rphis(PhiSpec([1 / q2, b], [c], q2, z))
    expected = 1 + (1 - 1 / q2) * (1 - b) * z / ((1 - c) * (1 - q2))
    assert val == expected


def test_rphis_numerator_permutation_invariance():
    q2 = F(1, 4)
    nums = [q2 ** -2, F(1, 3), F(2, 5)]
    vals = {
        rphis(PhiSpec(list(perm), [F(1, 7)], q2, F(1, 2)))
        for perm in permutations(nums)
    }
    assert len(vals) == 1


def test_rphis_pole_detection():
    q = F(1, 4)
    # denominator parameter q**-2 vanishes at factor index 2, inside the
    # range of a series terminating after 4 terms
    with pytest.raises(DenominatorPole):
        rphis(PhiSpec([q ** -3], [q ** -2], q, q))
    # but a series that stops first never reaches the pole
    assert rphis(PhiSpec([q ** -1], [q ** -3], q, q)) is not None


def test_rphis_nonterminating_certified():
    qb = 0.25
    val = rphis(PhiSpec([0.3], [0.2], qb, 0.5), TailBound(tolerance=1e-14))
    # independent brute force
    brute, term = 0.0, 1.0
    for n in range(60):
        brute += term
        term *= (1 - 0.3 * qb ** n) * 0.5 / ((1 - 0.2 * qb ** n) * (1 - qb ** (n + 1)))
    assert val == pytest.approx(brute, rel=1e-12)
    with pytest.raises(NonConvergent):
        rphis(PhiSpec([0.3], [0.2], qb, 0.5), TailBound(max_terms=4))


def test_rphis_tail_bound_sees_a_late_near_pole():
    # the denominator parameter b is just below base**-6, so the first terms
    # are tiny with small ratios and the factor 1 - b*base**6 ~ 1e-40 only
    # enters at term 7; a rule that watches observed ratios stops before it
    # and misses a third of the sum
    b, base, z = 2**6 * (1 - F(1, 10**40)), F(1, 2), F(1, 10**5)
    val = rphis(PhiSpec((), (b,), base, z), TailBound(1e-12))
    # exact 200-term partial sum; the terms past 200 are below 1e-300
    ref, term, f = F(0), F(1), F(1)
    for _ in range(200):
        ref += term
        term = term * z / ((1 - base * f) * (1 - b * f))
        f *= base
    assert abs(float(ref) - 1.5584946749152) < 1e-12
    assert abs(val - ref) <= 1e-12


def _reference_rphis(spec, tb):
    # the direct evaluation in Fraction arithmetic: a termination scan, an
    # eager scan for denominator poles before the last term (the last given
    # term when terminate_after is, even past an earlier numerator zero),
    # then one Fraction operation per factor
    nums, dens = list(spec.numerators), list(spec.denominators)
    base, z = spec.base, spec.argument
    limit = tb.max_terms
    n_terms = spec.terminate_after
    detected, f = None, base * 0 + 1
    for j in range(min(limit, n_terms or limit)):
        if any(1 - a * f == 0 for a in nums):
            detected = j + 1
            break
        f *= base
    if n_terms is None:
        n_terms = detected
    elif detected is not None and detected < n_terms:
        n_terms = detected
    if n_terms is not None:
        f = base * 0 + 1
        for j in range((spec.terminate_after or n_terms) - 1):
            for b in dens:
                if 1 - b * f == 0:
                    raise DenominatorPole(
                        f"denominator parameter {b} equals base**-{j}, hit at term {j + 1}"
                    )
            f *= base
    else:
        z_mag, base_mag = float(abs(z)), float(abs(base))
        num_mags = [float(abs(a)) for a in nums]
        den_mags = [float(abs(b)) for b in dens]
    one = base * 0 + z * 0 + 1
    total, term, f = one * 0, one, one
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
            F_ = float(abs(f))
            den_bounds = [1 - base_mag * F_, *(1 - m * F_ for m in den_mags)]
            if min(den_bounds) > 0:
                ratio = z_mag
                for m in num_mags:
                    ratio *= 1 + m * F_
                for d in den_bounds:
                    ratio /= d
                if ratio < 1 and float(abs(term)) * ratio / (1 - ratio) <= tb.tolerance:
                    return total + term
    raise NonConvergent(f"series did not terminate or certify within {limit} terms")


def _outcome(evaluate, spec, tb):
    try:
        value = evaluate(spec, tb)
    except (DenominatorPole, NonConvergent) as exc:
        return type(exc), str(exc)
    return value, type(value)


_BASES = (F(1, 4), F(4), F(1, 2), F(3, 2), F(-1, 2), F(-2), F(2, 3))


@st.composite
def _phi_cases(draw):
    base = draw(st.sampled_from(_BASES))
    # a signed power base**-m makes a factor vanish at index m
    power = st.builds(lambda sign, m: sign * base ** -m, st.sampled_from((1, -1)),
                      st.integers(0, 8))
    param = st.one_of(st.fractions(-3, 3, max_denominator=9), power)
    nums = draw(st.lists(param, max_size=4))
    dens = draw(st.lists(param, max_size=3))
    z = draw(param)
    terminate_after = draw(st.one_of(st.none(), st.integers(0, 12)))
    max_terms = draw(st.one_of(st.none(), st.integers(1, 15)))
    if not terminate_after and max_terms is None:
        max_terms = 40  # a series that never stops runs to the limit
    tol = draw(st.sampled_from((1e-3, 1e-8, 1e-12)))
    return (PhiSpec(nums, dens, base, z, terminate_after),
            TailBound(tol, max_terms or qseries.DEFAULT_MAX_TERMS))


_q = F(1, 4)


@settings(max_examples=300, deadline=None)
@given(case=_phi_cases())
# early termination on a base**-m numerator, detected and given
@example(case=(PhiSpec([_q ** -2, F(1, 3)], [F(2, 5)], _q, F(1, 2)), TailBound()))
@example(case=(PhiSpec([_q ** -5], [F(2, 5)], _q, F(1, 2), terminate_after=3), TailBound()))
@example(case=(PhiSpec([_q ** -2], [F(2, 5)], _q, F(1, 2), terminate_after=7), TailBound()))
# denominator poles before and at the last term
@example(case=(PhiSpec([_q ** -4], [_q ** -2], _q, _q), TailBound()))
@example(case=(PhiSpec([_q ** -3], [_q ** -3], _q, _q), TailBound()))
@example(case=(PhiSpec([F(1, 3)], [_q ** -2], _q, _q), TailBound(max_terms=9)))
# terminate_after beyond max_terms, with and without a pole past the limit
@example(case=(PhiSpec([F(1, 3)], [F(1, 5)], _q, _q, terminate_after=20),
               TailBound(max_terms=5)))
@example(case=(PhiSpec([F(1, 3)], [_q ** -9], _q, _q, terminate_after=20),
               TailBound(max_terms=5)))
# negative parameters and a negative base; the base factor's own pole
@example(case=(PhiSpec([-F(1, 2) ** -3, F(-2, 3)], [F(-3, 5)], F(-1, 2), F(-1, 3)),
               TailBound()))
@example(case=(PhiSpec([F(2)], [F(3)], F(-1), F(1, 2)), TailBound(max_terms=10)))
# non-terminating series closed by the proved ratio bound, and one whose
# tiny argument meets the bound before a numerator factor vanishes
@example(case=(PhiSpec([F(1, 3), F(2, 7)], [F(1, 5)], _q, F(1, 2)), TailBound(1e-12)))
@example(case=(PhiSpec([F(8)], [], F(1, 2), F(1, 10**30)), TailBound(1e-12)))
# a numerator zero before a denominator parameter's zero within terminate_after
@example(case=(PhiSpec([F(1)], [F(1)], F(1, 4), F(0), terminate_after=2), TailBound()))
@example(case=(PhiSpec([_q ** -1], [_q ** -3], _q, _q, terminate_after=6), TailBound()))
def test_rphis_exact_matches_fraction_reference(case):
    spec, tb = case
    got, want = _outcome(rphis, spec, tb), _outcome(_reference_rphis, spec, tb)
    assert got == want
    if not isinstance(got[0], type):
        assert got[1] is F


@given(
    anum=st.integers(-5, 5),
    aden=st.integers(2, 7),
    j=st.integers(0, 10),
)
def test_base_inversion_pochhammer_identity(anum, aden, j):
    # (a; 1/q)_j == (-a)**j q**(-j(j-1)/2) (1/a; q)_j
    if anum == 0:
        anum = 1
    a = F(anum, aden)
    q = F(1, 4)
    lhs = qpoch(a, 1 / q, j)
    rhs = (-a) ** j * (1 / q) ** (j * (j - 1) // 2) * qpoch(1 / a, q, j)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the summation identity
# ---------------------------------------------------------------------------


def test_summation_finite_generic_rationals():
    # the model's two sides of Lemma 2.1 agree in its finite case a =
    # q**-N, at generic rationals (b, c, d) and every 0 <= x, y <= N
    q = F(1, 16)
    b, c, d = F(1, 3), F(1, 5), F(2, 7)
    for N in range(4):
        a = q ** -N
        for x in range(N + 1):
            for y in range(N + 1):
                lhs = reference.summation_lhs(q, x, y, a, b * b, b * c * d, b * d / c, N)
                rhs = reference.summation_rhs(q, x, y, a, b * b, c * c, b * c * d, N + 1)
                assert lhs == rhs, (N, x, y)


def test_summation_finite_domain_restriction():
    # the finite case lives on x, y <= N: the q-Racah sides refuse the rest
    rp = RrParams(1, 0, 0, 1, QBase(F(1, 4)))
    for side in (rr_closed, rr_inner):
        for x, y in ((2, 0), (0, 2)):
            with pytest.raises(OutOfRange, match=rf"^\(x, y\) = \({x}, {y}\) outside 0\.\.1$"):
                side(rp, x, y)


# one base per backend at p = 1/2, the point the lemma2.1 verdicts run at
BACKENDS = (QBase(F(1, 2)), QBase(0.5, "float"), QBase(F(1, 2), "complex"))


@pytest.mark.parametrize("qb", BACKENDS, ids=repr)
def test_summation_lhs_poles_name_the_requested_index(qb):
    # at (s, t, v) = (1/2, 3/2, 0) the product side's denominator parameter
    # q**(-2y+s-t-v+1) is q**(-2j) at j = y: in every backend a request at
    # y = 1 is a DenominatorPole that names the series range of its own x
    for x in (3, 2):
        with pytest.raises(DenominatorPole, match=rf"j = 1 inside the series range 0\.\.{x - 1}$"):
            rr_closed(RrParams(F(1, 2), F(3, 2), 0, 3, qb), x, 1)


def test_summation_qracah_point():
    qb = QBase(F(1, 2))
    checked = skipped = 0
    for N in range(4):
        for x in range(N + 1):
            for y in range(N + 1):
                rp = RrParams(1, 0, 0, N, qb)
                try:
                    lhs, rhs = rr_closed(rp, x, y), rr_inner(rp, x, y)
                except DenominatorPole:
                    skipped += 1  # bd/c hits a pole of the product side
                    continue
                checked += 1
                assert lhs == rhs
    assert checked == 20 and skipped == 10


def test_summation_collapses_at_a_equal_one():
    # N = 0 means a = 1: the weighted sum collapses to its n = 0 term and
    # both sides agree (x = y = 0 is the whole domain)
    rp = RrParams(1, 2, 0, 0, QBase(F(1, 3)))
    assert rr_closed(rp, 0, 0) == rr_inner(rp, 0, 0) == 1


def _or_pole(fn, *args):
    # the value, or DenominatorPole for a library pole or a model's 0 divisor
    try:
        return fn(*args)
    except (DenominatorPole, ZeroDivisionError):
        return DenominatorPole


def _racah_point(qb, N, s, t, v):
    # (a, b**2, c**2, bcd, bd/c) in base q**2 at the q-Racah point
    return (qb.qpow(-2 * N), -qb.qpow(2 * s), -qb.qpow(2 * t), -qb.qpow(s + t - v + 1),
            qb.qpow(s - t - v + 1))


def _is_model_side(qb, fn, side, stvs, inline=None):
    # fn at the q-Racah points of N <= 3 is the model's side 0 (product)
    # or 1 (series) at qb's p: exactly, as a pole of both, or as a float
    # within 1e-12 of 1 + the largest |series side| of the (x, y) grid;
    # and, given one, off the poles the inline expression's type and bits
    ex = QBase(qb.p)
    q2 = ex.qpow(2)
    for N, (s, t, v) in ((N, stv) for N in range(4) for stv in stvs):
        a, b2, c2, bcd, bd_c = _racah_point(ex, N, s, t, v)
        grid = {(x, y): (_or_pole(reference.summation_lhs, q2, x, y, a, b2, bcd, bd_c, N),
                         reference.summation_rhs(q2, x, y, a, b2, c2, bcd, N + 1))
                for x in range(N + 1) for y in range(N + 1)}
        scale = 1 + max(abs(float(rhs)) for _, rhs in grid.values())
        for (x, y), sides in grid.items():
            rp = RrParams(s, t, v, N, qb)
            got, want = _or_pole(fn, rp, x, y), sides[side]
            if inline is not None and got is not DenominatorPole:
                assert _same_bits(got, inline(rp, x, y)), (N, s, t, v, x, y)
            if qb.is_exact or want is DenominatorPole:
                assert got == want and type(got) is type(want), (N, s, t, v, x, y)
            else:
                assert type(got) is type(qb.zero()), (N, s, t, v, x, y)
                assert abs(got - float(want)) <= 1e-12 * scale, (N, s, t, v, x, y)


# the finite grid's (s, t, v): the verdict grid's five, one with bd/c = 1
# (s - t - v + 1 = 0) and one with half-integer s and v
_RACAH_STV = (*verify._STV, (F(1, 2), F(3, 2), 0), (F(1, 2), 0, F(-1, 2)))


@pytest.mark.parametrize("p", [F(1, 2), F(2, 3), F(3, 2)], ids=str)
def test_summation_sides_at_the_qracah_point_are_rr_closed_and_rr_inner(p):
    # in base q**2 at a = q**(-2N), b**2 = -q**(2s), c**2 = -q**(2t), bcd =
    # -q**(s+t-v+1) and bd/c = q**(s-t-v+1), the model's general product
    # side (its closed form) is rr_closed and its series side rr_inner:
    # the same rational, or a pole of both, at every point of N <= 5 and
    # 0 <= x, y <= N
    qb = QBase(p)
    q2 = qb.qpow(2)
    poles = 0
    for N, (s, t, v) in ((N, stv) for N in range(6) for stv in _RACAH_STV):
        rp = RrParams(s, t, v, N, qb)
        a, b2, c2, bcd, _ = _racah_point(qb, N, s, t, v)
        for x in range(N + 1):
            for y in range(N + 1):
                lhs = _or_pole(reference.rr_closed, p, s, t, v, N, x, y)
                assert lhs == _or_pole(rr_closed, rp, x, y), (N, s, t, v, x, y)
                rhs = reference.summation_rhs(q2, x, y, a, b2, c2, bcd, N + 1)
                assert rhs == rr_inner(rp, x, y), (N, s, t, v, x, y)
                poles += lhs is DenominatorPole
    # the four (s, t, v) with s - t - v + 1 in {0, 2}: 35 poles each
    assert poles == 140


@pytest.mark.parametrize("p", [F(1, 2), F(2, 3)], ids=str)
def test_summation_sides_at_the_infinite_point_are_pr_closed_and_pr_inner(p):
    # in base q**2 at a = q**(2k), b**2 = q**(2s), c**2 = q**(2t) and bcd =
    # q**(s+t-v+1), without N: the model's series side summed to 40 terms
    # (its tail is below 1e-20 of the value here) is pr_inner and, off
    # the poles pr_valid names, pr_closed, each within the tolerance of
    # the TailBound relative to 1 + |value|
    qb, tb = QBase(p), TailBound()
    q2 = qb.qpow(2)
    for k in (F(1, 2), 1, 2):
        for s, t, v in ((0, 0, -1), (1, 1, 0), (1, 2, 1)):
            pp = PrParams(s, t, v, k, qb, tb)
            a, b2, c2 = qb.qpow(2 * k), qb.qpow(2 * s), qb.qpow(2 * t)
            bcd = qb.qpow(s + t - v + 1)
            for x in range(4):
                for y in range(4):
                    want = reference.summation_rhs(q2, x, y, a, b2, c2, bcd, 40)
                    bound = tb.tolerance * (1 + abs(want))
                    assert abs(pr_inner(pp, x, y) - want) <= bound, (k, s, t, v, x, y)
                    if pr_valid(pp, x, y):
                        assert abs(pr_closed(pp, x, y) - want) <= bound, (k, s, t, v, x, y)
                    else:
                        with pytest.raises(DenominatorPole):
                            pr_closed(pp, x, y)


@pytest.mark.parametrize("p", [F(1, 2), F(2, 3)], ids=str)
def test_summation_pair_refuses_the_pole_bd_c_equal_one_hides(p):
    # at (s, t, v) = (1/2, 3/2, 0), bd/c = 1: the numerator (1; q**2)_j ends
    # the 4phi3 after its first term, before the denominator factor
    # 1 - q**(2j-2y) that it cancels vanishes at j = y.  Each point with
    # y <= x - 1 raises, as rr_closed does; every other point holds
    qb = QBase(p)
    poles = 0
    for N in range(5):
        rp = RrParams(F(1, 2), F(3, 2), 0, N, qb)
        for x in range(N + 1):
            for y in range(N + 1):
                if y <= x - 1:
                    with pytest.raises(DenominatorPole):
                        rr_closed(rp, x, y)
                    poles += 1
                else:
                    assert rr_closed(rp, x, y) == rr_inner(rp, x, y), (N, x, y)
    assert poles == 20


def test_summation_lhs_refuses_a_pole_that_a_numerator_hides():
    # (b, c, d) = (1/3, 1/5, 3/5) gives bd/c = 1: in the product side's
    # 4phi3 the numerator (1; q)_j ends the sum before the pole of its
    # denominator parameter q**-y at j = y.  rphis, asked for the x + 1
    # terms, raises at each point with y <= x - 1, naming that parameter;
    # at the other 10 points it is the model's series
    q, N = F(1, 16), 3
    a, b2, bcd = q**-N, F(1, 9), F(1, 25)
    held = 0
    for x in range(N + 1):
        for y in range(N + 1):
            nums = (q**-x, a * b2 * q**x, bcd, F(1))
            dens = (b2 * q, q**-y, a * bcd * q**y)
            spec = PhiSpec(nums, dens, q, q, terminate_after=x + 1)
            if y <= x - 1:
                message = rf"^denominator parameter {q ** -y} equals base\*\*-{y}, hit at term {y + 1}$"
                with pytest.raises(DenominatorPole, match=message):
                    rphis(spec)
            else:
                assert rphis(spec) == reference.phi(nums, dens, q, q, x + 1), (x, y)
                held += 1
    assert held == 10


@pytest.mark.parametrize("qb", [QBase(F(1, 2)), QBase(0.5, "float"), QBase(F(2, 3), "complex"),
                                QBase(F(3, 2)), QBase(1.5, "float")], ids=repr)
def test_summation_rows_are_the_loop_values(qb):
    # the series side at the q-Racah parameters of finite N is rr_inner in
    # every backend, below and above q = 1: the model's term loop, exactly
    # or within 1e-12 (no floating bits: no other route sums this side)
    _is_model_side(qb, rr_inner, 1, ((1, 0, 0), (F(1, 2), 1, -1)))


@pytest.mark.parametrize("qb", [*BACKENDS, QBase(F(2, 3), "complex"), QBase(F(3, 2)),
                                QBase(1.5, "float")], ids=repr)
def test_summation_sides_are_the_inline_expressions(qb):
    # the product side at the q-Racah parameters is rr_closed in every
    # backend, below and above q = 1: the model's product expression, and
    # off the poles the library's prefactors formed inline, every bit
    _is_model_side(qb, rr_closed, 0, _RACAH_STV, _rr_closed_inline)


def _same_bits(a, b):
    # one type and one printed form: for floats and complex numbers that
    # is every bit, the sign of a zero included
    return type(a) is type(b) and repr(a) == repr(b)


def _pair_value(x):
    # the Fraction of an integer pair, whose denominator is positive; any
    # other value as it is
    if type(x) is not tuple:
        return x
    num, den = x
    assert type(num) is type(den) is int and den > 0, x
    return F(num, den)


def _entry_outcome(row, n):
    # an entry as (value, type), or a raised error as (type, text)
    try:
        value = row[n]
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)
    return value, type(value)


_COLUMN_P = st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(3, 2), F(9, 10)])
_HALF_INTEGERS = st.integers(-12, 12).map(lambda m: F(m, 2))


@st.composite
def _series_cases(draw):
    # either family's series column: finite N, or su11 weight k (size -k,
    # k = 0 included, whose B = 1 is a pole); half-integer s, now and then
    # a third, which an exact base refuses
    qb = QBase(draw(_COLUMN_P))
    su11 = draw(st.booleans())
    size = -draw(st.integers(0, 8).map(lambda m: F(m, 2))) if su11 else draw(st.integers(0, 8))
    s = draw(st.one_of(_HALF_INTEGERS, st.just(F(1, 3))))
    x = draw(st.integers(0, 9))
    order = draw(st.permutations(range(11)))[:draw(st.integers(1, 11))]
    return (qb, su11, size, s, x), order


@st.composite
def _rhs_cases(draw):
    # the summation identity's factor in base 1/q: a = q**-N (finite N) or
    # another power of q, sq = +-q**m (q**m can vanish the C-factor
    # 1 - q**(-z-i)/(a sq)), z = x or y (negative too), and a max_terms
    # that can cut the sum
    q = draw(_COLUMN_P) ** 2
    a = q ** draw(st.integers(-8, 3))
    sq = draw(st.sampled_from([1, -1])) * q ** draw(st.integers(-8, 8))
    z = draw(st.integers(-3, 9))
    tb = TailBound(max_terms=draw(st.sampled_from([qseries.DEFAULT_MAX_TERMS, 1, 2, 3, 5])))
    order = draw(st.permutations(range(11)))[:draw(st.integers(1, 11))]
    return (q, a, tb, z, sq), order


def _summation_column(q, a, tb, z, sq):
    # the series side's 3phi2 factor in base 1/q as an exact column: Q = q,
    # C = q**-z/(a sq) and B = 1/a, made at the first entry read
    return _Row(qseries._Phi32Column(lambda: (z, q ** (-z) / (a * sq), 1 / F(a), q),
                                     tb.max_terms))


def _is_model_column(got: _Row, case, order):
    # the row of fresh per-entry rphis sums, which own the stop rule, read
    # as _same_column reads it; each held entry is the model's factor
    q, a, tb, z, sq = case

    def entry(n):
        return rphis(PhiSpec((q**n, q**z, q**-z / (a * sq)), (1 / a,), 1 / q, 1 / q,
                             terminate_after=min(n, z) + 1), tb)

    _same_column(got, _Row(entry), order)
    for n, value in enumerate(got.row):
        assert _pair_value(value) == reference.summation_factor(q, a, z, sq, n), n


def _same_column(got: _Row, want: _Row, order):
    # read in the given order: each entry an integer pair whose value is
    # the reference row's Fraction, or the error the reference row raises
    for n in order:
        value, kind = _entry_outcome(got, n)
        if not isinstance(kind, str):  # a value, not an error's text
            assert kind is tuple, n
            value, kind = _pair_value(value), F
        assert (value, kind) == _entry_outcome(want, n), n


@settings(max_examples=300, deadline=None)
@given(case=_series_cases())
# 1 - C/Q**i with Q = q**2 and C = q**(-2x-2s-2k) vanishes at i = 2 (x = 4,
# s = -7, k = 1): every sum from n = 3 on is cut short there
@example(case=((QBase(F(1, 2)), True, -1, F(-7), 4), [9, 3, 0]))
# B = q**(2N) is a pole at i = N once x > N; k = 0 is a pole at i = 0
@example(case=((QBase(F(2, 3)), False, 2, F(1, 2), 5), [0, 4, 2]))
@example(case=((QBase(F(3, 2)), True, 0, 1, 3), [2, 1]))
# an exact base given s = 1/3
@example(case=((QBase(F(3, 4)), False, 3, F(1, 3), 2), [1, 0]))
def test_exact_series_column_is_the_rphis_column(case):
    (qb, su11, size, s, x), order = case
    got = orthopoly._series.__wrapped__(qb, su11, size, s, x)
    assert isinstance(got.entry, qseries._Phi32Column)
    _same_column(got, _Row(orthopoly._series_entry, qb, su11, size, s, x), order)


@settings(max_examples=300, deadline=None)
@given(case=_rhs_cases())
# finite N = 3: 1 - q**(-z-i)/(a sq) vanishes at i = 1 (z = 2, sq = q**0)
@example(case=((F(1, 4), F(64), TailBound(), 2, 1), [2, 0, 3]))
# 1/a = q**2 is a pole at i = 2; max_terms = 3 stops a longer sum, also
# one with the pole 1/a = q**4 past the limit
@example(case=((F(4, 9), F(81, 16), TailBound(), 4, F(4, 9)), [5, 1]))
@example(case=((F(1, 4), F(1, 2), TailBound(max_terms=3), 6, -1), [7, 2]))
@example(case=((F(1, 4), F(256), TailBound(max_terms=3), 7, F(1, 4)), [6]))
# the first entry past the limit, n = min(n, z) = max_terms, for z >= 0 and
# for a negative z, whose sum of n + 1 terms meets no zero of the C-factor
@example(case=((F(1, 4), F(1, 2), TailBound(max_terms=3), 6, -1), [3]))
@example(case=((F(9, 4), F(1, 3), TailBound(max_terms=2), -2, -1), [2]))
# a negative z: the sum runs to the zero of 1 - q**(n-i), without and with
# the pole 1/a = q
@example(case=((F(9, 4), F(1, 3), TailBound(), -2, -1), [4, 0]))
@example(case=((F(9, 4), F(4, 9), TailBound(), -2, -1), [4, 0]))
def test_exact_summation_factor_is_the_rphis_column(case):
    (q, a, tb, z, sq), order = case
    _is_model_column(_summation_column(q, a, tb, z, sq), (q, a, tb, z, sq), order)


def test_exact_column_errors_come_from_the_entry_read():
    # the column call itself raises nothing; its first read raises what the
    # per-entry rphis raises, and so does every later read
    qb = QBase(F(1, 2))
    for su11, size in ((False, 3), (True, -1)):
        column = orthopoly._series.__wrapped__(qb, su11, size, F(1, 3), 2)
        for n in (0, 2, 0):
            with pytest.raises(ExactnessError, match="is not a half-integer"):
                column[n]
    column = _summation_column(F(1, 4), F(1, 2), TailBound(), 1, 0)
    with pytest.raises(ZeroDivisionError):
        column[1]
    # the pole: entries before it are values, the first entry past it raises
    column = orthopoly._series.__wrapped__(qb, False, 1, 0, 3)
    assert type(column[1]) is tuple
    assert _pair_value(column[1]) == orthopoly._series_entry(qb, False, 1, 0, 3, 1)
    with pytest.raises(DenominatorPole, match=r"equals base\*\*-1, hit at term 2"):
        column[2]


@st.composite
def _long_column_cases(draw):
    # a summation-side column read past the power-basis crossover: Q = q
    # below and above 1, z below and above the entries read, a B = 1/a
    # pole (a = q**-m, m >= 0) or a C = q**-z/(a sq) zero, and a limit
    # that can cut the sum before z
    q = draw(_COLUMN_P) ** 2
    a = q ** draw(st.integers(-10, 3))
    sq = draw(st.sampled_from([1, -1])) * q ** draw(st.integers(-10, 10))
    z = draw(st.integers(-2, 24))
    limit = draw(st.sampled_from([qseries.DEFAULT_MAX_TERMS, 3, 8, 20]))
    return (q, a, TailBound(max_terms=limit), z, sq), draw(st.integers(0, 40))


@settings(max_examples=200, deadline=None)
@given(case=_long_column_cases())
# Q < 1 and Q > 1, stepped from the crossover on
@example(case=((F(1, 4), F(4), TailBound(), 3, F(1, 4)), 40))
@example(case=((F(9, 4), F(2, 3), TailBound(), 5, -1), 30))
# the crossover entry itself, and z past it (n < z up to n = z)
@example(case=((F(4, 9), F(1, 2), TailBound(), 2, 1), qseries._POWER_FROM))
@example(case=((F(81, 100), F(1, 2), TailBound(), 20, -1), 24))
# a C zero at i = 1 ends every longer sum, with the B pole at i = 2 past
# it named from n = 3 on; a B pole alone; z at and past the limit
@example(case=((F(1, 4), F(16), TailBound(), 5, F(256)), 30))
@example(case=((F(1, 4), F(64), TailBound(), 5, -1), 30))
@example(case=((F(1, 4), F(1, 2), TailBound(max_terms=8), 8, -1), 30))
@example(case=((F(1, 4), F(1, 2), TailBound(max_terms=8), 12, -1), 30))
def test_long_column_entries_are_the_rphis_entries(case):
    # every entry, Horner before the crossover and the stepped power-basis
    # form after it, is the model's factor where the per-entry rphis has a
    # value, and raises rphis's error, text and all, where it raises
    (q, a, tb, z, sq), last = case
    _is_model_column(_summation_column(q, a, tb, z, sq), (q, a, tb, z, sq), range(last + 1))


def test_long_columns_step_the_power_basis_from_the_crossover():
    # at p = 9/10 the su11 series at x = 3 runs to hundreds of entries: the
    # entries before the crossover are Horner's, the later ones the power
    # basis's, rphis's values and Horner's very integer pairs
    qb = QBase(F(9, 10))
    column = orthopoly._series.__wrapped__(qb, True, -1, 1, 3)
    start = qseries._POWER_FROM
    column[start - 1]
    assert column.entry.power is None
    want = _Row(orthopoly._series_entry, qb, True, -1, 1, 3)
    _same_column(column, want, range(start, start + 30))
    assert column.entry.power is not None
    for x, p in ((1, F(2, 3)), (3, F(1, 3)), (7, F(3, 2)), (20, F(1, 2))):
        column = orthopoly._series.__wrapped__(QBase(p), True, -2, F(1, 2), x)
        with mock.patch.object(qseries, "_POWER_FROM", 10**9):
            horner = orthopoly._series.__wrapped__(QBase(p), True, -2, F(1, 2), x)
            horner[x + 40]
        column[x + 40]
        assert column.row == horner.row, (x, p)
        assert column.entry.power is not None and horner.entry.power is None
    # a column with a C zero before x keeps Horner throughout
    column = _summation_column(F(1, 4), F(1, 4), TailBound(), 5, F(4**7))
    column[start + 5]
    assert column.entry.power is None


def test_a_numerator_zero_does_not_hide_a_later_denominator_pole():
    # terminate_after = 2 asks for the term past the numerator zero at
    # index 0, whose denominator factor 1 - 1*base**0 vanishes: the
    # parameter is named, as for a pole the sum reaches
    pole = "denominator parameter 1 equals base\\*\\*-0, hit at term 1"
    with pytest.raises(DenominatorPole, match=pole):
        rphis(PhiSpec([F(1)], [F(1)], F(1, 4), F(0), terminate_after=2))
    with pytest.raises(DenominatorPole, match="denominator parameter 1.0 equals"):
        rphis(PhiSpec([1.0], [1.0], 0.25, 0.0, terminate_after=2))
    # a sum that ends before the pole's term, or asked for no more terms,
    # keeps its value
    assert rphis(PhiSpec([F(1)], [F(1, 4)], F(1, 4), F(1, 2), terminate_after=2)) == 1
    assert rphis(PhiSpec([F(1)], [F(1)], F(1, 4), F(0), terminate_after=1)) == 1
    # the column mirrors it: the su11 series at k = 0, s = -x has C = B = 1,
    # so every entry past n = 0 names B
    column = orthopoly._series.__wrapped__(QBase(F(1, 2)), True, 0, -2, 2)
    assert _pair_value(column[0]) == 1
    for n in (1, 3):
        with pytest.raises(DenominatorPole, match=pole):
            column[n]
        with pytest.raises(DenominatorPole, match=pole):
            orthopoly._series_entry(QBase(F(1, 2)), True, 0, -2, 2, n)


def _tail_certified(magnitudes, tb: TailBound, run: int = 3) -> bool:
    # the stop rule certified_sum keeps in two counters, as it read the
    # whole list of magnitudes: `run` consecutive sub-threshold terms with
    # ratios below the cap
    if len(magnitudes) < max(run + 1, 6):
        return False
    floor = tb.tolerance * (1 - qseries.RATIO_CAP)
    recent = magnitudes[-run:]
    if any(m >= floor for m in recent):
        return False
    prev = magnitudes[-run - 1 :]
    for a, b in zip(prev, prev[1:]):
        if a > 0 and b / a > qseries.RATIO_CAP:
            return False
    return True


def _fraction_certified_sum(terms, tb):
    # the reference: multiply each term's factors and sum term by term in
    # Fraction arithmetic, reading magnitudes with float()
    total, mags = None, []
    for n, factors in enumerate(terms):
        t = factors[0]
        for f in factors[1:]:
            t = t * f
        total = t if total is None else total + t
        mags.append(float(abs(t)))
        if _tail_certified(mags, tb):
            return total, n + 1
    return total, len(mags)


def _geometric_terms(ratio, seeds, shape):
    # factor tuples whose products are +-ratio**n * c: each term splits c
    # differently, so the factors' denominators do not cancel pairwise
    n = 0
    while True:
        a = seeds[n % len(seeds)]
        yield shape((-1) ** (n // 2) * ratio**n * a, seeds[0] / a)
        n += 1


@settings(max_examples=60, deadline=None)
@given(
    rnum=st.integers(1, 8),
    seeds=st.lists(st.fractions(F(1, 9), 9, max_denominator=40), min_size=1, max_size=4),
    tol_exp=st.integers(3, 14),
)
def test_certified_sum_pairs_match_fraction_sums(rnum, seeds, tol_exp):
    # exact factor tuples (and bare Fractions) give the rational of the
    # Fraction sum and stop after the same term; the result is a Fraction
    tb = TailBound(10.0**-tol_exp, max_terms=1000)
    ratio = F(rnum, 10)
    for shape in (lambda a, b: (a, b, 1), lambda a, b: (a * b,)):
        want, used = _fraction_certified_sum(_geometric_terms(ratio, seeds, shape), tb)
        consumed = 0

        def counted(shape=shape):
            nonlocal consumed
            for term in _geometric_terms(ratio, seeds, shape):
                consumed += 1
                yield term if len(term) > 1 else term[0]

        got = certified_sum(counted(), tb)
        assert type(got) is F and got == want
        assert consumed == used


# magnitudes 2**-e and zeros, with RATIO_CAP set to 1/2: every ratio is
# exact, so one exactly equal to the cap is reached, and with tolerance
# 2**-20 the floor tolerance*(1-RATIO_CAP) = 2**-21 is itself a magnitude
# (not below it); with tolerance 4 every term is below the floor 2 and only
# ratios count
_POWERS = st.one_of(st.none(), st.integers(0, 26))


@settings(max_examples=300, deadline=None)
@given(exps=st.lists(_POWERS, max_size=40), signs=st.integers(0, 2**40 - 1),
       floating=st.booleans(),
       tol=st.sampled_from([2.0**-20, 4.0]))
@example(exps=[20, 21, 22, 23, 24, 25, 26], signs=0, floating=False,
         tol=2.0**-20)  # every ratio is the cap
@example(exps=[16, 22, 23, 24, 17, 22, 23, 24, 25], signs=5, floating=False,
         tol=2.0**-20)  # below the floor, above it again, below again
@example(exps=[22, None, None, 23, None, 24, 25], signs=0, floating=True,
         tol=2.0**-20)  # zeros
@example(exps=[18, 19, 20, 21, 22, 23, 24], signs=0, floating=False,
         tol=2.0**-20)  # the floor itself among the last three at term 6
@example(exps=[3, 4, 5, None, 0, 1, 2], signs=0, floating=False,
         tol=4.0)  # a ratio after a zero is not read
def test_certified_sum_stops_where_the_list_rule_does(exps, signs, floating, tol):
    # the two counters stop at the first n at which _tail_certified over the
    # first n + 1 magnitudes holds; a finite series that never certifies is
    # summed whole
    tb = TailBound(tol)
    terms = [0 if e is None else (-1) ** (signs >> i & 1) * F(1, 2**e)
             for i, e in enumerate(exps)]
    if floating:
        terms = [float(t) for t in terms]
    mags = [float(abs(t)) for t in terms]
    consumed = 0

    def counted():
        nonlocal consumed
        for term in terms:
            consumed += 1
            yield term

    with mock.patch.object(qseries, "RATIO_CAP", 0.5):
        used = next((n + 1 for n in range(len(terms))
                     if _tail_certified(mags[: n + 1], tb)), len(terms))
        got = certified_sum(counted(), tb)
    assert consumed == used
    want = 0
    for t in terms[:used]:
        want = want + t
    assert got == want and type(got) is (float if floating and used else
                                           F if used else int)


def test_certified_sum_reads_exact_terms_beyond_the_float_range():
    # exact terms whose magnitudes overflow a float are summed, and the sum
    # stops where the list rule on exact magnitudes stops: a huge first
    # term, a ratio above the cap between two huge terms, a huge term after
    # a small one, each followed by geometric decay
    tb = TailBound(1e-12)
    huge = F(10**400, 7)
    for head in ([huge], [huge, huge * 10**5, huge / 3], [F(1, 3), huge, huge * 2]):
        terms = [*head, *(F(1, 10 ** (3 * n)) for n in range(1, 12))]
        mags = [abs(t) for t in terms]
        used = next(n + 1 for n in range(len(terms))
                    if n + 1 >= 6 and _tail_certified(mags[: n + 1], tb))
        consumed = 0

        def counted():
            nonlocal consumed
            for term in terms:
                consumed += 1
                yield term, F(1)

        got = certified_sum(counted(), tb)
        assert consumed == used, head
        assert type(got) is F and got == sum(terms[:used]), head
    # a floating term beyond the range still raises
    with pytest.raises(NonConvergent, match="term 1 exceeds the floating-point range"):
        certified_sum(iter([0.5, 1e300 * 1e10]), tb)



def test_certified_sum_floating_factors_keep_their_order():
    # floating factors are multiplied left to right and summed in order, so
    # the sum is bit-identical to summing the products
    tb = TailBound(1e-12)
    for scale in (1.1, 1.1 + 0.3j):
        terms = [(0.7**n * scale, 1 / 3, (-1) ** n * 0.9) for n in range(200)]
        want, _ = _fraction_certified_sum(terms, tb)
        assert _same_bits(certified_sum(iter(terms), tb), want)
    assert certified_sum(iter([]), tb) == 0


def test_certified_sum_of_exact_terms_refuses_a_floating_one():
    # an exact first term makes the sum exact: a later term with a float
    # or complex factor, bare or in a tuple, raises and is not summed in
    tb = TailBound(1e-12)
    for x in (0.5, -0.0, 0.5 - 1j):
        for late in (x, (F(1, 3), x), (2, x, F(1, 5))):
            for head in ([F(1, 2)], [(F(10**400, 7), 3)], [1, (F(1, 3), 2)]):
                with pytest.raises(ExactnessError,
                                   match=r"^a certified sum of exact terms got the term"):
                    certified_sum(iter([*head, late, F(1, 10**9)]), tb)


@st.composite
def _ratio_cases(draw):
    # (tn, td, hn, hd): positive denominators, a nonzero hn and a tn that
    # may be 0, all of bit lengths within 4 of each other, so the two
    # sides' bit-length sums are often equal or 1 or 2 apart
    bits = draw(st.integers(1, 300))

    def draw_int():
        b = draw(st.integers(max(1, bits - 4), bits + 4))
        return draw(st.integers(2 ** (b - 1), 2**b - 1))

    tn = draw(st.sampled_from([1, -1, 0])) * draw_int()
    hn = draw(st.sampled_from([1, -1])) * draw_int()
    return tn, draw_int(), hn, draw_int()


@settings(max_examples=500, deadline=None)
@given(case=_ratio_cases(), cap=st.sampled_from([qseries.RATIO_CAP, 0.5, 0.75, 1.0, 3.0]))
# the ratio exactly at the cap, and just above it
@example(case=(9, 10, 1, 1), cap=qseries.RATIO_CAP)
@example(case=(2**101, 1, 2**100, 1), cap=2.0)
@example(case=(2**101 + 1, 1, 2**100, 1), cap=2.0)
@example(case=(-(2**600), 3, 2**300, 7), cap=qseries.RATIO_CAP)  # far apart
@example(case=(2**300, 7, -(2**600), 3), cap=qseries.RATIO_CAP)
def test_ratio_test_by_bit_lengths_is_the_cross_multiplication(case, cap):
    # |tn/td| / |hn/hd| > cap, decided from bit lengths where they decide
    # and by cross-multiplying otherwise, is the cross-multiplication's
    # verdict
    tn, td, hn, hd = case
    cn, cd = cap.as_integer_ratio()
    want = abs(tn) * hd * cd > cn * abs(hn) * td
    assert qseries._above_cap(tn, td, hn, hd, cap) is want


# float.hex of (real part, imaginary part) at p = 1/2, tolerance 1e-13,
# the bits of certified_sum's floating loop; keys (mode, name, s, k, a, b)
_FLOATING_CERTIFIED = {
    ("float", "asc_orth_n", 0, 1, 0, 1): ("0x1.19e1599e226abp-53", "0x0.0p+0"),
    ("float", "asc_orth_n", 1, 2, 1, 1): ("0x1.0000000000000p-36", "0x0.0p+0"),
    ("float", "asc_orth_x", 0, 1, 0, 1): ("0x1.c7fbb7fffb984p-56", "0x0.0p+0"),
    ("float", "asc_orth_x", 1, 2, 2, 2): ("0x1.0980000000000p-48", "0x0.0p+0"),
    ("complex", "asc_orth_n", 0.5 + 0.25j, 1, 0, 1): ("-0x1.ff111ea220410p-52",
                                                    "0x1.0480c286649a4p-55"),
    ("complex", "asc_orth_n", 0.5 + 0.25j, 1, 1, 1): ("0x1.0800000000000p-40",
                                                    "0x1.0000000000000p-45"),
    ("complex", "asc_orth_x", 0.5 + 0.25j, 1, 0, 1): ("0x1.33374d6a0e63dp-55",
                                                    "0x1.bc5207331cf22p-59"),
    ("complex", "asc_orth_x", 0.5 + 0.25j, 1, 2, 2): ("0x1.6800000000000p-47",
                                                    "-0x1.4d60f654de829p-47"),
}
# (mode, s, t, v, k, relation, idx, idx2)
_FLOATING_BIORTH = {
    ("float", 0, 0, -1, 1, "x", 0, 1): ("0x1.f7c26f7c4738cp-53", "0x0.0p+0"),
    ("float", 1, 1, 0, 2, "y", 1, 1): ("0x1.0240000000000p-35", "0x0.0p+0"),
    ("complex", 0, 0, -1, 1, "x", 0, 1): ("0x1.f7c26f7c4738cp-53", "0x0.0p+0"),
    ("complex", 1, 1, 0.5j, 2, "y", 1, 1): ("0x1.0180000000000p-35", "0x1.a2351724cb57bp-46"),
}


def test_floating_certified_sums_keep_their_bits():
    # the floating residuals summed by certified_sum: the x- and n-summed
    # orthogonality and the biorthogonality, every bit of both parts
    tb = TailBound(1e-13)

    def bits(value):
        value = complex(value)
        return value.real.hex(), value.imag.hex()

    for (mode, name, s, k, a, b), want in _FLOATING_CERTIFIED.items():
        ap = orthopoly.ASCParams(0, s, k, QBase(0.5, mode), tb)
        value = getattr(orthopoly, name)(ap, a, b)
        assert type(value) is (float if mode == "float" else complex)
        assert bits(value) == want, (mode, name, s, k, a, b)
    for (mode, s, t, v, k, relation, i, j), want in _FLOATING_BIORTH.items():
        value = multivar.multi_biorth_residual_asc(QBase(0.5, mode), s, t, v, (k,), relation,
                                                   (i,), (j,), tb)
        assert type(value) is (float if mode == "float" else complex)
        assert bits(value) == want, (mode, s, t, v, k, relation, i, j)
