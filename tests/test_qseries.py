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
    QBase,
    TailBound,
    certified_sum,
    qbinom,
    qpoch,
    qpoch_inf,
    qpoch_inf_ratio,
    rphis,
    summation_lhs,
    summation_pair_qracah,
    summation_rhs,
)
from qracah import orthopoly, qseries
from qracah.errors import DenominatorPole, ExactnessError, NonConvergent, OutOfRange
from qracah.scalar import Unreduced, ordered_sum
from qracah.tables import _Row


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
    # eager scan for denominator poles, then one Fraction operation per factor
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
        for j in range(n_terms - 1):
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
    qb = QBase(F(1, 2))  # series base q**2 handled inside via squaring
    base_holder = QBase(F(1, 4))  # base q = 1/16 directly
    q = base_holder.q
    for N in range(4):
        a = q ** -N
        b, c, d = F(1, 3), F(1, 5), F(2, 7)
        for x in range(N + 1):
            for y in range(N + 1):
                lhs = summation_lhs(base_holder, x, y, a, b, c, d, N=N)
                rhs = summation_rhs(base_holder, x, y, a, b, c, d, N=N)
                assert lhs == rhs


def test_summation_finite_domain_restriction():
    # the product side has (a;q)_x in a denominator: x > N is a pole, and
    # the identity's finite case lives on x, y <= N
    qb = QBase(F(1, 4))
    q = qb.q
    with pytest.raises(DenominatorPole):
        summation_lhs(qb, 2, 0, q ** -1, F(1, 3), F(1, 5), F(2, 7), N=1)


# one base per backend at p = 1/2, the point the lemma2.1 verdicts run at
BACKENDS = (QBase(F(1, 2)), QBase(0.5, "float"), QBase(F(1, 2), "complex"))


def _bits(value):
    # the type and the repr: equal bits for a float or complex, the same
    # rational for a Fraction
    return type(value), repr(value)


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


def _summation_lhs_inline(q, x, y, a, b2, bcd, bd_c, N, tb):
    """The product side with every prefactor formed inline, per call: the
    reference its per-point tables are read against."""
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


@pytest.mark.parametrize("qb", BACKENDS, ids=repr)
def test_summation_lhs_prefactor_tables_keep_every_bit(qb):
    # every point of the lemma2.1 grid, cold and then from the tables: the
    # value and type of the inline expressions, bit for bit
    from qracah.verify import _stv_points

    p2 = qb.p * qb.p if qb.mode == "exact" else float(qb.p) ** 2
    q2, tb = p2 * p2, TailBound()
    for N, s, t, v, x, y in _stv_points(4, off_poles=True):
        args = (q2, x, y, qb.qpow(-2 * N), -qb.qpow(2 * s), -qb.qpow(s + t - v + 1),
                qb.qpow(s - t - v + 1), N, tb)
        want = _outcome(_summation_lhs_inline, *args)
        for _ in range(2):
            assert _outcome(qseries._summation_lhs, *args) == want, (N, s, t, v, x, y)


@pytest.mark.parametrize("qb", BACKENDS, ids=repr)
def test_summation_lhs_poles_name_the_requested_index(qb):
    # (a;q)_x at a = 1/q vanishes from x = 2 on, and (abcd;q)_y at abcd =
    # 1/q from y = 2 on: a request names its own x or y, not the first
    # vanishing one, and the y pole is a DenominatorPole, not a bare
    # division by zero
    cast = {"exact": F, "float": float, "complex": complex}[qb.mode]
    q = qb.q
    b, c, d = cast(F(1, 3)), cast(F(1, 5)), cast(F(2, 7))
    for x in (3, 2):
        args = (q, x, 0, 1 / cast(q), b * b, b * c * d, b * d / c, 3, TailBound())
        with pytest.raises(DenominatorPole, match=f"x={x}$"):
            summation_lhs(qb, x, 0, 1 / cast(q), b, c, d, N=3)
        assert _outcome(qseries._summation_lhs, *args) == _outcome(_summation_lhs_inline, *args)
    a, b, c, d = cast(F(1, 16)), cast(2), cast(2), cast(16)  # abcd = 4 = 1/q
    for y in (3, 2):
        with pytest.raises(DenominatorPole, match=rf"^\(abcd;q\)_y vanishes at .*, y={y}$"):
            summation_lhs(qb, 0, y, a, b, c, d, N=3)


def test_summation_qracah_point():
    qb = QBase(F(1, 2))
    checked = skipped = 0
    for N in range(4):
        for x in range(N + 1):
            for y in range(N + 1):
                try:
                    lhs, rhs = summation_pair_qracah(qb, N, 1, 0, 0, x, y)
                except DenominatorPole:
                    skipped += 1  # bd/c hits a pole of the product side
                    continue
                checked += 1
                assert lhs == rhs
    assert checked == 20 and skipped == 10


def test_summation_collapses_at_a_equal_one():
    # N = 0 means a = 1: the weighted sum collapses to its n = 0 term and
    # both sides agree (x = y = 0 is the whole domain)
    qb = QBase(F(1, 3))
    lhs, rhs = summation_pair_qracah(qb, 0, 1, 2, 0, 0, 0)
    assert lhs == rhs == 1


def test_summation_xy_zero_is_qbinomial_theorem():
    # x = y = 0: both series factors are 1 and the identity reduces to the
    # q-binomial theorem ratio (a b c d; q)_inf / (b c d; q)_inf
    qb = QBase(0.5, "float")
    q = qb.q
    a, b, c, d = 0.3, 0.4, 0.2, 0.5
    tb = TailBound(tolerance=1e-15)
    lhs = summation_lhs(qb, 0, 0, a, b, c, d, tb=tb)
    rhs = summation_rhs(qb, 0, 0, a, b, c, d, tb=tb)
    ratio = qpoch_inf(a * b * c * d, q, tb) / qpoch_inf(b * c * d, q, tb)
    assert lhs == pytest.approx(ratio, rel=1e-11)
    assert rhs == pytest.approx(ratio, rel=1e-11)


def test_summation_infinite_case_float():
    qb = QBase(0.5, "float")
    a, b, c, d = 0.3, 0.4, 0.23, 0.5
    tb = TailBound(tolerance=1e-15)
    for x, y in ((0, 1), (1, 1), (2, 1), (1, 3)):
        lhs = summation_lhs(qb, x, y, a, b, c, d, tb=tb)
        rhs = summation_rhs(qb, x, y, a, b, c, d, tb=tb)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_summation_rhs_takes_an_int_a_exactly():
    # an int a takes the exact column: the series side is the Fraction that
    # Fraction(a) gives and matches the product side, for finite N (a =
    # q**-N = 4 at q = 1/4) and for the certified sum
    qb = QBase(F(1, 2))
    b, c, d = F(1, 3), F(1, 5), F(1, 7)
    tb = TailBound(tolerance=1e-15)
    for a, N in ((4, 1), (2, None)):
        for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
            rhs = summation_rhs(qb, x, y, a, b, c, d, N, tb)
            assert type(rhs) is F, (a, N, x, y)
            assert rhs == summation_rhs(qb, x, y, F(a), b, c, d, N, tb), (a, N, x, y)
            lhs = summation_lhs(qb, x, y, a, b, c, d, N, tb)
            assert (lhs == rhs) if N is not None else abs(lhs - rhs) < 1e-13, (a, N, x, y)


def _summation_rhs_loop(q, x, y, a, b2, c2, bcd, N, tb):
    """The series side as one loop, the coefficient carried term by term
    and each 3phi2 factor a fresh series: the reference the rows are read
    against.  Returns the terms summed and the sum."""

    def factor(n, z, sq):
        return rphis(PhiSpec(numerators=(q ** n, q ** z, q ** (-z) / (a * sq)),
                             denominators=(1 / a,), base=1 / q, argument=1 / q,
                             terminate_after=min(n, z) + 1), tb)

    used = []

    def terms():
        coeff = q * 0 + 1
        poch_q = coeff
        n = 0
        while True:
            used.append((coeff / poch_q, factor(n, x, b2), factor(n, y, c2)))
            yield used[-1]
            coeff *= bcd * (1 - a * q ** n)
            poch_q *= 1 - q ** (n + 1)
            n += 1

    if N is not None:
        gen = terms()
        total = ordered_sum(next(gen) for _ in range(N + 1))
    else:
        total = certified_sum(terms(), tb)
    return used, total


def _same_bits(a, b):
    # one type and one printed form: for floats and complex numbers that
    # is every bit, the sign of a zero included
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("qb", [QBase(F(1, 2)), QBase(0.5, "float"), QBase(F(2, 3), "complex"),
                                QBase(F(3, 2)), QBase(1.5, "float")], ids=repr)
def test_summation_rows_are_the_loop_values(qb):
    # the rows of the series side, _rhs_coeffs and _rhs_factor, read entry
    # by entry, and the sum over them, are the loop's terms and sum, value
    # and type and every float bit, at the q-Racah parameters of finite N
    # and, for q < 1, in the certified branch
    tb = TailBound(1e-12)
    q = qb.qpow(2)
    points = []
    for N in range(4):
        for s, t, v in ((1, 0, 0), (F(1, 2), 1, -1)):
            b2, c2, bcd = -qb.qpow(2 * s), -qb.qpow(2 * t), -qb.qpow(s + t - v + 1)
            points += [(qb.qpow(-2 * N), b2, c2, bcd, N, x, y)
                       for x in range(N + 1) for y in range(N + 1)]
    if qb.q < 1:
        points += [(qb.qpow(a), qb.qpow(2), -qb.qpow(1), qb.qpow(3), None, x, y)
                   for a in (1, 3) for x in range(3) for y in range(3)]
    longest = 0
    for a, b2, c2, bcd, N, x, y in points:
        used, want = _summation_rhs_loop(q, x, y, a, b2, c2, bcd, N, tb)
        longest = max(longest, len(used))
        got = qseries._summation_rhs(q, x, y, a, b2, c2, bcd, N, tb)
        assert _same_bits(got, want), (a, N, x, y)
        rows = (qseries._rhs_coeffs(q, a, bcd), qseries._rhs_factor(q, a, tb, x, b2),
                qseries._rhs_factor(q, a, tb, y, c2))
        for n in reversed(range(len(used))):
            # an exact 3phi2 factor is an Unreduced pair: its value is the
            # loop's Fraction
            got = [row[n] for row in rows]
            if qb.is_exact:
                assert [type(g) for g in got] == [F, Unreduced, Unreduced], (a, N, x, y, n)
            assert all(map(_same_bits, map(_pair_value, got), used[n])), (a, N, x, y, n)
    # finite sums of up to N + 1 = 4 terms; the certified branch (q < 1)
    # ran past its minimum of six terms
    assert longest > 6 if qb.q < 1 else longest == 4


def test_summation_rows_shared_across_signed_zeros_keep_the_loop_sums():
    # complex parameters that differ only in the sign of a zero key one row
    # each; read in either order, every sum is still the loop's, bit for bit
    qb, tb = QBase(F(5, 7), "complex"), TailBound(1e-12)  # a base no other test uses
    q = qb.qpow(2)
    for order in (1, -1):
        for r, N in ((-0.9, 2), (0.9, 3), (-0.3, None)):
            a = qb.qpow(-2 * N) if N is not None else qb.qpow(1)
            for bcd, b2 in ((complex(r, 0.0), complex(0.7, -0.0)),
                            (complex(r, -0.0), complex(0.7, 0.0)))[::order]:
                for x in range(3):
                    for y in range(3):
                        want = _summation_rhs_loop(q, x, y, a, b2, -0.4 + 0j, bcd, N, tb)[1]
                        got = qseries._summation_rhs(q, x, y, a, b2, -0.4 + 0j, bcd, N, tb)
                        assert _same_bits(got, want), (order, r, N, x, y)


def _pair_value(x):
    # the Fraction of an Unreduced pair, whose denominator is positive;
    # any other value as it is
    if type(x) is not Unreduced:
        return x
    assert x.denominator > 0, x
    return F(x.numerator, x.denominator)


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


def _same_column(got: _Row, want: _Row, order):
    # read in the given order: each entry an Unreduced pair whose value is
    # the reference row's Fraction, or the error the reference row raises
    for n in order:
        value, kind = _entry_outcome(got, n)
        if not isinstance(kind, str):  # a value, not an error's text
            assert kind is Unreduced, n
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
# a negative z: the sum runs to the zero of 1 - q**(n-i), without and with
# the pole 1/a = q
@example(case=((F(9, 4), F(1, 3), TailBound(), -2, -1), [4, 0]))
@example(case=((F(9, 4), F(4, 9), TailBound(), -2, -1), [4, 0]))
def test_exact_summation_factor_is_the_rphis_column(case):
    (q, a, tb, z, sq), order = case
    got = qseries._rhs_factor.__wrapped__(q, a, tb, z, sq)
    assert isinstance(got.entry, qseries._Phi32Column)
    _same_column(got, _Row(qseries._rhs_factor_entry, q, a, tb, z, sq), order)


def test_exact_column_errors_come_from_the_entry_read():
    # the column call itself raises nothing; its first read raises what the
    # per-entry rphis raises, and so does every later read
    qb = QBase(F(1, 2))
    for su11, size in ((False, 3), (True, -1)):
        column = orthopoly._series.__wrapped__(qb, su11, size, F(1, 3), 2)
        for n in (0, 2, 0):
            with pytest.raises(ExactnessError, match="is not a half-integer"):
                column[n]
    column = qseries._rhs_factor.__wrapped__(F(1, 4), F(1, 2), TailBound(), 1, 0)
    with pytest.raises(ZeroDivisionError):
        column[1]
    # the pole: entries before it are values, the first entry past it raises
    column = orthopoly._series.__wrapped__(qb, False, 1, 0, 3)
    assert type(column[1]) is Unreduced
    assert _pair_value(column[1]) == orthopoly._series_entry(qb, False, 1, 0, 3, 1)
    with pytest.raises(DenominatorPole, match=r"equals base\*\*-1, hit at term 2"):
        column[2]


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
    # floating terms after two huge exact ones that cancel: the ratio to
    # the first float is read on integer pairs, and the sum is the floats'
    terms = [huge, -huge, *(0.5 * 10.0 ** (-3 * n) for n in range(12))]
    mags = [abs(F(t)) for t in terms]
    used = next(n + 1 for n in range(len(terms))
                if n + 1 >= 6 and _tail_certified(mags[: n + 1], tb))
    want = 0
    for t in terms[2:used]:
        want = want + t
    assert _same_bits(certified_sum(iter(terms), tb), want)
    # a floating term beyond the range still raises, and so does a floating
    # sum that would have to take in an exact prefix beyond it
    with pytest.raises(NonConvergent, match="term 1 exceeds the floating-point range"):
        certified_sum(iter([F(1, 2), 1e300 * 1e10]), tb)
    with pytest.raises(NonConvergent, match="exact terms before term 1 exceed"):
        certified_sum(iter([huge, 0.5]), tb)



def test_certified_sum_reads_pair_factors_as_their_fractions():
    # factors that are Unreduced pairs (scaled out of lowest terms, negative
    # numerators among them) give the sum, its type and its stop index that
    # the equal Fractions give; the huge heads run the branch for exact
    # terms beyond the float range
    tb = TailBound(1e-12)
    huge = F(10**400, 7)
    heads = ([], [huge], [huge, -huge * 10**5, huge / 3], [F(1, 3), huge, huge * 2])
    shapes = (lambda f: (f, F(2, 3), 5), lambda f: f, lambda f: (-3, f))
    for head in heads:
        values = [*head, *((-1) ** n * F(7, 10 ** (3 * n)) for n in range(1, 12))]
        for g, shape in ((1, shapes[0]), (6, shapes[1]), (10**30 + 1, shapes[2])):
            sums = []
            for paired in (True, False):
                terms = [shape(Unreduced(v.numerator * g, v.denominator * g) if paired else v)
                         for v in values]
                consumed = 0

                def counted(terms=terms):
                    nonlocal consumed
                    for term in terms:
                        consumed += 1
                        yield term

                got = certified_sum(counted(), tb)
                sums.append((type(got), got, consumed))
            assert sums[0] == sums[1], (head, g)
            assert sums[0][0] is F and sums[0][2] < len(values), (head, g)

def test_certified_sum_floating_factors_keep_their_order():
    # floating factors are multiplied left to right and summed in order, so
    # the sum is bit-identical to summing the products; an exact prefix
    # joins the floating sum as one Fraction
    tb = TailBound(1e-12)
    for scale in (1.1, 1.1 + 0.3j):
        terms = [(0.7**n * scale, 1 / 3, (-1) ** n * 0.9) for n in range(200)]
        want, _ = _fraction_certified_sum(terms, tb)
        assert certified_sum(iter(terms), tb) == want
        mixed = [(F(1, 3), F(2, 7))] + terms
        want, _ = _fraction_certified_sum(mixed, tb)
        assert certified_sum(iter(mixed), tb) == want
    assert certified_sum(iter([]), tb) == 0
