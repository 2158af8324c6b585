"""Pochhammer symbols, hypergeometric series and the summation identity."""

from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qracah import (
    PhiSpec,
    QBase,
    TailBound,
    qbinom,
    qpoch,
    qpoch_inf,
    qpoch_inf_ratio,
    rphis,
    summation_lhs,
    summation_pair_qracah,
    summation_rhs,
)
from qracah.errors import DenominatorPole, NonConvergent, OutOfRange


def test_qpoch_basics():
    q = F(1, 4)
    assert qpoch(F(1, 3), q, 0) == 1
    assert qpoch(1, q, 5) == 0  # first factor 1-1
    assert qpoch(F(1, 4), F(1, 4), 1) == F(3, 4)
    assert qpoch(F(1, 2), q, 3) == (1 - F(1, 2)) * (1 - F(1, 8)) * (1 - F(1, 32))
    with pytest.raises(OutOfRange):
        qpoch(F(1, 2), q, -1)


def test_qpoch_inf_against_long_product():
    # brute-force oracle: 200 explicit factors
    val = qpoch_inf(0.5, 0.5, TailBound(tolerance=1e-15))
    brute = 1.0
    for m in range(200):
        brute *= 1 - 0.5 * 0.5 ** m
    assert val == pytest.approx(brute, rel=1e-12)
    assert qpoch_inf(0.0, 0.25) == 1.0


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
    assert rphis(PhiSpec([F(1, 2)], [F(1, 3)], q, 0, terminate_after=None, max_terms=50)) == 1
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
        rphis(PhiSpec([0.3], [0.2], qb, 0.5, max_terms=4))


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
    limit = spec.max_terms or tb.max_terms
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
    return PhiSpec(nums, dens, base, z, max_terms, terminate_after), TailBound(tol)


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
@example(case=(PhiSpec([F(1, 3)], [_q ** -2], _q, _q, max_terms=9), TailBound()))
# terminate_after beyond max_terms, with and without a pole past the limit
@example(case=(PhiSpec([F(1, 3)], [F(1, 5)], _q, _q, max_terms=5, terminate_after=20),
               TailBound()))
@example(case=(PhiSpec([F(1, 3)], [_q ** -9], _q, _q, max_terms=5, terminate_after=20),
               TailBound()))
# negative parameters and a negative base; the base factor's own pole
@example(case=(PhiSpec([-F(1, 2) ** -3, F(-2, 3)], [F(-3, 5)], F(-1, 2), F(-1, 3)),
               TailBound()))
@example(case=(PhiSpec([F(2)], [F(3)], F(-1), F(1, 2), max_terms=10), TailBound()))
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
