"""Scalar backends: half-integer q-powers and the two q-number brackets."""

import cmath
import math
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracah import QBase
from qracah.errors import ExactnessError, OutOfRange
from qracah.scalar import (
    MAX_POWER_BITS,
    Unreduced,
    as_exponent,
    ordered_sum,
    residual_sum,
    scaled,
    scaled_residual,
    scaled_rows,
)


def test_qbase_validation():
    with pytest.raises(ValueError):
        QBase(F(1))
    with pytest.raises(ValueError):
        QBase(F(-1, 2))
    with pytest.raises(ExactnessError):
        QBase(0.5)  # float p not allowed in exact mode


def test_qbase_hash_and_equality():
    a, b = QBase(F(1, 2)), QBase(F(2, 4))
    assert a == b and hash(a) == hash(b)
    assert QBase(0.5, "float") == QBase(F(1, 2), "float")
    assert hash(QBase(0.5, "float")) == hash(QBase(F(1, 2), "float"))
    # the same p in different backends: unequal bases, never one table entry
    for mode in ("float", "complex"):
        assert QBase(F(1, 2)) != QBase(F(1, 2), mode)
    assert len({QBase(F(1, 2)), QBase(F(1, 2), "float"), QBase(0.5, "float")}) == 2


def test_qpow_examples():
    qb = QBase(F(1, 2))
    assert qb.qpow(0) == 1
    assert qb.qpow(1) == F(1, 4)  # q = p**2
    assert qb.qpow(F(1, 2)) == F(1, 2)  # q**(1/2) = p
    assert qb.qpow(F(-1, 2)) == 2


def test_qpow_exact_requires_half_integer():
    # 1.0 == 1 == F(1) hash alike: a float exponent must raise whether the
    # tables are cold or already hold its int and Fraction twins
    for qb, _ in product((QBase(F(1, 2)), QBase(F(5, 2))), range(2)):
        for op in (qb.qpow, qb.bracket, qb.brace):
            with pytest.raises(ExactnessError, match=r"^exponent 1/3 is not a half-integer$"):
                op(F(1, 3))
            with pytest.raises(ExactnessError, match=r"^exponent 1\.0 is not a half-integer$"):
                op(1.0)
            assert op(1) == op(F(1))


@given(
    m=st.integers(-60, 60),
    pnum=st.integers(1, 30),
    pden=st.integers(1, 30),
)
def test_exact_qpow_and_exponent_types(m, pnum, pden):
    # q**e = p**(2e) as a Fraction for an int, an integral Fraction and a
    # half-integer e; as_exponent keeps integral values as ints
    if pnum == pden:
        pden += 1
    p = F(pnum, pden)
    qb = QBase(p)
    half = F(m, 2)
    spellings = [half] if m % 2 else [m // 2, F(m // 2)]
    for e in spellings:
        got = qb.qpow(e)
        assert type(got) is F and got == p**m
        norm = as_exponent(e)
        assert type(norm) is (int if m % 2 == 0 else F) and norm == half
    # floats and complex numbers pass through unchanged
    for x in (m / 2, complex(m, 1), complex(m, 0)):
        assert as_exponent(x) is x


def test_qbracket_examples():
    qb = QBase(F(1, 2))  # q = 1/4
    assert qb.bracket(0) == 0
    assert qb.bracket(1) == 1
    # [2]_q = q + 1/q, evaluated directly from the defining quotient
    assert qb.bracket(2) == F(17, 4)
    # antisymmetry and base-inversion invariance
    assert qb.bracket(-3) == -qb.bracket(3)
    assert qb.inverse().bracket(3) == qb.bracket(3)


def test_qbrace_examples():
    qb = QBase(F(1, 2))
    assert qb.brace(1) == 1
    assert qb.brace(-3) == qb.brace(3)
    assert qb.brace(0) == F(8, 17)  # 2/(q + 1/q) at q = 1/4


def test_bracket_defining_rearrangement():
    # (q - 1/q) [t]_q + q**-t == q**t
    qb = QBase(F(2, 3))
    q = qb.q
    for twice_t in range(-8, 9):
        t = F(twice_t, 2)
        assert (q - 1 / q) * qb.bracket(t) + qb.qpow(-t) == qb.qpow(t)


@given(
    a=st.integers(-20, 20),
    b=st.integers(-20, 20),
    pnum=st.integers(1, 9),
    pden=st.integers(2, 10),
)
def test_qpow_additivity_exact(a, b, pnum, pden):
    if pnum >= pden:
        pnum, pden = pden, pnum + 1
    qb = QBase(F(pnum, pden))
    ea, eb = F(a, 2), F(b, 2)
    assert qb.qpow(ea) * qb.qpow(eb) == qb.qpow(ea + eb)


@settings(max_examples=200)
@given(
    p100=st.integers(11, 89),
    twice_t=st.integers(-12, 12),
)
def test_backends_agree(p100, twice_t):
    # exact and float backends agree to 1e-12 relative error on the three
    # scalar operations for p in (0.1, 0.9)
    p = F(p100, 100)
    t = F(twice_t, 2)
    exact = QBase(p)
    fl = QBase(float(p), "float")
    for op in (QBase.qpow, QBase.bracket, QBase.brace):
        e = float(op(exact, t))
        f = op(fl, t)
        assert f == pytest.approx(e, rel=1e-12, abs=1e-12)


def test_complex_backend_conjugation():
    qb = QBase(0.5, "complex")
    z = qb.qpow(1 + 2j)
    assert isinstance(z, complex)
    assert qb.conj(z) == z.conjugate()
    # exact/real conjugation is the identity
    assert QBase(F(1, 2)).conj(F(3, 7)) == F(3, 7)


def test_bracket_brace_ratio():
    qb = QBase(F(1, 2))
    q = qb.q
    assert qb.bracket_brace_ratio == (q - 1 / q) / (q + 1 / q)


def test_backends_agree_thousand_point_grid():
    # deterministic pseudo-random grid of 1000 points, p in (0.1, 0.9)
    import random

    rng = random.Random(20260809)
    for _ in range(1000):
        p = F(rng.randint(11, 89), 100)
        t = F(rng.randint(-12, 12), 2)
        exact = QBase(p)
        fl = QBase(float(p), "float")
        op = rng.choice((QBase.qpow, QBase.bracket, QBase.brace))
        e = float(op(exact, t))
        f = op(fl, t)
        assert abs(f - e) <= 1e-12 * max(1.0, abs(e))


def _direct(p, mode):
    """q**e, [t]_q and {t}_q from their defining formulas, untabled."""
    if mode == "exact":
        def qpow(e):
            te = 2 * F(e)
            return F(p) ** te.numerator
        q = F(p) ** 2
    else:
        logq = 2.0 * math.log(float(p))

        def qpow(e):
            val = math.exp(float(e) * logq)
            return complex(val) if mode == "complex" else val
        q = float(p) * float(p)
    return (qpow,
            lambda t: (qpow(t) - qpow(-t)) / (q - 1 / q),
            lambda t: (qpow(t) + qpow(-t)) / (q + 1 / q))


@settings(max_examples=150)
@given(
    mode=st.sampled_from(("exact", "float", "complex")),
    pnum=st.integers(1, 12),
    pden=st.integers(1, 12),
    twice_e=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
)
def test_tabled_scalars_equal_the_direct_formulas(mode, pnum, pden, twice_e):
    # a fresh base (cold tables), then every exponent again (warm): equal
    # values of the direct formula's type, for int, half-integer and
    # integral-Fraction spellings, at p < 1 and p > 1 alike
    if pnum == pden:
        pden += 1
    p = F(pnum, pden)
    qb = QBase(p if mode == "exact" else float(p), mode)
    direct = _direct(p, mode)
    exponents = []
    for m in twice_e:
        exponents += [F(m, 2)] if m % 2 else [m // 2, F(m // 2)]
    for _ in range(2):
        for e in exponents:
            for op, ref in zip((qb.qpow, qb.bracket, qb.brace), direct):
                got, want = op(e), ref(e)
                assert type(got) is type(want) and got == want, (op.__name__, e)


def test_complex_exponents_keep_the_sign_of_zero():
    # complex(x, 0.0) == complex(x, -0.0), but their powers need not agree
    # in the sign of a zero part, so neither may read the other's value
    # (at p = 1/2, q**(-1 - 0j) is 4+0j and q**(-1 + 0j) is 4-0j)
    qb = QBase(F(1, 2), "complex")
    for e in (complex(-1, -0.0), complex(-1, 0.0), complex(-1, -0.0)):
        got, want = qb.qpow(e), cmath.exp(e * (2.0 * math.log(0.5)))
        assert repr(got) == repr(want)


@pytest.mark.parametrize("mode", ("float", "complex"))
def test_floating_overflow_is_out_of_range(mode):
    # q**e beyond the float range raises OutOfRange (a failing report, an
    # exit status 2), cold and warm, and leaves finite powers unaffected
    qb = QBase(0.001, mode)
    for _ in range(2):
        with pytest.raises(OutOfRange, match="leaves the floating-point range"):
            qb.qpow(-10000)
        with pytest.raises(OutOfRange):
            qb.bracket(60)
        assert qb.qpow(2) == _direct(F(1, 1000), mode)[0](2)
    with pytest.raises(OutOfRange):
        QBase(F(1, 10**30), mode).qpow(-6)


def test_exact_power_past_the_bit_bound_is_out_of_range():
    # |2e| times the longer of p's numerator and denominator bounds the
    # bits of p**(2e): past MAX_POWER_BITS the power is refused before it
    # is taken, cold and warm, and the largest one allowed is the power
    qb = QBase(F(2, 3))  # 2 bits
    top = MAX_POWER_BITS // 2
    for _ in range(2):
        for e in (F(top + 1, 2), -F(top + 1, 2), 10**12, 10**400):
            with pytest.raises(OutOfRange, match="bits in the exact backend"):
                qb.qpow(e)
        with pytest.raises(OutOfRange):
            qb.bracket(10**12)
    assert qb.qpow(F(top, 2)) == F(2, 3) ** top


@pytest.mark.parametrize("mode", ("float", "complex"))
def test_floating_base_must_stay_in_range(mode):
    # q = p**2 (or 1/q) underflows or overflows a float: a ValueError, which
    # the command line reports as ConfigError with exit status 2
    for p in (F(1, 10**200), F(10**200), F(1, 10**155), 1e-160, F(10**400)):
        with pytest.raises(ValueError, match="unusable floating-point base"):
            QBase(p, mode)
    # the exact backend has no such range
    assert QBase(F(1, 10**200)).qpow(-1) == 10**400


def test_ordered_sum_adds_left_to_right():
    # each float partial sum is rounded, as sum() does up to Python 3.11;
    # a compensated sum (Python 3.12's sum(), math.fsum) gives 2.0 here
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert math.fsum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert repr(ordered_sum([], -0.0)) == "-0.0"
    assert ordered_sum((F(1, 3), F(1, 6)), F(1, 2)) == 1
    assert ordered_sum(iter([1j, 2])) == 2 + 1j


def _fold(values, start):
    # the definition: multiply each term's factors, then add, left to right
    out = start
    for value in values:
        factors = value if isinstance(value, tuple) else (value,)
        term = factors[0]
        for f in factors[1:]:
            term = term * f
        out = out + term
    return out


def _outcome(fn, *args):
    # the result's type and repr, or the exception type
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return "raises", type(exc)
    return type(value), repr(value)


def _terms(factor):
    # a bare scalar or a tuple of 1-3 factors
    return st.lists(st.one_of(factor, st.lists(factor, min_size=1, max_size=3).map(tuple)),
                    max_size=8)


_EXACT = st.one_of(st.integers(), st.integers(-3, 3), st.fractions(),
                   st.fractions(max_denominator=7))
_SMALL_EXACT = st.one_of(st.integers(-10**6, 10**6),
                         st.fractions(-10**6, 10**6, max_denominator=10**6))
_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
_COMPLEX = st.one_of(
    st.complex_numbers(),
    st.builds(complex, st.sampled_from([0.0, -0.0, 1.5, math.inf, math.nan]),
              st.sampled_from([0.0, -0.0, -2.5, -math.inf, math.nan])))


@settings(max_examples=300)
@given(values=_terms(_EXACT), start=_EXACT)
def test_ordered_sum_exact_is_the_fold(values, start):
    # one integer pair per sum gives the fold's rational and its type: an
    # int while no Fraction entered, a Fraction otherwise
    got, want = ordered_sum(values, start), _fold(values, start)
    assert type(got) is type(want) and got == want


@settings(max_examples=300)
@given(values=_terms(st.one_of(_SMALL_EXACT, _FLOAT)),
       start=st.one_of(_SMALL_EXACT, _FLOAT))
def test_ordered_sum_float_is_the_fold_bit_for_bit(values, start):
    assert _outcome(ordered_sum, values, start) == _outcome(_fold, values, start)


@settings(max_examples=300)
@given(values=_terms(st.one_of(_SMALL_EXACT, _FLOAT, _COMPLEX)),
       start=st.one_of(_SMALL_EXACT, _FLOAT, _COMPLEX))
def test_ordered_sum_complex_is_the_fold_bit_for_bit(values, start):
    # signed zero parts included: int + complex and Fraction + complex can
    # differ in them, so the exact prefix must keep the fold's type too
    assert _outcome(ordered_sum, values, start) == _outcome(_fold, values, start)


@settings(max_examples=200)
@given(prefix=_terms(_EXACT), factors=st.lists(_SMALL_EXACT, max_size=2),
       x=_FLOAT, rest=_terms(st.one_of(_SMALL_EXACT, _FLOAT)))
def test_ordered_sum_exact_prefix_then_float(prefix, factors, x, rest):
    # the exact prefix becomes the fold's value where the first float enters,
    # even in the middle of a term
    values = [*prefix, (*factors, x), *rest]
    assert _outcome(ordered_sum, iter(values)) == _outcome(_fold, values, 0)


def test_ordered_sum_of_factor_tuples():
    assert ordered_sum([(F(1, 2), 3), 2, (F(2, 3), F(3, 4), 4)]) == F(11, 2)
    assert type(ordered_sum([(2, 3), 4])) is int
    assert type(ordered_sum([(F(2), 3)])) is F
    assert type(ordered_sum([], F(0))) is F
    # an exact prefix, then a float: 0 + 1/3*3 = 1 exactly, then + 0.5
    assert repr(ordered_sum([(F(1, 3), 3), (F(1, 2), 1.0)])) == "1.5"
    assert repr(ordered_sum([(2, -0.0)])) == "0.0" == repr(0 + 2 * -0.0)


def _residual_expr(rows, zero):
    # the definition: each row's |sum(plus) - sum(minus)|, summed from zero
    return ordered_sum((abs(ordered_sum(plus) - ordered_sum(minus, zero))
                        for plus, minus in rows), zero)


def _rows(factor):
    # (plus, minus) pairs: empty rows (an operator row with no entry),
    # rows whose two sides are equal (value 0) and arbitrary ones
    side = _terms(factor)
    row = st.one_of(st.tuples(side, side), side.map(lambda terms: (terms, list(terms))),
                    st.just(([], [])))
    return st.lists(row, max_size=4)


_ZEROS = st.sampled_from([0, F(0)])


@settings(max_examples=150)
@given(rows=st.one_of(_rows(_EXACT), _rows(st.integers(-5, 5)), _rows(st.integers(-5, -1))),
       zero=st.one_of(_ZEROS, _EXACT))
def test_residual_sum_exact_is_the_expression(rows, zero):
    # one integer pair per row and one outer pair give the expression's
    # rational and type: an int while no Fraction entered (int-only rows
    # from the int 0), a Fraction otherwise
    got, want = residual_sum(rows, zero), _residual_expr(rows, zero)
    assert type(got) is type(want) and got == want


# (Unreduced pair, its Fraction): the value scaled by g/g out of lowest
# terms, its numerator of either sign; beside it exact factors as they are
_PAIR = st.builds(lambda f, g: (Unreduced(f.numerator * g, f.denominator * g), f),
                  st.one_of(st.fractions(), st.integers().map(F)), st.integers(1, 10**6))
_PAIRED_TERMS = st.lists(
    st.tuples(st.booleans(), st.lists(st.one_of(_EXACT.map(lambda x: (x, x)), _PAIR),
                                      min_size=1, max_size=3)),
    max_size=8)


def _sides(terms):
    # (the terms with their pair factors, the same terms with each pair's
    # Fraction); a flagged one-factor term is a bare scalar
    out = ([], [])
    for bare, factors in terms:
        for side in (0, 1):
            term = tuple(f[side] for f in factors)
            out[side].append(term[0] if bare and len(term) == 1 else term)
    return out


@settings(max_examples=300)
@given(terms=_PAIRED_TERMS, start=_EXACT)
def test_ordered_sum_reads_pairs_as_their_fractions(terms, start):
    # a pair factor is read as its Fraction: the same rational and type (a
    # Fraction as soon as a pair enters, as a Fraction factor makes it)
    paired, fractions = _sides(terms)
    got, want = ordered_sum(paired, start), ordered_sum(fractions, start)
    assert type(got) is type(want) and got == want


@settings(max_examples=150)
@given(rows=st.lists(st.tuples(_PAIRED_TERMS, _PAIRED_TERMS), max_size=4),
       zero=st.one_of(_ZEROS, _EXACT))
def test_residual_sum_reads_pairs_as_their_fractions(rows, zero):
    paired = [(_sides(plus)[0], _sides(minus)[0]) for plus, minus in rows]
    fractions = [(_sides(plus)[1], _sides(minus)[1]) for plus, minus in rows]
    got, want = residual_sum(paired, zero), residual_sum(fractions, zero)
    assert type(got) is type(want) and got == want


def test_pair_factors_before_and_after_a_float():
    # a float factor ends the exact pair sum: the pairs after it, in a
    # tuple or bare, are multiplied and added as their Fractions
    for x in (1.5, -0.0, 1.5 - 2j):
        paired = [(Unreduced(2, 6), 3), (Unreduced(-4, 8), x), Unreduced(3, 9),
                  (5, Unreduced(-10, 4))]
        fractions = [(F(1, 3), 3), (F(-1, 2), x), F(1, 3), (5, F(-5, 2))]
        assert _outcome(ordered_sum, paired) == _outcome(ordered_sum, fractions)

def test_residual_sum_examples():
    # |1/2 - 1/3| + |0| + |2 - 5| over three rows
    rows = [([F(1, 2)], [(F(1, 3), 1)]), ([], []), ([(2, 1)], [5])]
    assert residual_sum(rows, F(0)) == F(19, 6)
    assert type(residual_sum([([2], [5])], 0)) is int
    assert type(residual_sum([([2], [5])], F(0))) is F
    assert type(residual_sum([], F(0))) is F
    # a check's residual runs in exact scalars: a floating zero or factor,
    # on either side of a row and after exact rows, is refused
    rows = [([Unreduced(6, 4)], [(Unreduced(-2, 2), F(1, 2))]), ([Unreduced(9, 3)], [])]
    # |3/2 + 1/2| + |3| over the two exact rows, as pairs
    assert type(residual_sum(rows, 0)) is F and residual_sum(rows, 0) == 5
    for zero in (0.0, -0.0, 0j):
        with pytest.raises(ExactnessError, match=r"^a residual sums exact scalars, got zero"):
            residual_sum([], zero)
    for x in (1.5, -0.0, 1.5 - 2j):
        for row in (([(F(1, 3), x)], []), ([2], [(1, x)])):
            with pytest.raises(ExactnessError, match=r"^a residual sums exact scalars, got the term"):
                residual_sum([*rows, row], 0)


# ---------------------------------------------------------------------------
# the common-denominator kernel: an operator applied to a vector against
# coefficients times vectors, every row an integer dot product
# ---------------------------------------------------------------------------


@st.composite
def _operator_check(draw, value):
    """(op, vec, terms, rows): sparse rows {column: entry} of a square
    operator (a row can be empty), the vector, the right side's
    (coefficient, vector) pairs (none, or the vector itself among them, as
    an eigenvalue is) and the summed row indices."""
    dim = draw(st.integers(1, 5))
    vector = st.lists(value, min_size=dim, max_size=dim)
    op = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), value, max_size=3),
                       min_size=dim, max_size=dim))
    op = [dict(sorted(row.items())) for row in op]
    vec = draw(vector)
    terms = draw(st.lists(st.tuples(value, st.one_of(vector, st.just(vec))), max_size=3))
    rows = sorted(draw(st.sets(st.integers(0, dim - 1))))
    return op, vec, terms, rows


def _kernel(op, vec, terms, rows, zero):
    return scaled_residual(scaled_rows(op), scaled(vec), [(c, scaled(w)) for c, w in terms],
                           rows, zero)


def _reference(op, vec, terms, rows, zero):
    # residual_sum over the same rows: the operator row applied to vec
    # against the right side's terms
    return residual_sum((([(a, vec[j]) for j, a in op[i].items()],
                          [(c, w[i]) for c, w in terms]) for i in rows), zero)


_SIGNED_INTS = st.integers(-10**6, 10**6)


@settings(max_examples=200)
@given(check=st.one_of(_operator_check(st.integers(-5, 5)), _operator_check(_SIGNED_INTS)),
       zero=_ZEROS)
def test_scaled_residual_on_ints_is_residual_sum(check, zero):
    # int entries and coefficients: an int from the int 0, a Fraction from
    # Fraction(0), as residual_sum gives
    got, want = _kernel(*check, zero), _reference(*check, zero)
    assert type(got) is type(want) is (int if type(zero) is int else F) and got == want


@settings(max_examples=200)
@given(check=st.one_of(_operator_check(_EXACT), _operator_check(_SMALL_EXACT),
                       _operator_check(st.fractions(-3, 3, max_denominator=5))))
def test_scaled_residual_on_fractions_is_residual_sum(check):
    # a check sums from the backend's Fraction zero: the same Fraction
    got, want = _kernel(*check, F(0)), _reference(*check, F(0))
    assert type(got) is type(want) is F and got == want


def test_scaled_residual_of_a_mutated_entry_is_residual_sum():
    # A vec = 1/2 * w holds row by row: residual 0; one entry of A off by
    # 2/5 leaves its row's magnitude, as residual_sum sums it
    op = [{0: F(1, 3), 2: F(-2, 7)}, {}, {1: F(5, 4), 2: 3}]
    vec = [F(2, 3), F(-1, 6), F(7, 5)]
    w = [2 * sum(a * vec[j] for j, a in row.items()) for row in op]
    for rows in ([0, 1, 2], [0, 2], []):
        got = _kernel(op, vec, [(F(1, 2), w)], rows, F(0))
        assert type(got) is F and got == 0
    op[2][1] += F(2, 5)
    got = _kernel(op, vec, [(F(1, 2), w)], [0, 1, 2], F(0))
    want = _reference(op, vec, [(F(1, 2), w)], [0, 1, 2], F(0))
    assert type(got) is F and got == want == abs(F(2, 5) * vec[1]) > 0
    # an eigenvalue is the vector's own term: |A vec - lambda vec| by rows
    got = _kernel(op, vec, [(F(-3, 2), vec)], [0, 2], F(0))
    assert got == _reference(op, vec, [(F(-3, 2), vec)], [0, 2], F(0))


def test_scaled_forms_and_refusals():
    assert scaled([F(1, 6), 2, F(-3, 4)]) == (12, (2, 24, -9))
    assert scaled([]) == (1, ())
    assert scaled_rows([{1: F(1, 2)}, {}, {0: 3, 2: F(2, 3)}]) == (
        6, (((1,), (3,)), ((), ()), ((0, 2), (18, 4))))
    with pytest.raises(ExactnessError, match=r"^a scaled vector holds exact scalars"):
        scaled([F(1, 2), 0.5])
    op, vec = scaled_rows([{0: 1}]), scaled([F(1, 2)])
    for zero in (0.0, 0j, F(1)):
        with pytest.raises(ExactnessError, match=r"^a residual sums from an exact zero"):
            scaled_residual(op, vec, [], [0], zero)
    for c in (0.5, 1j):
        with pytest.raises(ExactnessError, match=r"^a residual sums exact scalars, got the coef"):
            scaled_residual(op, vec, [(c, vec)], [0], F(0))
