"""Scalar backends: half-integer q-powers and the two q-number brackets."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracah import QBase, qbracket, qbrace, qpow
from qracah.errors import ExactnessError
from qracah.scalar import as_exponent


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
    assert qpow(qb, 0) == 1
    assert qpow(qb, 1) == F(1, 4)  # q = p**2
    assert qpow(qb, F(1, 2)) == F(1, 2)  # q**(1/2) = p
    assert qpow(qb, F(-1, 2)) == 2


def test_qpow_exact_requires_half_integer():
    qb = QBase(F(1, 2))
    with pytest.raises(ExactnessError, match=r"^exponent 1/3 is not a half-integer$"):
        qpow(qb, F(1, 3))
    with pytest.raises(ExactnessError, match=r"^exponent 1\.0 is not a half-integer$"):
        qb.qpow(1.0)


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
    assert qbracket(qb, 0) == 0
    assert qbracket(qb, 1) == 1
    # [2]_q = q + 1/q, evaluated directly from the defining quotient
    assert qbracket(qb, 2) == F(17, 4)
    # antisymmetry and base-inversion invariance
    assert qbracket(qb, -3) == -qbracket(qb, 3)
    assert qbracket(qb.inverse(), 3) == qbracket(qb, 3)


def test_qbrace_examples():
    qb = QBase(F(1, 2))
    assert qbrace(qb, 1) == 1
    assert qbrace(qb, -3) == qbrace(qb, 3)
    assert qbrace(qb, 0) == F(8, 17)  # 2/(q + 1/q) at q = 1/4


def test_bracket_defining_rearrangement():
    # (q - 1/q) [t]_q + q**-t == q**t
    qb = QBase(F(2, 3))
    q = qb.q
    for twice_t in range(-8, 9):
        t = F(twice_t, 2)
        assert (q - 1 / q) * qbracket(qb, t) + qpow(qb, -t) == qpow(qb, t)


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
    assert qpow(qb, ea) * qpow(qb, eb) == qpow(qb, ea + eb)


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
    for op in (qpow, qbracket, qbrace):
        e = float(op(exact, t))
        f = op(fl, t)
        assert f == pytest.approx(e, rel=1e-12, abs=1e-12)


def test_complex_backend_conjugation():
    qb = QBase(0.5, "complex")
    z = qpow(qb, 1 + 2j)
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
        op = rng.choice((qpow, qbracket, qbrace))
        e = float(op(exact, t))
        f = op(fl, t)
        assert abs(f - e) <= 1e-12 * max(1.0, abs(e))
