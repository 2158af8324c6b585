"""Rational overlap functions: closed forms, biorthogonality, recurrences."""

from fractions import Fraction as F
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qracah import (
    ASCParams,
    KrawParams,
    PrParams,
    QBase,
    RrParams,
    TailBound,
    asc_orth_n,
    asc_orth_x,
    kraw_W,
    multi_biorth_residual_asc,
    pr_closed,
    pr_inner,
    pr_valid,
    rr_closed,
    rr_inner,
    rr_valid,
)
from qracah import multivar, ratfun
from qracah.errors import DenominatorPole, NonConvergent, OutOfRange
from qracah.orthopoly import (
    _series,
    asc_column,
    asc_w_column,
    kraw_column,
    kraw_w,
    kraw_w_column,
)
from qracah.qseries import certified_sum, qpoch, qpoch_inf_ratio
from qracah.ratfun import _inner_terms, _phi43, _pole_index
from qracah.scalar import as_exponent, ordered_sum
from qracah.tables import table_sizes
from qracah.verify import _STV

QB = QBase(F(1, 2))
HALF_GRID = ((0, 0, 0), (1, 0, 0), (1, 2, 1), (2, 1, -1), (F(1, 2), F(3, 2), 0),
             (1, 1, -2), (F(3, 2), F(1, 2), F(1, 2)))


def test_rr_single_point_chain():
    # N = 0: single term, both polynomials are 1, weight 1
    rp = RrParams(1, 2, 0, 0, QB)
    assert rr_inner(rp, 0, 0) == 1
    assert rr_closed(rp, 0, 0) == 1


def test_rr_closed_x0_is_prefactor():
    # x = 0 kills the series, leaving the Pochhammer prefactor
    rp = RrParams(1, 0, 1, 3, QB)
    for y in range(4):
        assert rr_closed(rp, 0, y) == rr_inner(rp, 0, y)


def test_rr_closed_equals_inner_on_grid():
    for p in (F(1, 2), F(2, 3)):
        qb = QBase(p)
        for N in range(5):
            for s, t, v in HALF_GRID:
                rp = RrParams(s, t, v, N, qb)
                for x in range(N + 1):
                    for y in range(N + 1):
                        if rr_valid(rp, x, y):
                            assert rr_closed(rp, x, y) == rr_inner(rp, x, y)


def test_rr_validity_rejects_genuine_poles():
    # at s-t-v+1 = 0 the shared denominator parameter is q**(-2y): the
    # closed form breaks exactly for y < x and nowhere else
    rp = RrParams(F(1, 2), F(3, 2), 0, 3, QB)
    for x in range(4):
        for y in range(4):
            assert rr_valid(rp, x, y) == (y >= x) or x == 0
            if not rr_valid(rp, x, y):
                with pytest.raises(DenominatorPole):
                    rr_closed(rp, x, y)


def test_rr_symmetry():
    # R(x,y;s,t) == R(y,x;t,s)
    for N in (2, 3):
        for (s, t, v) in ((1, 0, 0), (2, 1, -1), (F(1, 2), F(3, 2), 1)):
            a = RrParams(s, t, v, N, QB)
            b = RrParams(t, s, v, N, QB)
            for x in range(N + 1):
                for y in range(N + 1):
                    assert rr_inner(a, x, y) == rr_inner(b, y, x)


def _rr_biorth(rp, relation, i, j):
    # the univariate biorthogonality is the one-site chain's
    return multivar.multi_biorth_residual(rp.qb, rp.s, rp.t, rp.v, (rp.N,), relation, (i,), (j,))


def test_rr_biorth_both_relations_exact():
    for N in range(4):
        for (s, t) in ((0, 0), (1, 2), (2, 1)):
            for v in (-2, -1, 0, 1):
                rp = RrParams(s, t, v, N, QB)
                for i in range(N + 1):
                    for j in range(N + 1):
                        assert _rr_biorth(rp, "x", i, j) == 0
                        assert _rr_biorth(rp, "y", i, j) == 0


def test_rr_biorth_self_partner():
    # v = -1 is its own partner: plain orthogonality
    rp = RrParams(0, 0, -1, 1, QB)
    assert _rr_biorth(rp, "x", 0, 1) == 0
    assert _rr_biorth(rp, "y", 1, 1) == 0


def test_rr_biorth_diagonal_value():
    # the diagonal of the x-relation equals 1/W(y, t)
    N, s, t, v = 3, 1, 2, 0
    rp = RrParams(s, t, v, N, QB)
    partner = RrParams(s, t, -v - 2, N, QB)
    y = 2
    total = sum(
        rr_inner(rp, x, y) * rr_inner(partner, x, y) * kraw_W(QB, s, N, x)
        for x in range(N + 1)
    )
    assert total == 1 / kraw_W(QB, t, N, y)


def test_rr_gevp_exact():
    # the finite three-term identity is the one-site chain's
    for N in range(4):
        for (s, t, v) in ((2, 1, 1), (1, 0, 0), (0, 2, -1)):
            for x in range(N + 1):
                for y in range(N + 1):
                    assert multivar.multi_gevp_residual(QB, 1, (x,), (y,), s, t, v, (N,)) == 0


def test_rr_gevp_closed_path(monkeypatch):
    # the closed form satisfies the univariate identity wherever it is
    # defined: the one-site chain's residual, its pack reading rr_closed
    monkeypatch.setattr(multivar, "rr_inner", rr_closed)
    monkeypatch.setattr(multivar, "_R_pack", multivar._R_pack.__wrapped__)
    rp = RrParams(2, 1, 1, 3, QB)
    for x in range(4):
        for y in range(4):
            pts = [(x, yy) for yy in (y - 1, y, y + 1) if 0 <= yy <= 3]
            if all(rr_valid(rp, *pt) for pt in pts):
                assert multivar.multi_gevp_residual(QB, 1, (x,), (y,), 2, 1, 1, (3,)) == 0


def test_rr_out_of_range():
    rp = RrParams(1, 0, 0, 2, QB)
    with pytest.raises(OutOfRange):
        rr_inner(rp, 3, 0)
    with pytest.raises(OutOfRange):
        _rr_biorth(rp, "diag", 0, 0)


def test_rr_complex_backend_biorthogonality():
    # complex v with partner -conj(v) - 2 and an outer conjugation
    qb = QBase(0.5, "complex")
    rp = RrParams(1.0, 0.0, 0.5 + 0.25j, 2, qb)
    for i in range(3):
        for j in range(3):
            assert abs(_rr_biorth(rp, "x", i, j)) < 1e-12


def _rr_fold_terms(rp, x, y):
    # the polynomial columns times the weight, term by term: the independent
    # reference for the series route of rr_inner
    left = kraw_column(KrawParams(1, rp.s, rp.N, rp.qb), x)
    right = kraw_column(KrawParams(rp.v, rp.t, rp.N, rp.qb), y)
    return [(left[n], right[n], kraw_w(rp.qb, rp.N, n)) for n in range(rp.N + 1)]


@pytest.mark.parametrize("mode, ps", [("exact", (F(1, 2), F(2, 3), F(3, 2))),
                                      ("float", (0.5, 2 / 3, 1.5)),
                                      ("complex", (F(1, 2), F(2, 3), F(3, 2)))])
def test_rr_inner_is_the_column_fold(mode, ps):
    # exact: the series route gives the fold's rational and its type.  Float
    # and complex: within 1e-13 of the largest term, since the sum cancels
    # (at p = 1/2, N = 8 and (s, t, v) = (1, 2, 1) both routes sit 8e-2
    # relative from the exact value)
    for p in ps:
        qb = QBase(p, mode)
        for N in range(7):
            for s, t, v in _STV:
                rp = RrParams(s, t, v, N, qb)
                for x in range(N + 1):
                    for y in range(N + 1):
                        terms = _rr_fold_terms(rp, x, y)
                        got, want = rr_inner(rp, x, y), ordered_sum(terms)
                        assert type(got) is type(want), (p, N, s, t, v, x, y)
                        if qb.is_exact:
                            assert got == want, (p, N, s, t, v, x, y)
                        else:
                            scale = max(abs(a * b * w) for a, b, w in terms)
                            assert abs(got - want) <= 1e-13 * scale, (p, N, s, t, v, x, y)


def test_exact_rr_inner_takes_quarter_integer_points():
    # the combined power q**(n(s+t-v-N)) is exact at s = 1/4, t = 3/4, v = 0
    # although each column prefactor alone would need a root of p, and the
    # sum agrees with the closed form on every valid cell
    rp = RrParams(F(1, 4), F(3, 4), 0, 3, QB)
    before = table_sizes()
    assert rr_inner(rp, 2, 1) == rr_closed(rp, 2, 1) == F(-265, 91)
    after = table_sizes()
    # the sum reads the two series columns and builds no polynomial column
    assert after["qracah.orthopoly._column"] == before["qracah.orthopoly._column"]
    assert after["qracah.orthopoly._series"] == before["qracah.orthopoly._series"] + 2
    cells = [(x, y) for x in range(4) for y in range(4) if rr_valid(rp, x, y)]
    assert len(cells) == 16
    for x, y in cells:
        inner = rr_inner(rp, x, y)
        assert type(inner) is F and inner == rr_closed(rp, x, y), (x, y)


# ---------------------------------------------------------------------------
# infinite family
# ---------------------------------------------------------------------------

QBF = QBase(0.5, "float")
TB = TailBound(tolerance=1e-13)


def test_pr_closed_vs_inner_benign_float():
    # the float backend meets 1e-10 away from the cancellation corner; the
    # exact-certified test below covers the full grid at full strength
    pp = PrParams(0, 0, -1, 1, QBF, TB)
    for x in range(3):
        for y in range(3):
            if pr_valid(pp, x, y):
                assert abs(pr_inner(pp, x, y) - pr_closed(pp, x, y)) < 1e-10


def test_pr_closed_vs_inner_spec_point_exact():
    # |inner - closed| < 1e-10 on the whole {0..3}**2 grid via exact scalars
    pp = PrParams(0, 0, -1, 1, QB, TB)
    for x in range(4):
        for y in range(4):
            if pr_valid(pp, x, y):
                assert abs(float(pr_inner(pp, x, y) - pr_closed(pp, x, y))) < 1e-10


def test_pr_closed_vs_inner_exact_certified():
    # exact scalars with certified truncation: only the truncation error
    # remains, relative to the (possibly huge) function values
    for (k, s, t, v) in ((1, 0, 0, -1), (2, 1, F(1, 2), 0), (1, 1, 2, 1)):
        pp = PrParams(s, t, v, k, QB, TB)
        for x in range(4):
            for y in range(4):
                if not pr_valid(pp, x, y):
                    with pytest.raises(DenominatorPole):
                        pr_closed(pp, x, y)
                    continue
                inner = pr_inner(pp, x, y)
                closed = pr_closed(pp, x, y)
                assert abs(float(closed - inner)) < 1e-10 * (1 + abs(float(inner)))


def test_pr_x0_is_prefactor():
    pp = PrParams(1, 0, 0, 1, QBF, TB)
    for y in range(3):
        assert abs(pr_closed(pp, 0, y) - pr_inner(pp, 0, y)) < 1e-11


def test_pr_symmetry():
    pp = PrParams(1, 0, 0, 2, QBF, TB)
    pq = PrParams(0, 1, 0, 2, QBF, TB)
    for x in range(3):
        for y in range(3):
            a, b = pr_inner(pp, x, y), pr_inner(pq, y, x)
            assert abs(a - b) < 1e-11 * (1 + abs(a))


def test_pr_convergence_constraint():
    # Re(v) >= 1 + s + t diverges
    with pytest.raises(NonConvergent):
        pr_inner(PrParams(0, 0, 1.5, 1, QBF, TB), 0, 0)
    with pytest.raises(NonConvergent):
        pr_closed(PrParams(0, 0, 2, 1, QBF, TB), 1, 1)


def test_pr_biorth():
    # the univariate relation is the one-site chain's
    assert abs(multi_biorth_residual_asc(QBF, 0, 0, -1, (1,), "x", (0,), (1,), TB)) < 1e-8
    diag = multi_biorth_residual_asc(QBF, 0, 0, -1, (1,), "x", (0,), (0,), TB)
    assert abs(diag) < 1e-8
    assert abs(multi_biorth_residual_asc(QBF, 1, 1, 0, (2,), "x", (1,), (0,), TB)) < 1e-8
    with pytest.raises(NonConvergent):
        multi_biorth_residual_asc(QBF, 0, 0, 3.0, (1,), "x", (0,), (0,), TB)


def test_pr_biorth_diagonal_value():
    # the y-relation diagonal equals 1/W_k(x, s)
    from qracah import asc_W

    got = multi_biorth_residual_asc(QBF, 0, 0, -1, (1,), "y", (0,), (0,), TB)
    assert abs(got) < 1e-8  # residual already subtracts 1/W_k(0, s)
    assert asc_W(QBF, 0, 1, 0, TB) > 0


def _pr_gevp(pp, x, y):
    # the infinite three-term identity is the one-site chain's
    return multivar.multi_gevp_residual_asc(pp.qb, 1, (x,), (y,), pp.s, pp.t, pp.v, (pp.k,), pp.tb)


def test_pr_gevp():
    # exact scalars keep the residual at pure truncation size
    for (k, s, t, v) in ((1, 0, 1, 0), (2, 1, 0, -1)):
        pp = PrParams(s, t, v, k, QB, TB)
        for x in range(4):
            for y in range(4):
                assert abs(float(_pr_gevp(pp, x, y))) < 1e-9
    # a larger spectral point, same contract
    pp = PrParams(0, 1, 0, 1, QB, TB)
    assert abs(float(_pr_gevp(pp, 6, 1))) < 1e-8


def test_pole_index_helper():
    assert _pole_index(F(1, 2), F(3, 2), 0, 2) == 2
    assert _pole_index(0, 0, 0, 1) is None  # half-integer offset, no pole
    assert _pole_index(1.0, 0.0, 0.0, 1) == 0


def _pole_oracle(s, t, v, x, y):
    # rr_valid by hand in Fraction arithmetic: the pole sits at
    # j = y - (s - t - v + 1)/2 when that is an integer in 0..x-1
    j = y - (F(s) - F(t) - F(v) + 1) / 2
    return not (j.denominator == 1 and 0 <= j <= x - 1)


def test_pole_test_is_exact_for_every_exponent_type():
    # int, integral-Fraction and half-integer parameters give one verdict,
    # the exact one, for both families
    halves = [F(m, 2) for m in range(-5, 6)]
    for s, t, v in ((s, t, v) for s in halves for t in halves[::2] for v in halves[1::3]):
        spellings = [(s, t, v)]
        if all(p.denominator == 1 for p in (s, t, v)):
            spellings.append(tuple(int(p) for p in (s, t, v)))
        for x in range(4):
            for y in range(4):
                want = _pole_oracle(s, t, v, x, y)
                for a, b, c in spellings:
                    assert rr_valid(RrParams(a, b, c, 3, QB), x, y) is want
                    assert pr_valid(PrParams(a, b, c, 1, QB), x, y) is want


def test_pole_test_beyond_float_precision():
    # e = s - t - v + 1 = 2**54 + 3 is odd, so there is no pole; e / 2 in
    # float arithmetic rounds to an even integer and would report one
    rp = RrParams(2**54 + 2, 0, 0, 3, QBase(F(1, 2)))
    assert rr_valid(rp, 2, 2**53 + 2)
    assert rr_valid(RrParams(F(2**54 + 2), 0, 0, 3, QBase(F(1, 2))), 2, 2**53 + 2)
    # and an even e far beyond 2**53 still finds its integer pole
    assert _pole_index(2**54 + 1, 0, 0, 2**53 + 1) == 0
    assert not rr_valid(RrParams(2**54 + 1, 0, 0, 3, QB), 2, 2**53 + 1)


@pytest.mark.parametrize("qb", [QBase(F(3, 2)), QBase(1.5, "float"), QBase(F(5, 4), "complex")],
                         ids=repr)
def test_certified_sums_refuse_q_above_one_before_the_first_term(qb):
    # the weights grow at q > 1: every certified infinite sum raises the
    # named domain error at its entry, so no polynomial column, weight row
    # or chain pack is even created
    tb = TailBound(1e-9)
    pp = PrParams(0, 0, -1, 1, qb, tb)
    ap = ASCParams(0, 0, 1, qb, tb)
    before = table_sizes()
    for call in (lambda: pr_inner(pp, 1, 1),
                 lambda: multivar.multi_biorth_residual_asc(qb, 0, 0, -1, (1,), "x", (0,), (0,), tb),
                 lambda: asc_orth_n(ap, 0, 1),
                 lambda: asc_orth_x(ap, 0, 1),
                 lambda: multivar.multi_biorth_residual_asc(qb, 0, 0, -1, (1, 1), "x", (0, 1), (0, 1),
                                                            tb)):
        with pytest.raises(NonConvergent, match=r"needs 0 < q < 1, got q = "):
            call()
    after = table_sizes()
    for name in ("qracah.orthopoly._column", "qracah.orthopoly._w_column",
                 "qracah.multivar._R_pack", "qracah.multivar._W_pack"):
        assert after[name] == before[name], name


@pytest.mark.parametrize("p, s, t, v, k", [(F(3, 5), 1, 0, -1, 2),
                                           (F(4, 7), F(1, 2), F(3, 2), F(-1, 2), 1)])
def test_exact_pr_inner_reads_the_series_not_the_columns(p, s, t, v, k):
    # an exact pr_inner sums q**(n(s+t-v+k)) times the two twist-free series
    # entries and the weight: no polynomial column is built, and the value
    # is the sum of the column products, stopped at the same term
    pp = PrParams(s, t, v, k, QBase(p), TailBound(1e-15))
    before = table_sizes()
    value = pr_inner(pp, 2, 1)
    after = table_sizes()
    assert after["qracah.orthopoly._column"] == before["qracah.orthopoly._column"]
    assert after["qracah.orthopoly._series"] == before["qracah.orthopoly._series"] + 2
    read = len(_series(pp.qb, True, -k, s, 2).row)
    left = asc_column(ASCParams(1, s, k, pp.qb, pp.tb), 2)
    right = asc_column(ASCParams(v, t, k, pp.qb, pp.tb), 1)
    w = asc_w_column(pp.qb, k)
    used = 0

    def terms():
        nonlocal used
        for n in range(10**4):
            used += 1
            yield left[n], right[n], w[n]

    assert certified_sum(terms(), pp.tb) == value and type(value) is F
    assert used == read > 6


def test_exact_pr_inner_takes_half_integer_k():
    # the combined power q**(n(s+t-v+k)) is exact at these points although
    # one column prefactor q**(n(2s+k-1)/2) alone would need a root of p:
    # every valid cell is a Fraction and agrees with the closed form within
    # the normalization of the cor4.3 check
    for p, k, s, t, v in ((F(3, 4), F(1, 2), 0, F(1, 2), F(1, 2)),
                          (F(2, 3), F(3, 2), 1, F(1, 2), F(-1, 2))):
        pp = PrParams(s, t, v, k, QBase(p))
        cells = [(x, y) for x in range(3) for y in range(3) if pr_valid(pp, x, y)]
        assert len(cells) >= 5
        for x, y in cells:
            inner = pr_inner(pp, x, y)
            assert type(inner) is F, (p, x, y)
            assert abs(pr_closed(pp, x, y) - inner) / (1 + abs(inner)) <= 1e-9, (p, x, y)


class _ChecksPassed(Exception):
    """Raised in place of the exact sum once a function's checks pass."""


def _counted(items, read):
    for item in items:
        read[0] += 1
        yield item


def _outcome(call, read):
    # (type, value, terms read), or (exception type, message, terms read)
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc), read[0]
    return type(value), value, read[0]


def _fractions(terms):
    # exact series entries are integer pairs: each term with their Fractions
    for c, left, right, w in terms:
        yield c, F(*left), F(*right), w


def _inner_outcomes(fn, params, x, y):
    """The outcome of the exact ``fn.__wrapped__(params, x, y)``, and of its
    reference: the same entry checks, then the terms of ``_inner_terms``
    folded through ``ordered_sum`` (rr_inner, its first N + 1 terms) or
    ``certified_sum`` (pr_inner), each with the terms it read."""
    pairs, read = ratfun._inner_pairs, [0]
    with mock.patch.object(ratfun, "_inner_pairs",
                           lambda *args: _counted(pairs(*args), read)):
        got = _outcome(lambda: fn.__wrapped__(params, x, y), read)

    def reference():
        def checked(*args):
            raise _ChecksPassed

        with mock.patch.object(ratfun, "_inner_pairs", checked):
            try:
                return fn.__wrapped__(params, x, y)
            except _ChecksPassed:
                pass
        qb = params.qb
        s, t, v = as_exponent(params.s), as_exponent(params.t), as_exponent(params.v)
        if fn is rr_inner:
            terms = _inner_terms(qb, False, params.N, s, t, v, x, y, kraw_w_column(qb, params.N))
            return ordered_sum(islice(_counted(_fractions(terms), want_read), params.N + 1))
        k = as_exponent(params.k)
        terms = _inner_terms(qb, True, -k, s, t, v, x, y, asc_w_column(qb, params.k))
        return certified_sum(_counted(_fractions(terms), want_read), params.tb)

    want_read = [0]
    return got, _outcome(reference, want_read)


# half-integers mostly, and quarters, whose powers are not exact
_QUARTERS = st.builds(F, st.integers(-6, 6), st.sampled_from([2, 2, 2, 4]))
# p = 1e-200 is in the examples only: its terms run past the float range,
# and its series entries grow so fast that a sum at x = y = 4 takes seconds
_P_INNER = st.sampled_from([F(1, 2), F(2, 3), F(3, 4)])


@settings(max_examples=120, deadline=None)
@given(p=_P_INNER, N=st.integers(0, 8), stv=st.tuples(_QUARTERS, _QUARTERS, _QUARTERS),
       x=st.integers(-1, 9), y=st.integers(0, 8))
@example(p=F(1, 10**200), N=6, stv=(1, 2, 1), x=3, y=5)
@example(p=F(1, 10**200), N=8, stv=(2, -2, F(1, 2)), x=8, y=2)
@example(p=F(1, 2), N=3, stv=(F(1, 4), 0, 0), x=1, y=1)  # q**(n/4) at n = 1
def test_exact_rr_inner_is_the_inner_terms_fold(p, N, stv, x, y):
    # the pair route gives the ordered_sum fold's value and type, reads as
    # many terms, and raises its error, message included
    got, want = _inner_outcomes(rr_inner, RrParams(*stv, N, QBase(p)), x, y)
    assert got == want


@settings(max_examples=120, deadline=None)
@given(p=_P_INNER, k=st.sampled_from([F(1, 2), 1, F(3, 2), 2, F(1, 3)]),
       stv=st.tuples(_QUARTERS, _QUARTERS, _QUARTERS),
       tb=st.sampled_from([TailBound(), TailBound(1e-15), TailBound(max_terms=4),
                           TailBound(1e-30, max_terms=9)]),
       x=st.integers(-1, 6), y=st.integers(0, 6))
@example(p=F(1, 10**200), k=1, stv=(1, 1, 0), tb=TailBound(), x=2, y=2)
@example(p=F(1, 10**200), k=F(1, 2), stv=(0, 0, -1), tb=TailBound(), x=2, y=1)
@example(p=F(3, 4), k=F(1, 2), stv=(0, F(1, 2), F(1, 2)), tb=TailBound(), x=2, y=1)
@example(p=F(2, 3), k=1, stv=(0, 1, 2), tb=TailBound(), x=1, y=1)  # v = 1 + s + t
@example(p=F(1, 2), k=1, stv=(1, 1, 0), tb=TailBound(max_terms=4), x=2, y=2)
@example(p=F(2, 3), k=F(1, 3), stv=(F(2, 3), 0, 0), tb=TailBound(), x=1, y=0)
@example(p=F(2, 3), k=F(1, 4), stv=(F(1, 4), 0, 0), tb=TailBound(), x=1, y=2)
def test_exact_pr_inner_is_the_inner_terms_fold(p, k, stv, tb, x, y):
    # as for rr_inner, against the certified_sum fold: terms past the float
    # range (p = 1e-200), a small max_terms (NonConvergent), half-integer k,
    # a divergent v and k whose powers are not exact: at k = 1/3 the series
    # raise at entry 0, at k = 1/4 only the weight does, at entry 1
    got, want = _inner_outcomes(pr_inner, PrParams(*stv, k, QBase(p), tb), x, y)
    assert got == want


@pytest.mark.parametrize("k", [0, -1])
def test_pr_refuses_k_not_positive(k):
    # at k = -1 the closed form used to print a value where the inner
    # product hit a pole, and at k = 0 it divided by zero
    pp = PrParams(0, 0, 0, k, QB)
    for fn in (pr_inner, pr_closed):
        with pytest.raises(OutOfRange, match="^k must be positive"):
            fn(pp, 1, 2)


def _rr_closed_inline(rp, x, y):
    """rr_closed with every prefactor formed inline, per call: the
    reference its per-point tables are read against."""
    qb = rp.qb
    s, t, v = as_exponent(rp.s), as_exponent(rp.t), as_exponent(rp.v)
    N = rp.N
    q2 = qb.qpow(2)
    c1 = qpoch(-qb.qpow(-2 * N + s + t - v + 1), q2, N)
    c1 *= qpoch(-qb.qpow(-2 * x - 2 * s), q2, x) / qpoch(qb.qpow(-2 * N), q2, x)
    c1 *= qpoch(qb.qpow(-2 * y + s - t - v + 1), q2, y) / qpoch(
        -qb.qpow(s + t - 2 * N - v + 1), q2, y
    )
    ser = _phi43(qb, False, N, s, t, v, x, y)
    return c1 * ser


def _pr_closed_inline(pp, x, y):
    """pr_closed with every prefactor formed inline, per call."""
    qb = pp.qb
    s, t, v, k = (as_exponent(pp.s), as_exponent(pp.t), as_exponent(pp.v), as_exponent(pp.k))
    q2 = qb.qpow(2)
    c1 = qpoch_inf_ratio(qb.qpow(s + t + 2 * k - v + 1), qb.qpow(s + t - v + 1), q2, pp.tb)
    c1 *= qpoch(qb.qpow(-2 * y + s - t - v + 1), q2, y) / qpoch(
        qb.qpow(s + t + 2 * k - v + 1), q2, y
    )
    c1 *= qpoch(qb.qpow(-2 * x - 2 * s), q2, x) / qpoch(qb.qpow(2 * k), q2, x)
    ser = _phi43(qb, True, -k, s, t, v, x, y)
    return c1 * ser


def _bits(value):
    # the type and the repr: equal bits for a float or complex, the same
    # rational for a Fraction
    return type(value), repr(value)


@pytest.mark.parametrize("qb", [QBase(F(1, 2)), QBase(0.5, "float"),
                                QBase(F(1, 2), "complex")], ids=repr)
def test_closed_form_prefactor_tables_keep_every_bit(qb):
    # rr_closed at every point of the prop3.3 grid and pr_closed at every
    # point of the cor4.3 grid, cold and then from the tables: the value
    # and type of the inline expressions, bit for bit
    from qracah.verify import _stv_points

    for N, s, t, v, x, y in _stv_points(4, off_poles=True):
        rp = RrParams(s, t, v, N, qb)
        want = _bits(_rr_closed_inline(rp, x, y))
        for _ in range(2):
            assert _bits(rr_closed(rp, x, y)) == want, (N, s, t, v, x, y)
    tb = TailBound(1e-12)
    for k in (1, 2):
        for s, t, v in ((0, 0, -1), (1, 1, 0), (1, 2, 1)):
            for x in range(4):
                for y in range(4):
                    pp = PrParams(s, t, v, k, qb, tb)
                    if pr_valid(pp, x, y):
                        want = _bits(_pr_closed_inline(pp, x, y))
                        for _ in range(2):
                            assert _bits(pr_closed(pp, x, y)) == want, (k, s, t, v, x, y)
