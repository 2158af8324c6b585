"""The two polynomial families: values, weights, orthogonality, coefficients."""

import sys
import threading
from fractions import Fraction as F

import pytest

from qracah import (
    ASCParams,
    KrawParams,
    QBase,
    TailBound,
    asc,
    asc_W,
    asc_d_coeffs,
    asc_diff_coeffs,
    asc_dyn_coeffs,
    asc_orth_n,
    asc_orth_x,
    asc_w,
    kraw,
    kraw_W,
    kraw_b_coeffs,
    kraw_diff_coeffs,
    kraw_dyn_coeffs,
    kraw_orth_n,
    kraw_orth_x,
    kraw_w,
    qbinom,
    qpoch,
)
from qracah import orthopoly, uqsl2
from qracah.errors import DenominatorPole, ExactnessError, OutOfRange
from qracah.tables import table_sizes

QB = QBase(F(1, 2))  # q = 1/4


def test_kraw_trivial_values():
    kp = KrawParams(0, 1, 3, QB)
    for x in range(4):
        assert kraw(kp, 0, x) == 1
    # x = 0 kills the series: value is the bare prefactor
    kp2 = KrawParams(1, 2, 3, QB)
    for n in range(4):
        pref = (-1) ** n * QB.qpow(n * (F(2) - 1 - F(3, 2) + F(1, 2)))
        assert kraw(kp2, n, 0) == pref
    with pytest.raises(OutOfRange):
        kraw(kp, 4, 0)


def test_columns_refuse_an_out_of_range_x_before_any_entry():
    # an unchecked column read past the window gave silent wrong residuals:
    # kraw_orth_n at (5, 6) with N = 3 near 2.2e25, asc_orth_n at (-1, 0)
    # near 1.07
    kp = KrawParams(0, 1, 3, QB)
    ap = ASCParams(0, 1, 1, QB)
    before = table_sizes()["qracah.orthopoly._column"]
    for x in (-1, 4):
        with pytest.raises(OutOfRange, match=rf"^x = {x} outside 0\.\.3$"):
            orthopoly.kraw_column(kp, x)
    with pytest.raises(OutOfRange, match="^x = -1 must be nonnegative$"):
        orthopoly.asc_column(ap, -1)
    assert table_sizes()["qracah.orthopoly._column"] == before
    for x, x2 in ((5, 6), (4, 0)):
        with pytest.raises(OutOfRange):
            kraw_orth_n(kp, x, x2)
    with pytest.raises(OutOfRange):
        asc_orth_n(ap, -1, 0)


def test_kraw_twist_rescaling():
    # k_{u,s}(n,x) == q**(-u n) k_{0,s}(n,x)
    for u in (1, 2, F(1, 2)):
        for s in (0, 1, F(3, 2)):
            kp_u = KrawParams(u, s, 3, QB)
            kp_0 = KrawParams(0, s, 3, QB)
            for n in range(4):
                for x in range(4):
                    assert kraw(kp_u, n, x) == QB.qpow(-u * n) * kraw(kp_0, n, x)


def test_kraw_w_examples():
    assert kraw_w(QB, 4, 0) == 1
    # invariance under q <-> 1/q
    for N in range(7):
        for n in range(N + 1):
            assert kraw_w(QB, N, n) == kraw_w(QB.inverse(), N, n)


def test_kraw_W_positive_and_normalized():
    for N in range(5):
        for s in (0, 1, 2, F(1, 2)):
            total = sum(kraw_W(QB, s, N, x) * kraw_w(QB, N, 0) for x in range(N + 1))
            # weights W(:,s;1/q) sum to 1/w(0) times w(0) = 1 against the
            # constant polynomial (the n = n' = 0 orthogonality row)
            assert total == 1
            for x in range(N + 1):
                assert kraw_W(QB, s, N, x) > 0


def test_kraw_orthogonality_residuals():
    for N in range(5):
        for s in (0, 1, F(3, 2)):
            kp = KrawParams(0, s, N, QB)
            for a in range(N + 1):
                for b in range(N + 1):
                    assert kraw_orth_n(kp, a, b) == 0
                    assert kraw_orth_x(kp, a, b) == 0


def test_kraw_diff_coeffs_identity():
    # q**(2n-N) k_{v,t}(n,y) == a_-1 k(n,y-1) + a_0 k(n,y) + a_1 k(n,y+1)
    for qb in (QB, QBase(F(2, 3))):
        for N in (1, 2, 3):
            for t in (0, 1, F(1, 2)):
                for v in (0, 1):
                    kp = KrawParams(v, t, N, qb)
                    for y in range(N + 1):
                        am1, a0, a1 = kraw_diff_coeffs(qb, N, y, t)
                        assert am1 + a0 + a1 == qb.qpow(-N)
                        for n in range(N + 1):
                            rhs = a0 * kraw(kp, n, y)
                            if y > 0:
                                rhs += am1 * kraw(kp, n, y - 1)
                            else:
                                assert am1 == 0
                            if y < N:
                                rhs += a1 * kraw(kp, n, y + 1)
                            else:
                                assert a1 == 0
                            assert qb.qpow(2 * n - N) * kraw(kp, n, y) == rhs


def test_kraw_b_coeffs_identity():
    # the compact twisted element acts tridiagonally on the x variable
    for (N, s, t, v) in ((2, 1, 0, 1), (3, 2, 1, 0), (2, F(3, 2), F(1, 2), 1)):
        rs = uqsl2.RepSpec.su2(N, QB)
        op = uqsl2.twist_x(rs, 0, s, tilde=False)
        kp = KrawParams(v, t, N, QB)
        for y in range(N + 1):
            bm1, b0, b1 = kraw_b_coeffs(QB, N, y, t, v)
            vec = [kraw(kp, n, y) for n in range(N + 1)]
            out = op.apply(vec)
            for n in range(N + 1):
                rhs = (b0 + QB.bracket(s)) * kraw(kp, n, y)
                if y > 0:
                    rhs += bm1 * kraw(kp, n, y - 1)
                if y < N:
                    rhs += b1 * kraw(kp, n, y + 1)
                assert out[n] == rhs


def test_kraw_dyn_coeffs_identities():
    # both parameter-shifting five-point identities, all n
    for N in (2, 3):
        for t in (0, 1, 2):
            for v in (0, 1):
                kp = KrawParams(v, t, N, QB)
                up = KrawParams(v, t + 2, N, QB)
                down = KrawParams(v, t - 2, N, QB)
                for y in range(N + 1):
                    plus = kraw_dyn_coeffs(QB, N, y, t, 2)
                    minus = kraw_dyn_coeffs(QB, N, y, t, -2)
                    assert sum(plus) == QB.qpow(-N) == sum(minus)
                    for n in range(N + 1):
                        lhs = QB.qpow(2 * n - N) * kraw(kp, n, y)
                        rhs_p = sum(
                            c * kraw(up, n, y + e)
                            for c, e in zip(plus, (-2, -1, 0))
                            if 0 <= y + e <= N
                        )
                        rhs_m = sum(
                            c * kraw(down, n, y + e)
                            for c, e in zip(minus, (0, 1, 2))
                            if 0 <= y + e <= N
                        )
                        assert lhs == rhs_p == rhs_m


def test_kraw_dyn_boundary_vanishing():
    am22, am12, _ = kraw_dyn_coeffs(QB, 3, 0, 2, 2)
    assert am22 == 0 and am12 == 0
    am22, _, _ = kraw_dyn_coeffs(QB, 3, 1, 2, 2)
    assert am22 == 0
    _, a1m2, a2m2 = kraw_dyn_coeffs(QB, 3, 3, 2, -2)
    assert a1m2 == 0 and a2m2 == 0
    _, _, a2m2 = kraw_dyn_coeffs(QB, 3, 2, 2, -2)
    assert a2m2 == 0


# ---------------------------------------------------------------------------
# infinite family
# ---------------------------------------------------------------------------


def test_asc_trivial_values():
    ap = ASCParams(0, 1, 2, QB)
    for x in range(4):
        assert asc(ap, 0, x) == 1
    # x = 0: the q**(2x) numerator parameter is 1, series collapses
    ap2 = ASCParams(1, 0, 1, QB)
    for n in range(4):
        assert asc(ap2, n, 0) == QB.qpow(n * (0 - 1 + F(1, 2) + F(1, 2)))


def test_asc_twist_rescaling():
    for u in (1, F(1, 2)):
        ap_u = ASCParams(u, 1, 1, QB)
        ap_0 = ASCParams(0, 1, 1, QB)
        for n in range(4):
            for x in range(4):
                assert asc(ap_u, n, x) == QB.qpow(-u * n) * asc(ap_0, n, x)


def test_asc_w():
    assert asc_w(QB, 2, 0) == 1
    # k = 1 telescopes to the constant weight 1
    for n in range(6):
        assert asc_w(QB, 1, n) == 1


# -- weight tables: every entry must equal the direct Pochhammer formula bit
# for bit, with the same scalar type, whatever order entries are asked in


def _asc_w_direct(qb, k, n):
    k = k if isinstance(k, (float, complex)) else F(k)
    q2 = qb.qpow(2)
    return qb.qpow(-n * (k - 1)) * qpoch(qb.qpow(2 * k), q2, n) / qpoch(q2, q2, n)


def _kraw_w_direct(qb, N, n):
    return qb.qpow(n * (n - N)) * qbinom(N, n, qb.qpow(2))


def _same(a, b):
    return type(a) is type(b) and a == b


# (base, out-of-order n requests); floating bases with p > 1 overflow
# (q**2; q**2)_n past n ~ 25, so they stop at 20
WEIGHT_TABLE_CASES = [
    (QBase(F(1, 2)), (30, 3, 60, 0, 59)),
    (QBase(F(3, 2)), (30, 3, 60, 0, 59)),
    (QBase(0.5, "float"), (30, 3, 60, 0, 59)),
    (QBase(1.5, "float"), (12, 3, 20, 0, 19)),
    (QBase(F(2, 3), "complex"), (30, 3, 60, 0, 59)),
    (QBase(F(3, 2), "complex"), (12, 3, 20, 0, 19)),
]


@pytest.mark.parametrize("qb, order", WEIGHT_TABLE_CASES, ids=repr)
def test_asc_w_table_matches_direct_formula(qb, order):
    for k in (F(1, 2), 1, 2, 3):
        for n in order:
            assert _same(asc_w(qb, k, n), _asc_w_direct(qb, k, n)), (k, n)


@pytest.mark.parametrize("p", [F(1, 2), F(2, 3), F(9, 10)], ids=str)
def test_exact_asc_w_ratio_recurrence_is_the_direct_formula(p):
    # the exact row carries w_n / w_(n-1), no Pochhammer prefix: every entry
    # is the direct formula's Fraction
    qb = QBase(p)
    for k in (F(1, 2), 1, F(3, 2), 2, F(5, 2)):
        row = orthopoly.asc_w_column(qb, k)
        for n in range(41):
            assert _same(row[n], _asc_w_direct(qb, k, n)), (k, n)


def test_exact_asc_w_near_q_one_stays_small():
    # at p = 9/10 the prefixes of n = 200 have about 267,000 bits,
    # yet the k = 1 weights are 1 and the k = 2 weights q**-n (1 -
    # q**(2n+2)) / (1 - q**2)
    qb = QBase(F(9, 10))
    one, two = orthopoly.asc_w_column(qb, 1), orthopoly.asc_w_column(qb, 2)
    q = qb.q
    for n in range(201):
        assert _same(one[n], F(1)), n
        assert _same(two[n], q**-n * (1 - q ** (2 * n + 2)) / (1 - q**2)), n


def test_exact_asc_w_refuses_a_third_at_entry_one():
    # k = 1/3: the row is made and entry 0 is 1; entry 1 raises the error
    # of the exponent -(k - 1) = 2/3, and raises again on every later read
    row = orthopoly.asc_w_column(QBase(F(1, 2)), F(1, 3))
    assert _same(row[0], F(1))
    for n in (1, 2, 1):
        with pytest.raises(ExactnessError, match=r"^exponent 2/3 is not a half-integer$"):
            row[n]


@pytest.mark.parametrize("qb, order", WEIGHT_TABLE_CASES, ids=repr)
def test_kraw_w_table_matches_direct_formula(qb, order):
    for N in range(14):
        for n in (N, 0, N // 2, *range(N + 1)):
            assert _same(kraw_w(qb, N, n), _kraw_w_direct(qb, N, n)), (N, n)


def test_weight_tables_keep_exact_and_float_bases_apart():
    # QBase(1/2) and QBase(0.5, "float") are different keys: interleaved
    # requests get Fractions from one and floats from the other
    exact, flt = QBase(F(1, 2)), QBase(0.5, "float")
    for n in (40, 2, 41, 0):
        for qb in (flt, exact):
            assert _same(asc_w(qb, 2, n), _asc_w_direct(qb, 2, n))
    for N in (13, 5):
        for n in range(N + 1):
            for qb in (exact, flt):
                assert _same(kraw_w(qb, N, n), _kraw_w_direct(qb, N, n))


def test_weight_tables_survive_an_overflow():
    # q**(-2n) overflows a float from n = 39 at p = 1/100 (OutOfRange); the
    # failed request must raise as the direct formula does and leave the
    # table consistent
    qb = QBase(0.01, "float")
    with pytest.raises(OutOfRange):
        _asc_w_direct(qb, 3, 50)
    with pytest.raises(OutOfRange):
        asc_w(qb, 3, 50)
    for n in (10, 38, 0):
        assert _same(asc_w(qb, 3, n), _asc_w_direct(qb, 3, n))
    with pytest.raises(OutOfRange):
        asc_w(qb, 3, 45)


def test_weight_tables_range_checks():
    with pytest.raises(OutOfRange):
        asc_w(QB, 1, -1)
    for n in (-1, 5):
        with pytest.raises(OutOfRange):
            kraw_w(QB, 4, n)
    # a float k equal to a tabled Fraction k is still refused by an exact base
    assert asc_w(QB, 1, 3) == 1
    with pytest.raises(ExactnessError):
        asc_w(QB, 1.0, 3)


def test_exact_base_rejects_float_exponents_cold_and_warm():
    # 1.0 == Fraction(1): a float exponent must not read the value tabled
    # for the equal Fraction; cold, then after the Fraction call, it raises
    qb = QBase(F(5, 9))
    for _ in range(2):
        with pytest.raises(ExactnessError):
            kraw(KrawParams(0, 1.0, 4, qb), 2, 1)
        with pytest.raises(ExactnessError):
            asc(ASCParams(0, 0, 2.0, qb), 2, 1)
        kraw(KrawParams(0, 1, 4, qb), 2, 1)
        asc(ASCParams(0, 0, 2, qb), 2, 1)


def test_asc_w_table_extension_is_thread_safe():
    # threads extending one fresh table at once must not append an entry twice
    qb, k = QBase(F(5, 7)), F(3, 2)
    orders = [list(range(0, 61, step)) + [60 - step] for step in (1, 1, 2, 2, 3, 5, 7, 11)]
    results = {}

    def request(i):
        results[i] = [asc_w(qb, k, n) for n in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for i, order in enumerate(orders):
        assert results[i] == [_asc_w_direct(qb, k, n) for n in order]


def test_mixed_weight_requests_share_one_row_thread_safely():
    # kraw_w and asc_w at k = 1 all read the base's (q**2; q**2) row, and
    # asc_w at k = 3/2 also grows the (q**3; q**2) row: threads mixing them
    # on a fresh base must not append a prefix twice
    qb = QBase(F(4, 9))
    requests = [("kraw", N, n) for N in range(40, 0, -7) for n in range(N + 1)]
    requests += [("asc", k, n) for k in (1, F(3, 2)) for n in range(0, 61, 3)]
    orders = [requests[i::3] + requests[:i:-5] for i in range(6)]
    direct = {"kraw": _kraw_w_direct, "asc": _asc_w_direct}
    weight = {"kraw": kraw_w, "asc": asc_w}
    results = {}

    def request(i):
        results[i] = [weight[fam](qb, a, n) for fam, a, n in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for i, order in enumerate(orders):
        assert results[i] == [direct[fam](qb, a, n) for fam, a, n in order]


def test_both_weight_families_share_one_pochhammer_row_per_exponent():
    # a floating asc_w at k reads the (q**2; q**2) row and the (q**2k; q**2)
    # row, and every kraw_w of the base reads that same (q**2; q**2) row:
    # two k and N = 1..12 make three rows.  The exact asc_w is a ratio
    # recurrence and reads no row, so on an exact base only kraw_w's one
    # row is made
    name = "qracah.orthopoly._poch_row"
    # bases no other test uses: (base, rows after asc_w, rows after kraw_w)
    for qb, asc_rows, rows in ((QBase(8 / 13, "float"), 3, 3), (QBase(F(8, 13)), 0, 1)):
        before = table_sizes().get(name, 0)
        for k in (F(1, 2), F(3, 2)):
            for n in range(20):
                asc_w(qb, k, n)
        assert table_sizes().get(name, 0) == before + asc_rows, qb
        for N in range(1, 13):
            for n in range(N + 1):
                kraw_w(qb, N, n)
        assert table_sizes()[name] == before + rows, qb


def test_asc_W_positive():
    qb = QBase(0.5, "float")
    for x in range(11):
        assert asc_W(qb, 0, 2, x) > 0


def test_asc_orthogonality_certified():
    # tolerance scales with the diagonal target 1/W (large when W is tiny)
    qb = QBase(0.5, "float")
    tb = TailBound(tolerance=1e-13)
    for k in (1, 2):
        for s in (0, 1):
            ap = ASCParams(0, s, k, qb, tb)
            for a in range(3):
                for b in range(3):
                    scale_n = 1 + abs(1 / asc_W(qb, s, k, a, tb)) if a == b else 1
                    scale_x = 1 + abs(1 / asc_w(qb, k, a)) if a == b else 1
                    assert abs(asc_orth_n(ap, a, b)) < 1e-10 * scale_n
                    assert abs(asc_orth_x(ap, a, b)) < 1e-10 * scale_x
    # faster decay at smaller q, same contract
    qb2 = QBase(0.1, "float")
    ap = ASCParams(0, 0, 1, qb2, tb)
    assert abs(asc_orth_n(ap, 0, 1)) < 1e-10


def test_asc_diff_coeffs_identity():
    # q**(2n+k) phi_{v,t}(n,y) == c_-1 phi(n,y-1) + c_0 phi(n,y) + c_1 phi(n,y+1)
    for qb in (QB, QBase(F(1, 3))):
        for k in (1, 2):
            for t in (0, 1, F(1, 2)):
                for v in (0, 1):
                    ap = ASCParams(v, t, k, qb)
                    for y in range(4):
                        cm1, c0, c1 = asc_diff_coeffs(qb, k, y, t)
                        assert cm1 + c0 + c1 == qb.qpow(k)
                        for n in range(7):
                            rhs = c0 * asc(ap, n, y) + c1 * asc(ap, n, y + 1)
                            if y > 0:
                                rhs += cm1 * asc(ap, n, y - 1)
                            else:
                                assert cm1 == 0
                            assert qb.qpow(2 * n + k) * asc(ap, n, y) == rhs


def test_asc_d_coeffs_identity():
    # exact on interior rows of a truncated window
    T = 9
    for (k, s, t, v) in ((1, 1, 0, 1), (2, 0, 2, 1), (1, F(3, 2), F(1, 2), F(1, 2))):
        rs = uqsl2.RepSpec.su11(k, T, QB)
        op = uqsl2.twist_y(rs, 0, s, tilde=False)
        ap = ASCParams(v, t, k, QB)
        for y in range(3):
            dm1, d0, d1 = asc_d_coeffs(QB, k, y, t, v)
            vec = [asc(ap, n, y) for n in range(T + 1)]
            out = op.apply(vec)
            for n in range(T):
                rhs = (d0 + QB.brace(s)) * asc(ap, n, y)
                if y > 0:
                    rhs += dm1 * asc(ap, n, y - 1)
                rhs += d1 * asc(ap, n, y + 1)
                assert out[n] == rhs


def test_asc_d_specialization():
    # at v = 1 the upward coefficient is c_1 {2y+k+t}_q
    k, t, y = 2, 1, 2
    _, _, c1 = asc_diff_coeffs(QB, k, y, t)
    _, _, d1 = asc_d_coeffs(QB, k, y, t, 1)
    assert d1 == c1 * QB.brace(2 * y + k + t)


def test_asc_dyn_coeffs_identities():
    for k in (1, 2):
        for t in (1, 2, F(5, 2)):
            for v in (0, 1):
                ap = ASCParams(v, t, k, QB)
                up = ASCParams(v, t + 2, k, QB)
                down = ASCParams(v, t - 2, k, QB)
                for y in range(4):
                    plus = asc_dyn_coeffs(QB, k, y, t, 2)
                    minus = asc_dyn_coeffs(QB, k, y, t, -2)
                    assert sum(plus) == QB.qpow(k) == sum(minus)
                    for n in range(7):
                        lhs = QB.qpow(2 * n + k) * asc(ap, n, y)
                        rhs_p = sum(
                            c * asc(up, n, y + e)
                            for c, e in zip(plus, (-2, -1, 0))
                            if y + e >= 0
                        )
                        rhs_m = sum(
                            c * asc(down, n, y + e) for c, e in zip(minus, (0, 1, 2))
                        )
                        assert lhs == rhs_p == rhs_m


def test_asc_dyn_boundary_vanishing():
    cm22, cm12, _ = asc_dyn_coeffs(QB, 1, 0, 1, 2)
    assert cm22 == 0 and cm12 == 0
    cm22, _, _ = asc_dyn_coeffs(QB, 1, 1, 1, 2)
    assert cm22 == 0


def test_asc_coeffs_pole_is_named():
    # 1 - q**(-4y-2t-2k) and 1 - q**(4y+2t+2k-2) vanish at these points;
    # both backends report the pole instead of dividing by zero
    for qb in (QB, QBase(F(2, 3)), QBase(F(2, 3), "float")):
        with pytest.raises(DenominatorPole):
            asc_diff_coeffs(qb, 1, 0, -1)
        with pytest.raises(DenominatorPole):
            asc_dyn_coeffs(qb, 1, 0, 0, -2)


def test_cross_check_orthogonality_from_summation():
    # with equal base points, the rational pairing collapses to the n-summed
    # orthogonality of the finite family exactly at the self-partner point
    # v = -1 (where biorthogonality degenerates to orthogonality)
    from qracah import RrParams, rr_inner

    for N in (1, 2, 3):
        for s in (0, 1):
            rp = RrParams(s, s, -1, N, QB)
            for x in range(N + 1):
                for y in range(N + 1):
                    val = rr_inner(rp, x, y)
                    if x != y:
                        assert val == 0
                    else:
                        assert val == 1 / kraw_W(QB, s, N, x)


@pytest.mark.parametrize("k", [0, -1, F(-1, 2), complex(-1, 2)])
def test_infinite_family_refuses_k_not_positive(k):
    # one check on Re(k) > 0 guards the weights, the polynomials and the
    # non-compact representation; a complex k is judged by its real part
    qb = QBase(F(1, 2), "complex") if isinstance(k, complex) else QB
    for call in (lambda: asc(ASCParams(0, 0, k, qb), 1, 1),
                 lambda: asc_w(qb, k, 1),
                 lambda: asc_W(qb, 0, k, 1),
                 lambda: uqsl2.RepSpec.su11(k, 4, qb)):
        with pytest.raises(OutOfRange, match="^k must be positive"):
            call()


def test_infinite_family_takes_the_lowest_positive_k():
    qb = QBase(F(1, 2), "complex")
    assert uqsl2.RepSpec.su11(complex(1, -3), 4, qb).k == complex(1, -3)
    assert uqsl2.RepSpec.su11(F(1, 2), 4, QB).dim == 5
    assert asc_w(QB, F(1, 2), 1) == QB.qpow(F(1, 2)) * (1 - QB.qpow(1)) / (1 - QB.qpow(2))
