"""The two polynomial families: values, weights, orthogonality, coefficients."""

import sys
import threading
from fractions import Fraction as F
from math import prod

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
)
from qracah import orthopoly, uqsl2
from qracah.errors import DenominatorPole, ExactnessError, OutOfRange
from qracah.scalar import as_exponent
from qracah.tables import table_sizes

import reference

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


@pytest.mark.parametrize("p", [F(1, 2), F(9, 10)], ids=str)
def test_family_columns_are_the_model_sums(p):
    # both families' columns are the model's 3phi2 sums times prefactors,
    # to N = 20 and n = 24: from entry 16 on, through the stepped route
    qb, N = QBase(p), 20
    for x in (0, 1, 5, 19, 20):
        for u, s in ((0, 1), (F(1, 2), F(3, 2)), (1, -2)):
            column = orthopoly.kraw_column(KrawParams(u, s, N, qb), x)
            want = [reference.kraw(p, u, s, N, n, x) for n in range(N + 1)]
            assert [column[n] for n in range(N + 1)] == want, (x, u, s)
            column = orthopoly.asc_column(ASCParams(u, s, 2, qb), x)
            want = [reference.asc(p, u, s, 2, n, x) for n in range(25)]
            assert [column[n] for n in range(25)] == want, (x, u, s)


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


# -- weight tables: whatever order entries are asked in, an exact entry is
# the model's Pochhammer product, and a floating or complex entry is within
# 1e-13 relative of that Fraction at the same rational p


def _same(a, b):
    return type(a) is type(b) and a == b


def _is_weight(qb, got, model, *args):
    """``got`` is the model's weight ``model(p, *args)`` at the base's
    rational p: the same Fraction in an exact base; in a floating one a
    scalar of the backend's type within 1e-13 relative of it."""
    want = model(qb.p, *args)
    if qb.is_exact:
        return _same(got, want)
    scalar = complex if qb.mode == "complex" else float
    return type(got) is scalar and abs(got - float(want)) <= 1e-13 * abs(want)


# (base, out-of-order n requests)
WEIGHT_TABLE_CASES = [
    (QBase(F(1, 2)), (30, 3, 60, 0, 59)),
    (QBase(F(3, 2)), (30, 3, 60, 0, 59)),
    (QBase(0.5, "float"), (30, 3, 60, 0, 59)),
    (QBase(1.5, "float"), (30, 3, 60, 0, 59)),
    (QBase(F(2, 3), "complex"), (30, 3, 60, 0, 59)),
    (QBase(F(3, 2), "complex"), (30, 3, 60, 0, 59)),
]


@pytest.mark.parametrize("qb, order", WEIGHT_TABLE_CASES, ids=repr)
def test_asc_w_table_matches_direct_formula(qb, order):
    for k in (F(1, 2), 1, 2, 3):
        for n in order:
            assert _is_weight(qb, asc_w(qb, k, n), reference.asc_w, k, n), (k, n)


@pytest.mark.parametrize("p", [F(1, 2), F(2, 3), F(9, 10)], ids=str)
def test_exact_asc_w_ratio_recurrence_is_the_direct_formula(p):
    # the exact row carries w_n / w_(n-1), no Pochhammer prefix: every entry
    # is the direct formula's Fraction
    qb = QBase(p)
    for k in (F(1, 2), 1, F(3, 2), 2, F(5, 2)):
        row = orthopoly.asc_w_column(qb, k)
        for n in range(41):
            assert _same(row[n], reference.asc_w(p, k, n)), (k, n)


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
    # at N = 30 and p = 1/2 the weights reach 1e135 while q**(n(N+1)) on
    # its own leaves the float range from n = 18
    for N in (*range(14), 30):
        for n in (N, 0, N // 2, *range(N + 1)):
            assert _is_weight(qb, kraw_w(qb, N, n), reference.kraw_w, N, n), (N, n)


def test_exact_kraw_w_at_N_600_takes_no_large_power():
    # every power the row takes is at most q**(N+1) or q**2, far under
    # scalar.MAX_POWER_BITS, which q**(n(N+1)) passes at n = N; the
    # reference is the q**2-binomial at q = 1/4 on integers
    qb, N = QBase(F(1, 2)), 600
    for n in (0, N // 2, N):
        want = F(prod(16 ** (N - n + j) - 1 for j in range(1, n + 1)),
                 prod(16**j - 1 for j in range(1, n + 1)) * 4 ** (n * (N - n)))
        assert _same(kraw_w(qb, N, n), want), n


def test_weight_tables_keep_exact_and_float_bases_apart():
    # QBase(1/2) and QBase(0.5, "float") are different keys: interleaved
    # requests get Fractions from one and floats from the other
    exact, flt = QBase(F(1, 2)), QBase(0.5, "float")
    for n in (40, 2, 41, 0):
        for qb in (flt, exact):
            assert _is_weight(qb, asc_w(qb, 2, n), reference.asc_w, 2, n)
    for N in (13, 5):
        for n in range(N + 1):
            for qb in (exact, flt):
                assert _is_weight(qb, kraw_w(qb, N, n), reference.kraw_w, N, n)


def test_weight_tables_survive_an_overflow():
    # the weight, about q**(-2n), leaves the float range from n = 39 at p =
    # 1/100 (OutOfRange); the failed request must raise and leave the
    # table consistent
    qb = QBase(F(1, 100), "float")
    with pytest.raises(OutOfRange):
        asc_w(qb, 3, 50)
    for n in (10, 38, 0):
        assert _is_weight(qb, asc_w(qb, 3, n), reference.asc_w, 3, n)
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
        assert results[i] == [reference.asc_w(qb.p, k, n) for n in order]


def test_mixed_weight_requests_share_one_row_thread_safely():
    # kraw_w at each N and asc_w at each k grow one weight row and one ratio
    # row, every thread reading the same rows: threads mixing them on a
    # fresh base must not append an entry twice
    qb = QBase(F(4, 9))
    requests = [("kraw", N, n) for N in range(40, 0, -7) for n in range(N + 1)]
    requests += [("asc", k, n) for k in (1, F(3, 2)) for n in range(0, 61, 3)]
    orders = [requests[i::3] + requests[:i:-5] for i in range(6)]
    model = {"kraw": reference.kraw_w, "asc": reference.asc_w}
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
        assert results[i] == [model[fam](qb.p, a, n) for fam, a, n in order]


def test_both_weight_families_share_one_pochhammer_row_per_exponent():
    # every weight reads a ratio row q**(dm) (q**e; q**2)_m / (q**2; q**2)_m:
    # asc_w at k is the row (2k, 1 - k) itself, asc_W at k and any s reads
    # the row (2k, 0), and kraw_w at N reads the row (-2N, N + 1) up to
    # entry N // 2, since its weights are symmetric in n <-> N - n; so two k
    # and N = 1..12 make 16 rows, in every backend
    name = "qracah.orthopoly._ratio_row"
    for qb in (QBase(8 / 13, "float"), QBase(F(8, 13))):  # bases no other test uses
        before = table_sizes().get(name, 0)
        for k in (F(1, 2), F(3, 2)):
            for n in range(20):
                asc_w(qb, k, n)
            for s in (0, F(1, 2), 2):
                for x in range(6):
                    asc_W(qb, s, k, x)
            e, d = as_exponent(2 * k), as_exponent(1 - k)
            assert orthopoly.asc_w_column(qb, k) is orthopoly._ratio_row(qb, e, d)
            assert len(orthopoly._ratio_row(qb, e, d).row) == 20, (qb, k)
            assert len(orthopoly._ratio_row(qb, e, 0).row) == 6, (qb, k)
        assert table_sizes()[name] == before + 4, qb
        for N in range(1, 13):
            for n in range(N + 1):
                kraw_w(qb, N, n)
            assert len(orthopoly._ratio_row(qb, -2 * N, N + 1).row) == N // 2 + 1, (qb, N)
        assert table_sizes()[name] == before + 16, qb


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


@pytest.mark.parametrize("su11, size", [(False, 3), (True, 1)], ids=["kraw", "asc"])
def test_shift_lookups_refuse_an_illegal_shift(su11, size):
    # only the nine legal (eps, delta) pairs exist, refused before any table
    # is read or stored, and the five-point tables take direction +-2 only
    before = table_sizes()
    for delta in (1, -4):
        with pytest.raises(OutOfRange, match=rf"^delta = {delta} is not one of -2, 0, \+2$"):
            orthopoly.shift_row(QB, su11, size, 1, 0, delta)
        with pytest.raises(OutOfRange, match=rf"^delta = {delta} is not one of -2, 0, \+2$"):
            orthopoly.shift_coeff(QB, su11, size, 1, 0, 0, delta)
    for eps, delta, text in ((2, 0, "0"), (1, 2, r"\+2"), (-1, -2, "-2")):
        with pytest.raises(OutOfRange, match=rf"^eps = {eps} illegal for delta = {text}$"):
            orthopoly.shift_coeff(QB, su11, size, 1, 0, eps, delta)
    dyn_coeffs = asc_dyn_coeffs if su11 else kraw_dyn_coeffs
    for direction in (0, 1):
        with pytest.raises(OutOfRange, match=rf"^direction must be \+-2, got {direction}$"):
            dyn_coeffs(QB, size, 1, 0, direction)
    assert table_sizes() == before


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
