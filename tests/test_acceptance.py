"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

All identity families are verified at desk scale; the primary contract is
exact-zero residuals in the exact rational backend, with stated tolerances
for the certified (truncated-infinite) checks.
"""

from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from qracah import (
    ASCParams,
    KrawParams,
    QBase,
    RrParams,
    TailBound,
    kraw_orth_n,
    kraw_orth_x,
    rr_closed,
    rr_inner,
    rr_valid,
)
from qracah import multivar, orthopoly, uqsl2
from qracah.errors import DenominatorPole, NonConvergent
from qracah.verify import RunConfig, run_suite

P_GRID = (F(1, 2), F(2, 3))  # q = 1/4 and 4/9
STV = ((0, 0, 0), (1, 0, 0), (1, 2, 1), (2, 1, -1), (0, 1, -2))
TB = TailBound(tolerance=1e-12)


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_summation_identity():
    """Summation formula, finite case, exact equality on the q-Racah grid."""
    checked = skipped = 0
    for p in P_GRID:
        qb = QBase(p)
        for N in range(5):
            for s, t, v in STV:
                for x in range(5):
                    for y in range(5):
                        if x > N or y > N:
                            skipped += 1  # outside the finite-case domain
                            continue
                        rp = RrParams(s, t, v, N, qb)
                        try:
                            lhs, rhs = rr_closed(rp, x, y), rr_inner(rp, x, y)
                        except DenominatorPole:
                            skipped += 1  # shared pole locus of the product side
                            continue
                        assert lhs == rhs, (p, N, s, t, v, x, y)
                        checked += 1
    _report("1", checked > 400, f"({checked} points exact, {skipped} out of domain)")


def test_criterion_02_dual_orthogonality():
    """Both finite orthogonality relations, exactly zero, N <= 8, s in 0..3."""
    checked = 0
    qb = QBase(F(1, 2))
    for N in range(9):
        for s in (0, 1, 2, 3):
            kp = KrawParams(0, s, N, qb)
            for a in range(N + 1):
                for b in range(N + 1):
                    assert kraw_orth_n(kp, a, b) == 0, (N, s, a, b, "n")
                    assert kraw_orth_x(kp, a, b) == 0, (N, s, a, b, "x")
                    checked += 2
    _report("2", checked == 2 * 4 * sum((n + 1) ** 2 for n in range(9)),
            f"({checked} residuals exactly 0)")


def test_criterion_03_closed_form():
    """Inner product equals the closed form exactly on the validity domain."""
    grid = STV + ((F(1, 2), F(3, 2), 0), (F(3, 2), F(1, 2), F(1, 2)),
                  (1, 1, F(1, 2)))
    checked = rejected = 0
    for p in P_GRID:
        qb = QBase(p)
        for N in range(6):
            for s, t, v in grid:
                rp = RrParams(s, t, v, N, qb)
                for x in range(N + 1):
                    for y in range(N + 1):
                        if not rr_valid(rp, x, y):
                            rejected += 1
                            continue
                        assert rr_closed(rp, x, y) == rr_inner(rp, x, y)
                        checked += 1
    _report("3", checked > 1000, f"({checked} points exact, {rejected} rejected)")


def test_criterion_04_biorthogonality():
    """Both biorthogonality relations exact for v with partner -v-2."""
    checked = 0
    qb = QBase(F(1, 2))
    for N in range(5):
        for (s, t) in ((0, 0), (1, 2), (2, 1)):
            for v in (-2, -1, 0, 1):
                # the univariate relation is the one-site chain's
                for i in range(N + 1):
                    for j in range(N + 1):
                        for relation in ("x", "y"):
                            assert multivar.multi_biorth_residual(
                                qb, s, t, v, (N,), relation, (i,), (j,)) == 0
                        checked += 2
    # the self-partner case v = -1 is plain orthogonality
    rp = RrParams(1, 1, -1, 3, qb)
    for x in range(4):
        for y in range(4):
            expected = 0 if x != y else 1 / orthopoly.kraw_W(qb, 1, 3, x)
            assert rr_inner(rp, x, y) == expected
    _report("4", checked > 500, f"({checked} residuals exactly 0, v=-1 orthogonal)")


def test_criterion_05_operator_identities():
    """Algebra relations, star structure and the polynomial-in-K**2 rewrite."""
    count = 0
    for p in P_GRID:
        qb = QBase(p)
        for N in range(6):
            rs = uqsl2.RepSpec.su2(N, qb)
            assert all(m == 0 for m in uqsl2.relation_residuals(rs).values())
            assert uqsl2.star_residual(rs) == 0
            for (u, v, s, t) in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2), (2, 2, 1, 0)):
                assert uqsl2.twist_rewrite_residual(rs, u, v, s, t) == 0
                count += 1
            assert uqsl2.gevp_rewrite_residual(rs, 2) == 0
        for k in (1, 2):
            rs = uqsl2.RepSpec.su11(k, 10, qb)
            assert all(
                m == 0 for m in uqsl2.relation_residuals(rs, rs.interior(1)).values()
            )
            assert uqsl2.star_residual(rs) == 0
            for (u, v, s, t) in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2)):
                assert uqsl2.twist_rewrite_residual(rs, u, v, s, t, rs.interior(2)) == 0
                count += 1
            assert uqsl2.gevp_rewrite_residual(rs, 1, rs.interior(2)) == 0
    _report("5", count > 30, f"({count} operator identities exact)")


def test_criterion_06_eigenvalue_equations():
    """Univariate and nested eigen-identities, exact (interior for su11)."""
    qb = QBase(F(1, 2))
    count = 0
    # the univariate eigen-identities are the one-site chain's left ones,
    # summed over every row (su2) or the interior rows (su11)
    for N in range(5):
        for u in (0, 1):
            for s in (0, 2):
                for x in range(N + 1):
                    assert multivar.nested_eigen_residual(qb, "L", 1, u, s, (N,), (x,)) == 0
                    count += 1
    for k in (1, 2):
        for u in (0, 1):
            for s in (0, 1):
                for x in (0, 1, 2):
                    assert multivar.nested_eigen_residual(
                        qb, "L", 1, u, s, (k,), (x,), True, 10) == 0
                    count += 1
    # nested chains, left- and right-aligned coproducts
    for sizes in ((2,), (2, 2), (1, 1, 1), (2, 1, 2)):
        M = len(sizes)
        for j in range(1, M + 1):
            for (v, base) in ((0, 1), (1, 0)):
                for ys in iproduct(*[range(N + 1) for N in sizes]):
                    for side in ("L", "R"):
                        assert multivar.nested_eigen_residual(
                            qb, side, j, v, base, sizes, ys) == 0
                        count += 1
    for j in (1, 2):
        for ys in iproduct(range(2), range(2)):
            for side in ("L", "R"):
                assert multivar.nested_eigen_residual(
                    qb, side, j, 0, 1, (1, 1), ys, su11=True, trunc=8) == 0
                count += 1
    _report("6", count > 450, f"({count} eigen-identities exact)")


def test_criterion_07_transfer_coefficients():
    """Pointwise three-term and parameter-shifting transfer identities."""
    count = 0
    for p in P_GRID:
        qb = QBase(p)
        for N in range(1, 5):
            for (s, t, v) in STV:
                for y in range(N + 1):
                    assert multivar.transfer_check_k2(qb, 1, [y], t, v, [N]) == 0
                    assert multivar.transfer_check_x(qb, 1, [y], t, v, s, [N]) == 0
                    count += 2
        # parameter-shifting identities, both directions, every n
        kp_grid = ((2, 0, 0), (3, 1, 1), (2, 2, 0))
        for (N, t, v) in kp_grid:
            kp = KrawParams(v, t, N, qb)
            up = KrawParams(v, t + 2, N, qb)
            down = KrawParams(v, t - 2, N, qb)
            for y in range(N + 1):
                plus = orthopoly.kraw_dyn_coeffs(qb, N, y, t, 2)
                minus = orthopoly.kraw_dyn_coeffs(qb, N, y, t, -2)
                for n in range(N + 1):
                    lhs = qb.qpow(2 * n - N) * orthopoly.kraw(kp, n, y)
                    rp = sum(c * orthopoly.kraw(up, n, y + e)
                             for c, e in zip(plus, (-2, -1, 0)) if 0 <= y + e <= N)
                    rm = sum(c * orthopoly.kraw(down, n, y + e)
                             for c, e in zip(minus, (0, 1, 2)) if 0 <= y + e <= N)
                    assert lhs == rp == rm
                    count += 2
        # infinite family: static, twisted, and dynamical identities
        T = 8
        for k in (1, 2):
            for (s, t, v) in ((1, 0, 1), (0, 1, 0)):
                ap = ASCParams(v, t, k, qb)
                rs = uqsl2.RepSpec.su11(k, T, qb)
                op = uqsl2.twist_y(rs, 0, s, tilde=False)
                for y in range(3):
                    cm1, c0, c1 = orthopoly.asc_diff_coeffs(qb, k, y, t)
                    dm1, d0, d1 = orthopoly.asc_d_coeffs(qb, k, y, t, v)
                    vec = [orthopoly.asc(ap, n, y) for n in range(T + 1)]
                    out = op.apply(vec)
                    for n in range(T):
                        lhs = qb.qpow(2 * n + k) * vec[n]
                        rhs_k2 = c0 * vec[n] + c1 * orthopoly.asc(ap, n, y + 1)
                        rhs_y = (d0 + qb.brace(s)) * vec[n] + d1 * orthopoly.asc(ap, n, y + 1)
                        if y > 0:
                            rhs_k2 += cm1 * orthopoly.asc(ap, n, y - 1)
                            rhs_y += dm1 * orthopoly.asc(ap, n, y - 1)
                        assert lhs == rhs_k2 and out[n] == rhs_y
                        count += 2
            for (t, v) in ((1, 0), (2, 1)):
                ap = ASCParams(v, t, k, qb)
                up = ASCParams(v, t + 2, k, qb)
                down = ASCParams(v, t - 2, k, qb)
                for y in range(3):
                    plus = orthopoly.asc_dyn_coeffs(qb, k, y, t, 2)
                    minus = orthopoly.asc_dyn_coeffs(qb, k, y, t, -2)
                    for n in range(6):
                        lhs = qb.qpow(2 * n + k) * orthopoly.asc(ap, n, y)
                        rp = sum(c * orthopoly.asc(up, n, y + e)
                                 for c, e in zip(plus, (-2, -1, 0)) if y + e >= 0)
                        rm = sum(c * orthopoly.asc(down, n, y + e)
                                 for c, e in zip(minus, (0, 1, 2)))
                        assert lhs == rp == rm
                        count += 2
    _report("7", count > 800, f"({count} pointwise identities exact)")


def test_criterion_08_three_term_recurrences():
    """Finite recurrence exact; infinite recurrence within 1e-9 certified."""
    qb = QBase(F(1, 2))
    count = 0
    # both recurrences are the one-site chain's
    for N in range(5):
        for (s, t, v) in STV:
            for x in range(N + 1):
                for y in range(N + 1):
                    assert multivar.multi_gevp_residual(qb, 1, (x,), (y,), s, t, v, (N,)) == 0
                    count += 1
    worst = 0.0
    for (k, s, t, v) in ((1, 0, 1, 0), (2, 1, 0, -1)):
        for x in range(4):
            for y in range(4):
                r = abs(float(multivar.multi_gevp_residual_asc(
                    qb, 1, (x,), (y,), s, t, v, (k,), TB)))
                worst = max(worst, r)
                assert r < 1e-9
                count += 1
    _report("8", count > 300, f"({count} recurrences; worst certified {worst:.2e} < 1e-9)")


def test_criterion_09_multivariate_transfer_and_gevp():
    """Multivariate transfer identities and recurrences: exact (finite chain),
    certified < 1e-8 (infinite chain, two sites)."""
    qb = QBase(F(1, 2))
    count = 0
    for sizes in ((2,), (2, 2), (1, 1, 1), (1, 2, 1)):
        M = len(sizes)
        for j in range(1, M + 1):
            for (t, v, sigma) in ((0, 1, 1), (1, 0, 2)):
                for ys in iproduct(*[range(N + 1) for N in sizes]):
                    assert multivar.transfer_check_k2(qb, j, ys, t, v, sizes) == 0
                    assert multivar.transfer_check_x(qb, j, ys, t, v, sigma, sizes) == 0
                    count += 2
    for sizes in ((2, 2), (1, 1, 1)):
        M = len(sizes)
        grid = list(iproduct(*[range(N + 1) for N in sizes]))
        for j in range(1, M + 1):
            for (s, t, v) in ((1, 0, 1), (0, 1, 0)):
                for xs in grid:
                    for ys in grid:
                        assert multivar.multi_gevp_residual(
                            qb, j, xs, ys, s, t, v, sizes) == 0
                        count += 1
    # infinite chain, two sites: transfer exact on the interior, recurrence
    # certified below 1e-8
    for j in (1, 2):
        for ys in iproduct(range(2), range(2)):
            assert multivar.transfer_check_k2_asc(qb, j, ys, 0, 0, (1, 1), 5) == 0
            assert multivar.transfer_check_y(qb, j, ys, 0, 0, 1, (1, 1), 5) == 0
            count += 2
    worst = 0.0
    for j in (1, 2):
        for (s, t, v) in ((1, 0, 0), (0, 1, -1)):
            for xs in ((0, 0), (1, 1)):
                for ys in ((0, 0), (0, 1), (1, 1)):
                    r = abs(float(multivar.multi_gevp_residual_asc(
                        qb, j, xs, ys, s, t, v, (1, 1), TB)))
                    worst = max(worst, r)
                    assert r < 1e-8
                    count += 1
    _report("9", count > 1000, f"({count} checks; worst certified {worst:.2e} < 1e-8)")


def test_criterion_10_multivariate_biorthogonality():
    """Exact for the finite chain at size (2,2); certified < 1e-8 for the
    infinite chain at weights (1,1)."""
    qb = QBase(F(1, 2))
    count = 0
    Ns = (2, 2)
    grid = list(iproduct(range(3), range(3)))
    for (s, t, v) in ((0, 0, -1), (1, 0, 0)):
        for ys in grid:
            for ys2 in grid:
                assert multivar.multi_biorth_residual(qb, s, t, v, Ns, "x", ys, ys2) == 0
                assert multivar.multi_biorth_residual(qb, s, t, v, Ns, "y", ys, ys2) == 0
                count += 2
    worst = 0.0
    pairs = list(iproduct(range(2), range(2)))
    for ys in pairs:
        for ys2 in pairs:
            r = multivar.multi_biorth_residual_asc(qb, 0, 0, -1, (1, 1), "x", ys, ys2, TB)
            scale = 1.0
            if ys == ys2:
                scale += abs(float(1 / multivar.asc_W_multi(qb, 0, (1, 1), ys, TB)))
            rr = abs(float(r)) / scale
            worst = max(worst, rr)
            assert rr < 1e-8
            count += 1
    _report("10", count > 300, f"({count} relations; worst certified {worst:.2e} < 1e-8)")


def test_criterion_11_shift_set_combinatorics():
    """Cardinality 3**j and the printed nine-vector sublist, verbatim."""
    ok = True
    for M in range(1, 6):
        for j in range(1, M + 1):
            ok = ok and len(multivar.epsilon_set(M, j)) == 3 ** j
    sub = [e for e in multivar.epsilon_set(4, 3) if e[:2] == (0, -1)]
    ok = ok and sub == [
        (0, -1, 0, 0), (0, -1, 0, 1), (0, -1, 0, 2),
        (0, -1, 1, -1), (0, -1, 1, 0), (0, -1, 1, 1),
        (0, -1, 2, -2), (0, -1, 2, -1), (0, -1, 2, 0),
    ]
    _report("11", ok, "(cardinalities and printed sublist match)")


def test_criterion_12_certificate_honesty():
    """Impossible tolerances produce reported failures, never silent passes."""
    # library level: shallow budgets raise instead of returning stale values
    with pytest.raises(NonConvergent):
        orthopoly.asc_orth_n(
            ASCParams(0, 0, 1, QBase(0.5, "float"),
                      TailBound(tolerance=1e-20, max_terms=12)), 0, 0)
    # harness level: every report is either a genuine pass or a visible fail
    reports = list(run_suite("prop4.4", RunConfig(tolerance=1e-20, max_terms=25)))
    failures = [r for r in reports if not r.passed]
    silent = [
        r for r in reports
        if r.passed and (r.error or abs(float(r.residual)) > 1e-20)
    ]
    _report("12", bool(failures) and not silent,
            f"({len(failures)} reported failures, no silent passes)")
