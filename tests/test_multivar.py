"""Nested functions, shift-set combinatorics and multivariate identities."""

from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from qracah import QBase, TailBound, kraw, KrawParams, asc, ASCParams
from qracah import multivar, orthopoly, uqsl2
from qracah.errors import OutOfRange
from qracah.multivar import (
    asc_W_multi,
    epsilon_set,
    heights,
    kraw_W_multi,
    multi_biorth_residual,
    multi_biorth_residual_asc,
    multi_gevp_residual,
    multi_gevp_residual_asc,
    nested_asc,
    nested_eigen_residual,
    nested_kraw,
    pr_multi,
    pr_multi_inner,
    rr_multi,
    rr_multi_inner,
    transfer_check_k2,
    transfer_check_k2_asc,
    transfer_check_x,
    transfer_check_y,
)
from qracah.orthopoly import kraw_diff_coeffs
from qracah.ratfun import PrParams, RrParams, pr_inner, rr_inner
from qracah.report import residual_string
from qracah.scalar import ordered_sum, scaled_rows
from qracah.uqsl2 import OpMatrix, RepSpec, twist_x, twist_y
from qracah.verify import CHECKS, RunConfig, build_tasks, chk_kraw_dyn, run_task

QB = QBase(F(1, 2))


def test_heights_examples():
    # finite chain: t + sum(2 y_i - N_i)
    assert heights(1, (1, 0), (2, 3))[2] == 1 + (2 - 2) + (0 - 3) == -2
    # infinite chain: t + sum(2 y_i + k_i)
    assert heights(0, (1, 1), (1, 2), su11=True)[2] == 7
    assert heights(2, (), ()) == [2]


def test_nested_kraw_reductions():
    # single site reduces to the univariate family
    kp = KrawParams(0, 1, 2, QB)
    for n in range(3):
        for y in range(3):
            assert nested_kraw(QB, 0, 1, [2], [y], [n]) == kraw(kp, n, y)
    # the all-zero multi-index gives 1 (every factor is 1 at n = 0)
    assert nested_kraw(QB, 1, 0, [1, 2, 1], [1, 0, 1], [0, 0, 0]) == 1
    # factor-by-factor oracle
    ys, ns, Ns, v, t = (1, 0), (1, 1), (1, 1), 0, 1
    h = heights(t, ys, Ns)
    expect = kraw(KrawParams(v, h[0], 1, QB), 1, 1) * kraw(KrawParams(v, h[1], 1, QB), 1, 0)
    assert nested_kraw(QB, v, t, Ns, ys, ns) == expect


def test_nested_factorization():
    # the nested product splits at any cut, with the height as the new base
    v, t, Ns = 1, 2, (2, 1, 2)
    for ys in iproduct(range(3), range(2), range(3)):
        h = heights(t, ys, Ns)
        for ns in ((0, 1, 2), (1, 0, 0), (2, 1, 1)):
            full = nested_kraw(QB, v, t, Ns, ys, ns)
            for cut in (1, 2):
                left = nested_kraw(QB, v, t, Ns[:cut], ys[:cut], ns[:cut])
                right = nested_kraw(QB, v, h[cut], Ns[cut:], ys[cut:], ns[cut:])
                assert full == left * right


def test_epsilon_set_cardinality():
    for M in range(1, 6):
        for j in range(1, M + 1):
            eps = epsilon_set(M, j)
            assert len(eps) == 3 ** j
            assert len(set(eps)) == 3 ** j
            for e in eps:
                # the frozen prefix vanishes and every prefix sum is in -1..1
                assert len(e) == M and not any(e[:M - j])
                assert all(-1 <= sum(e[:i + 1]) <= 1 for i in range(M))


def test_epsilon_set_printed_sublist():
    # the nine members of E_3 (M=4) with prefix (0,-1) in lexicographic order
    eps = [e for e in epsilon_set(4, 3) if e[:2] == (0, -1)]
    assert eps == [
        (0, -1, 0, 0), (0, -1, 0, 1), (0, -1, 0, 2),
        (0, -1, 1, -1), (0, -1, 1, 0), (0, -1, 1, 1),
        (0, -1, 2, -2), (0, -1, 2, -1), (0, -1, 2, 0),
    ]


def test_epsilon_set_last_entry_classes():
    # fixing the last entry partitions E_j into three equal classes
    eps = epsilon_set(3, 3)
    from collections import Counter

    sums = Counter(sum(e) for e in eps)
    assert sums == {-1: 9, 0: 9, 1: 9}


def test_coeff_A_single_site_reduction():
    # j = 1 with eps = (0,...,0,-1) is the univariate downward coefficient
    Ns, t = (2, 3), 1
    for ys in iproduct(range(3), range(4)):
        h = heights(t, ys, Ns)
        a = multivar._coeff_product(QB, 1, (0, -1), ys, h, Ns, False)
        assert a == kraw_diff_coeffs(QB, Ns[1], ys[1], h[1])[0]
    # the zero vector gives the product of middle coefficients
    ys = (1, 2)
    h = heights(t, ys, Ns)
    expect = (kraw_diff_coeffs(QB, 2, 1, h[0])[1]
              * kraw_diff_coeffs(QB, 3, 2, h[1])[1])
    assert multivar._coeff_product(QB, 2, (0, 0), ys, h, Ns, False) == expect


def test_transfer_checks_exact():
    for (M, Ns) in ((1, (2,)), (2, (2, 2)), (2, (1, 2)), (3, (1, 1, 1))):
        for j in range(1, M + 1):
            for (t, v, sigma) in ((0, 1, 1), (1, 0, 2)):
                for ys in iproduct(*[range(N + 1) for N in Ns]):
                    assert transfer_check_k2(QB, j, ys, t, v, Ns) == 0
                    assert transfer_check_x(QB, j, ys, t, v, sigma, Ns) == 0


def test_transfer_first_site_untouched():
    # for j < M every admissible shift vector leaves the early sites alone
    for eps in epsilon_set(3, 2):
        assert eps[0] == 0
    assert transfer_check_k2(QB, 2, (1, 1, 0), 0, 1, (1, 1, 1)) == 0


def test_transfer_check_refuses_an_out_of_range_y_at_its_site_column():
    # the nested vector fetches one column per site, and the column
    # accessor names the x it refuses
    with pytest.raises(OutOfRange, match=r"^x = 5 outside 0\.\.3$") as info:
        transfer_check_k2(QB, 1, (5,), 0, 0, (3,))
    assert "_nested_vec" in {entry.name for entry in info.traceback}


def test_transfer_checks_asc_interior():
    for j in (1, 2):
        for ys in iproduct(range(2), range(2)):
            assert transfer_check_k2_asc(QB, j, ys, 1, 0, (1, 1), 5) == 0
            assert transfer_check_y(QB, j, ys, 1, 0, 1, (1, 1), 5) == 0
    # mixed weights, second parameter set
    assert transfer_check_k2_asc(QB, 2, (1, 0), 0, 1, (1, 2), 5) == 0


def test_rr_multi_product_vs_tensor_inner():
    for (Ns, s, t, v) in (((2, 2), 1, 0, 0), ((1, 2), 0, 1, 1), ((1, 1, 1), 1, 1, -1)):
        grid = list(iproduct(*[range(N + 1) for N in Ns]))
        for xs in grid[:6]:
            for ys in grid[:6]:
                assert rr_multi(QB, s, t, v, Ns, xs, ys) == rr_multi_inner(
                    QB, s, t, v, Ns, xs, ys
                )


def test_rr_multi_single_site():
    rp = RrParams(1, 0, 0, 2, QB)
    for x in range(3):
        for y in range(3):
            assert rr_multi(QB, 1, 0, 0, [2], [x], [y]) == rr_inner(rp, x, y)


def test_rr_multi_orthogonality_collapse():
    # equal base points at the self-partner twist: off-diagonal vanishes
    Ns = (1, 1)
    grid = list(iproduct(range(2), range(2)))
    for xs in grid:
        for ys in grid:
            val = rr_multi(QB, 1, 1, -1, Ns, xs, ys)
            if xs != ys:
                assert val == 0
            else:
                assert val == 1 / kraw_W_multi(QB, 1, Ns, xs)


def test_multi_biorth_exact():
    for Ns in ((1, 1), (2, 2)):
        grid = list(iproduct(*[range(N + 1) for N in Ns]))
        for (s, t, v) in ((0, 0, -1), (1, 0, 0)):
            for ys in grid:
                for ys2 in grid:
                    assert multi_biorth_residual(QB, s, t, v, Ns, "x", ys, ys2) == 0
            assert multi_biorth_residual(QB, s, t, v, Ns, "y", grid[0], grid[1]) == 0


def test_multi_biorth_diagonal_value():
    Ns, s, t, v = (2, 2), 1, 0, 0
    vp = -v - 2
    ys = (1, 2)
    total = QB.zero()
    for xs in iproduct(range(3), range(3)):
        total += (rr_multi(QB, s, t, v, Ns, xs, ys)
                  * rr_multi(QB, s, t, vp, Ns, xs, ys)
                  * kraw_W_multi(QB, s, Ns, xs))
    assert total == 1 / kraw_W_multi(QB, t, Ns, ys)


def test_multi_gevp_exact():
    for (Ns, s, t, v) in (((2, 2), 1, 0, 1), ((1, 1, 1), 0, 1, 0)):
        M = len(Ns)
        grid = list(iproduct(*[range(N + 1) for N in Ns]))
        for j in range(1, M + 1):
            for xs in grid:
                for ys in grid:
                    assert multi_gevp_residual(QB, j, xs, ys, s, t, v, Ns) == 0


def test_multi_gevp_single_site_reduction():
    # j = M = 1 is the univariate recurrence
    for x in range(3):
        for y in range(3):
            got = multi_gevp_residual(QB, 1, (x,), (y,), 1, 0, 1, (2,))
            assert got == _univariate_rr_gevp(QB, 2, 1, 0, 1, x, y) == 0


def _five_operation_gevp(qb, j, xs, ys, s, t, v, sizes, su11, tb=TailBound()):
    # the generalized-eigenvalue residual as five operations: the symbol
    # times the A (C) sum, less the symbol times R(xs, ys) plus the B (D)
    # sum, the products read through rr_multi / pr_multi
    M = len(sizes)
    hx = heights(s, xs, sizes, su11)
    termsA, termsB = multivar._shift_terms(qb, j, tuple(ys), t, v, tuple(sizes), su11)

    def R(ysf):
        if su11:
            return pr_multi(qb, s, t, v, sizes, xs, ysf, tb)
        return rr_multi(qb, s, t, v, sizes, xs, ysf)

    sym = qb.brace if su11 else qb.bracket
    lhs = sym(hx[M]) * ordered_sum(((c, R(ysf)) for ysf, c in termsA.items()), qb.zero())
    rhs = sym(hx[M - j]) * R(ys)
    rhs += ordered_sum(((c, R(ysf)) for ysf, c in termsB.items()), qb.zero())
    return lhs - rhs


def _gevp_points():
    tb = TailBound(1e-12)
    for sizes, su11, stvs in (((2, 2), False, ((1, 0, 1), (0, 1, -1))),
                              ((1, 1, 1), False, ((0, 1, 0),)),
                              ((1, 1), True, ((1, 0, 0), (0, 1, -1)))):
        grid = list(iproduct(*[range(min(n, 1) + 1) for n in sizes]))
        for (s, t, v), j, xs, ys in iproduct(stvs, range(1, len(sizes) + 1), grid, grid):
            yield j, xs, ys, s, t, v, sizes, su11, tb


def _one_sum_gevp_check(points):
    for j, xs, ys, s, t, v, sizes, su11, tb in points:
        qb = QBase(F(2, 3))
        if su11:
            got = multi_gevp_residual_asc(qb, j, xs, ys, s, t, v, sizes, tb)
        else:
            got = multi_gevp_residual(qb, j, xs, ys, s, t, v, sizes)
        want = _five_operation_gevp(qb, j, xs, ys, s, t, v, sizes, su11, tb)
        assert type(got) is type(want) is F and got == want, (j, xs, ys, s, t, v, sizes)
        yield got


def test_multi_gevp_is_the_five_operation_expression():
    # the one ordered_sum with the symbols and signs as factors gives the
    # rational and type of the five-operation expression
    values = list(_one_sum_gevp_check(_gevp_points()))
    assert len(values) > 60


def test_multi_gevp_with_a_wrong_coefficient_is_the_five_operation_expression(monkeypatch):
    # one coefficient of each shift map off by 1/3: both routes give the
    # same nonzero residuals
    shift_terms = multivar._shift_terms

    def wrong_shift_terms(*args):
        out = []
        for terms in shift_terms(*args):
            terms = dict(terms)
            for first in terms:  # a map can be empty
                terms[first] += F(1, 3)
                break
            out.append(terms)
        return tuple(out)

    monkeypatch.setattr(multivar, "_shift_terms", wrong_shift_terms)
    values = list(_one_sum_gevp_check(_gevp_points()))
    assert sum(1 for r in values if r != 0) > len(values) // 2


def test_nested_eigen_left_and_right():
    for (sizes, v, base) in (((2, 2), 0, 1), ((1, 1, 1), 1, 0)):
        M = len(sizes)
        for j in range(1, M + 1):
            for ys in iproduct(*[range(N + 1) for N in sizes]):
                assert nested_eigen_residual(QB, "L", j, v, base, sizes, ys) == 0
                assert nested_eigen_residual(QB, "R", j, v, base, sizes, ys) == 0


def test_nested_eigen_asc_interior():
    for j in (1, 2):
        for ys in iproduct(range(2), range(2)):
            for side in ("L", "R"):
                assert nested_eigen_residual(
                    QB, side, j, 0, 1, (1, 1), ys, su11=True, trunc=6
                ) == 0


def test_pr_multi_product_vs_tensor_inner():
    tb = TailBound(tolerance=1e-12)
    val = pr_multi(QB, 1, 0, 0, (1, 1), (1, 0), (0, 1), tb)
    ref = pr_multi_inner(QB, 1, 0, 0, (1, 1), (1, 0), (0, 1), 40)
    assert abs(float(val - ref)) < 1e-10


def test_multi_biorth_asc_certified():
    tb = TailBound(tolerance=1e-12)
    r = multi_biorth_residual_asc(QB, 0, 0, -1, (1, 1), (0, 1), (0, 1), tb)
    scale = 1 + abs(1 / asc_W_multi(QB, 0, (1, 1), (0, 1), tb))
    assert abs(float(r)) / float(scale) < 1e-8
    r = multi_biorth_residual_asc(QB, 0, 0, -1, (1, 1), (1, 0), (0, 1), tb)
    assert abs(float(r)) < 1e-8


def test_multi_gevp_asc_certified():
    tb = TailBound(tolerance=1e-12)
    for j in (1, 2):
        for (s, t, v) in ((1, 0, 0), (0, 1, -1)):
            for xs in ((0, 0), (1, 0), (1, 1)):
                for ys in ((0, 0), (0, 1), (1, 1)):
                    r = multi_gevp_residual_asc(QB, j, xs, ys, s, t, v, (1, 1), tb)
                    assert abs(float(r)) < 1e-8


def test_nested_product_of_an_empty_chain_is_one():
    got = nested_kraw(QBase(F(1, 2)), 0, 0, [], [], [])
    assert type(got) is F and got == 1


def test_nested_asc_single_site():
    ap = ASCParams(0, 1, 2, QB)
    for n in range(3):
        for y in range(3):
            assert nested_asc(QB, 0, 1, [2], [y], [n]) == asc(ap, n, y)


def test_multivariate_nested_orthogonality():
    # both nested orthogonality relations of the finite family, exactly
    for (Ns, s) in (((1, 1), 0), ((2, 2), 1), ((1, 2, 1), 0), ((2, 1, 2), 2)):
        grid = list(iproduct(*[range(N + 1) for N in Ns]))
        for xs in grid:
            for xs2 in grid:
                total = QB.zero()
                for ns in grid:
                    w = QB.one()
                    for j, N in enumerate(Ns):
                        from qracah.orthopoly import kraw_w
                        w *= kraw_w(QB, N, ns[j])
                    total += (nested_kraw(QB, 0, s, Ns, xs, ns)
                              * nested_kraw(QB, 0, s, Ns, xs2, ns) * w)
                expect = 1 / kraw_W_multi(QB, s, Ns, xs) if xs == xs2 else QB.zero()
                assert total == expect
        # dual relation: sum over the x grid with the nested weight
        for ns in grid[:3]:
            for ns2 in grid[:3]:
                total = QB.zero()
                for xs in grid:
                    total += (nested_kraw(QB, 0, s, Ns, xs, ns)
                              * nested_kraw(QB, 0, s, Ns, xs, ns2)
                              * kraw_W_multi(QB, s, Ns, xs))
                if ns == ns2:
                    w = QB.one()
                    from qracah.orthopoly import kraw_w
                    for j, N in enumerate(Ns):
                        w *= kraw_w(QB, N, ns[j])
                    assert total == 1 / w
                else:
                    assert total == 0


# ---------------------------------------------------------------------------
# nonzero residuals: every default-grid exact residual is 0, so a wrong
# coefficient and a wrong operator entry show what the residual sums add up
# ---------------------------------------------------------------------------


def _chain_op(qb, *args):
    # the chain table's integer rows over E, read back as the operator
    E, rows = multivar._chain_op(qb, *args)
    return OpMatrix._sparse([{j: F(a, E) for j, a in zip(*row)} for row in rows], qb.zero())


def _nested_vec(*args):
    # the chain table's numerators over D, read back as the vector
    D, nums = multivar._nested_vec(*args)
    return [F(n, D) for n in nums]


def _old_transfer(qb, j, ys, t, v, sigma, sizes, su11, trunc):
    # the operator applied to the nested vector, minus the shifted sum, abs,
    # row by row: the expression the transfer residual is defined by
    _, grid = multivar._chain(qb, sizes, su11, trunc)
    if sigma is None:
        op, lam = _chain_op(qb, sizes, su11, trunc, "k2", "R", j, 0, 0), None
    else:
        op = _chain_op(qb, sizes, su11, trunc, "y" if su11 else "x", "R", j, 0, sigma)
        lam = (qb.brace if su11 else qb.bracket)(sigma)
    vec = _nested_vec(qb, v, t, sizes, ys, su11, trunc)
    out = op.apply(vec)
    termsA, termsB = multivar._shift_terms(qb, j, ys, t, v, sizes, su11)
    terms = termsA if sigma is None else termsB
    total = qb.zero()
    for ii, ns in enumerate(grid):
        if multivar._interior(ns, su11, trunc):
            rhs = qb.zero()
            for ysf, c in terms.items():
                rhs += c * _nested_vec(qb, v, t, sizes, ysf, su11, trunc)[ii]
            if lam is not None:
                rhs += lam * vec[ii]
            total += abs(out[ii] - rhs)
    return total


def _old_nested_eigen(qb, side, j, v, base, sizes, ys, su11=False, trunc=None):
    _, grid = multivar._chain(qb, sizes, su11, trunc)
    h = heights(base, ys, sizes, su11)
    vec = _nested_vec(qb, v, base, sizes, ys, su11, trunc)
    element, symbol = ("ytilde", qb.brace) if su11 else ("xtilde", qb.bracket)
    if side == "L":
        op = _chain_op(qb, sizes, su11, trunc, element, "L", j, v, base)
        lam = symbol(h[j])
    else:
        op = _chain_op(qb, sizes, su11, trunc, element, "R", j, v,
                       h[len(sizes) - j])
        lam = symbol(h[len(sizes)])
    out = op.apply(vec)
    total = qb.zero()
    for ii, ns in enumerate(grid):
        if multivar._interior(ns, su11, trunc):
            total += abs(out[ii] - lam * vec[ii])
    return total


def _old_kraw_dyn(qb, N, t, v, y):
    # q^(2n-N) k_{v,t}(n, y) against the parameter-shifted five-point sum
    total = qb.zero()
    for direction in (2, -2):
        coeffs = orthopoly.kraw_dyn_coeffs(qb, N, y, t, direction)
        offsets = (-2, -1, 0) if direction == 2 else (0, 1, 2)
        for n in range(N + 1):
            rhs = qb.zero()
            for c, e in zip(coeffs, offsets):
                if 0 <= y + e <= N:
                    rhs += c * kraw(KrawParams(v, t + direction, N, qb), n, y + e)
            total += abs(qb.qpow(2 * n - N) * kraw(KrawParams(v, t, N, qb), n, y) - rhs)
    return total


@pytest.fixture
def wrong_entries(monkeypatch):
    """One shift coefficient of each map and one entry of every chain
    operator off by a fixed rational."""
    shift_terms, chain_op = multivar._shift_terms, multivar._chain_op

    def wrong_shift_terms(*args):
        out = []
        for terms in shift_terms(*args):
            terms = dict(terms)
            for first in terms:  # a map can be empty
                terms[first] += F(1, 3)
                break
            out.append(terms)
        return tuple(out)

    def wrong_chain_op(qb, *args):
        E, rows = chain_op(qb, *args)
        rows = [{j: F(a, E) for j, a in zip(*row)} for row in rows]
        rows[0][0] = rows[0].get(0, qb.zero()) + F(2, 5)
        return scaled_rows(rows)

    monkeypatch.setattr(multivar, "_shift_terms", wrong_shift_terms)
    monkeypatch.setattr(multivar, "_chain_op", wrong_chain_op)


@pytest.mark.parametrize("got, want", [
    (lambda: transfer_check_k2(QB, 2, (1, 1), 0, 1, (2, 2)),
     lambda: _old_transfer(QB, 2, (1, 1), 0, 1, None, (2, 2), False, None)),
    (lambda: transfer_check_k2(QB, 1, (2,), 1, 0, (3,)),
     lambda: _old_transfer(QB, 1, (2,), 1, 0, None, (3,), False, None)),
    (lambda: transfer_check_y(QB, 2, (1, 0), 1, 0, 1, (1, 1), 5),
     lambda: _old_transfer(QB, 2, (1, 0), 1, 0, 1, (1, 1), True, 5)),
    (lambda: nested_eigen_residual(QB, "R", 2, 0, 1, (2, 2), (1, 1)),
     lambda: _old_nested_eigen(QB, "R", 2, 0, 1, (2, 2), (1, 1))),
    (lambda: nested_eigen_residual(QB, "L", 1, 1, 0, (1, 1), (0, 1), True, 4),
     lambda: _old_nested_eigen(QB, "L", 1, 1, 0, (1, 1), (0, 1), True, 4)),
])
def test_wrong_entries_give_the_row_by_row_residual(wrong_entries, got, want):
    got, want = got(), want()
    assert type(got) is F and got == want and got > 0


def test_a_wrong_five_point_coefficient_gives_the_row_by_row_residual(monkeypatch):
    # the last coefficient's shift (y, or y + 2 <= N) is in range
    dyn_coeffs = orthopoly.kraw_dyn_coeffs
    monkeypatch.setattr(orthopoly, "kraw_dyn_coeffs",
                        lambda *args: (*dyn_coeffs(*args)[:-1], dyn_coeffs(*args)[-1] + F(1, 7)))
    got, want = chk_kraw_dyn(QB, 3, 1, 0, 1), _old_kraw_dyn(QB, 3, 1, 0, 1)
    assert type(got) is F and got == want and got > 0


# ---------------------------------------------------------------------------
# the univariate eigen, biorthogonality and recurrence verdicts run the
# one-site chain: each against the univariate expression it replaced
# ---------------------------------------------------------------------------


def _univariate_eigen(qb, u, s, x, N=None, k=None, trunc=None):
    # the tilde element applied row by row to the family column, minus the
    # eigenvalue times the column, over the rows the window keeps exact
    if N is not None:
        rs = RepSpec.su2(N, qb)
        op, lam = twist_x(rs, u, s, tilde=True), qb.bracket(2 * x - N + s)
        column = orthopoly.kraw_column(KrawParams(u, s, N, qb), x)
    else:
        rs = RepSpec.su11(k, trunc, qb)
        op, lam = twist_y(rs, u, s, tilde=True), qb.brace(2 * x + k + s)
        column = orthopoly.asc_column(ASCParams(u, s, k, qb), x)
    vec = [column[n] for n in range(rs.dim)]
    res = [o - lam * w for o, w in zip(op.apply(vec), vec)]
    return ordered_sum(abs(r) for r in res[:rs.interior(1)])


def _univariate_rr_biorth(qb, N, s, t, v, relation, i, j):
    # the u-sum of the two rr_inner factors times the weight, minus
    # delta_ij over the weight at the other parameter
    rp, partner = RrParams(s, t, v, N, qb), RrParams(s, t, -qb.conj(v) - 2, N, qb)
    if relation == "x":
        outer, diag = s, t
        pairs = [(rr_inner(rp, u, i), qb.conj(rr_inner(partner, u, j))) for u in range(N + 1)]
    else:
        outer, diag = t, s
        pairs = [(rr_inner(rp, i, u), qb.conj(rr_inner(partner, j, u))) for u in range(N + 1)]
    acc = ordered_sum((*pair, orthopoly.kraw_W(qb, outer, N, u)) for u, pair in enumerate(pairs))
    if i == j:
        acc -= 1 / orthopoly.kraw_W(qb, diag, N, i)
    return acc


def _univariate_pr_gevp(qb, tb, k, s, t, v, x, y, c0_error=0):
    # {2x+k+s}_q (c_-1 R(x,y-1) + c_0 R(x,y) + c_1 R(x,y+1))
    #   - (d_-1 R(x,y-1) + (d_0 + {s}_q) R(x,y) + d_1 R(x,y+1)),
    # with c_0 off by c0_error
    pp = PrParams(s, t, v, k, qb, tb)
    (cm1, c0, c1) = orthopoly.asc_diff_coeffs(qb, k, y, t)
    c0 += c0_error
    (dm1, d0, d1) = orthopoly.asc_d_coeffs(qb, k, y, t, v)
    val = pr_inner(pp, x, y)
    lhs, rhs = c0 * val, (d0 + qb.brace(s)) * val
    if y > 0:
        val = pr_inner(pp, x, y - 1)
        lhs += cm1 * val
        rhs += dm1 * val
    val = pr_inner(pp, x, y + 1)
    lhs += c1 * val
    rhs += d1 * val
    return qb.brace(2 * x + k + s) * lhs - rhs


def _univariate_rr_gevp(qb, N, s, t, v, x, y, evaluate=rr_inner, b0_error=0):
    # [2x-N+s]_q (a_-1 R(x,y-1) + a_0 R(x,y) + a_1 R(x,y+1))
    #   - (b_-1 R(x,y-1) + (b_0 + [s]_q) R(x,y) + b_1 R(x,y+1)),
    # R = evaluate(rp, x, y), with no term outside 0..N in y and b_0 off
    # by b0_error
    rp = RrParams(s, t, v, N, qb)
    (am1, a0, a1) = orthopoly.kraw_diff_coeffs(qb, N, y, t)
    (bm1, b0, b1) = orthopoly.kraw_b_coeffs(qb, N, y, t, v)
    b0 += b0_error
    val = evaluate(rp, x, y)
    lhs, rhs = a0 * val, (b0 + qb.bracket(s)) * val
    if y > 0:
        val = evaluate(rp, x, y - 1)
        lhs += am1 * val
        rhs += bm1 * val
    if y < N:
        val = evaluate(rp, x, y + 1)
        lhs += a1 * val
        rhs += b1 * val
    return qb.bracket(2 * x - N + s) * lhs - rhs


def test_one_site_infinite_recurrence_is_the_univariate_one():
    # certified tasks run in exact scalars, so the chain's order of the
    # three terms gives the same rational, and the report holds its float
    cfg = RunConfig()
    tasks = build_tasks("prop4.5", cfg)
    assert len(tasks) == 32
    values = []
    for task in tasks:
        point = dict(task.params)
        qb = QBase(point.pop("p"))
        tb = TailBound(tolerance=point.pop("tb_tol"), max_terms=point.pop("tb_max_terms"))
        want = _univariate_pr_gevp(qb, tb, **point)
        got = CHECKS["pr_gevp"](qb, tb, **point)
        assert type(got) is F and got == want, task.check
        report = run_task(task, "exact", cfg.tol())
        assert report.residual == residual_string(float(want)), task.check
        values.append(want)
    assert any(values)


@pytest.fixture
def wrong_twisted_entry(monkeypatch):
    """Entry (0, 0) of every twisted element off by 2/5, in the one body
    that builds it for twist_x/twist_y and for coproduct_op; the tables
    that keep those elements are read around."""
    twist_from = uqsl2._twist_from

    def wrong_twist_from(qb, *args):
        op = twist_from(qb, *args)
        rows = [dict(row) for row in op.rows]
        rows[0][0] = rows[0].get(0, qb.zero()) + F(2, 5)
        return OpMatrix._sparse(rows, op.zero)

    monkeypatch.setattr(uqsl2, "_twist_from", wrong_twist_from)
    monkeypatch.setattr(uqsl2, "_twisted", uqsl2._twisted.__wrapped__)
    monkeypatch.setattr(multivar, "_chain_op", multivar._chain_op.__wrapped__)


@pytest.mark.parametrize("point", [dict(N=3, u=1, s=2, x=1), dict(k=1, trunc=6, u=0, s=1, x=2)])
def test_a_wrong_twisted_entry_gives_the_univariate_eigen_residual(wrong_twisted_entry, point):
    got, want = CHECKS["eigen"](QB, **point), _univariate_eigen(QB, **point)
    assert type(got) is F and got == want and got > 0


def test_a_wrong_weight_gives_the_univariate_biorth_residual(monkeypatch):
    # the pack table that keeps the chain's weights is read around
    kraw_W = orthopoly.kraw_W
    monkeypatch.setattr(orthopoly, "kraw_W",
                        lambda qb, s, N, x: kraw_W(qb, s, N, x) + (F(1, 3) if x == 1 else 0))
    monkeypatch.setattr(multivar, "_kraw_W_pack", multivar._kraw_W_pack.__wrapped__)
    for point in ((3, 1, 2, 0, "x", 1, 0), (2, 0, 0, 1, "y", 1, 1), (3, 2, 1, -1, "x", 2, 2)):
        got, want = CHECKS["rr_biorth"](QB, *point), _univariate_rr_biorth(QB, *point)
        assert type(got) is F and got == want and got != 0, point


def test_a_wrong_shift_coefficient_gives_the_univariate_recurrence_residual(monkeypatch):
    # the unshifted coefficient of the one-site C map off by 1/3 is c_0 of
    # the univariate identity off by 1/3
    shift_terms = multivar._shift_terms

    def wrong_shift_terms(qb, j, ys, *args):
        C, D = shift_terms(qb, j, ys, *args)
        return {**C, ys: C.get(ys, qb.zero()) + F(1, 3)}, D

    monkeypatch.setattr(multivar, "_shift_terms", wrong_shift_terms)
    tb = TailBound(tolerance=1e-12)
    for point in ((1, 0, 1, 0, 1, 2), (2, 1, 0, -1, 0, 0)):
        got = CHECKS["pr_gevp"](QB, tb, *point)
        want = _univariate_pr_gevp(QB, tb, *point, c0_error=F(1, 3))
        assert type(got) is F and got == want and got != 0, point


def test_a_wrong_shift_coefficient_gives_the_univariate_finite_recurrence_residual(monkeypatch):
    # the unshifted coefficient of the one-site B map off by 1/3 is b_0 of
    # the univariate identity off by 1/3
    shift_terms = multivar._shift_terms

    def wrong_shift_terms(qb, j, ys, *args):
        A, B = shift_terms(qb, j, ys, *args)
        return A, {**B, ys: B.get(ys, qb.zero()) + F(1, 3)}

    monkeypatch.setattr(multivar, "_shift_terms", wrong_shift_terms)
    for point in ((3, 1, 2, 0, 1, 2), (2, 0, 1, -2, 0, 0), (3, 2, 1, -1, 3, 3)):
        got = CHECKS["rr_gevp"](QB, *point)
        want = _univariate_rr_gevp(QB, *point, b0_error=F(1, 3))
        assert type(got) is F and got == want and got != 0, point


def test_eval_twisted_coefficients_are_the_one_site_shift_terms(capsys):
    # no verdict reads kraw_b_coeffs or asc_d_coeffs: eval's b_/d_ rows are
    # the one-site chain's B/D maps at y-1, y, y+1, a missing entry 0
    from qracah import cli

    compared = 0
    for p, (option, sizes, su11), t, v in iproduct(
            ("1/2", "2/3"), (("N", range(5), False), ("k", ("1", "2", "1/2"), True)),
            ("0", "1", "1/2", "-3/2", "2"), ("0", "-1", "1/2", "3/2")):
        qb = QBase(F(p))
        for size in sizes:
            size = F(size) if su11 else size
            for y in range(5) if su11 else range(size + 1):
                argv = ["eval", "--fn", "coefficients", "--p", p, f"--{option}", str(size),
                        "--t", t, "--v", v, "--y", str(y)]
                status = cli.main(argv)
                out, err = capsys.readouterr()
                if status:
                    # a pole of one of the printed tables
                    assert status == 2 and err.startswith("DenominatorPole"), argv
                    continue
                rows = dict(line.split("=") for line in out.split())
                letter = "d" if su11 else "b"
                got = tuple(F(rows[f"{letter}_{e}"]) for e in ("m1", "0", "1"))
                B = multivar._shift_terms(qb, 1, (y,), F(t), F(v), (size,), su11)[1]
                assert got == tuple(B.get((y + e,), 0) for e in (-1, 0, 1)), argv
                compared += 1
    assert compared == 1168  # 32 points are poles
