"""Nested functions, shift-set combinatorics and multivariate identities."""

from fractions import Fraction as F
from itertools import count, product as iproduct

import pytest

from qracah import QBase, TailBound, kraw, KrawParams, asc, ASCParams
from qracah import multivar, orthopoly, uqsl2
from qracah.errors import OutOfRange
from qracah.multivar import (
    asc_W_multi,
    epsilon_set,
    heights,
    multi_biorth_residual,
    multi_biorth_residual_asc,
    multi_gevp_residual,
    multi_gevp_residual_asc,
    nested_eigen_residual,
    nested_kraw,
    pr_multi,
    rr_multi,
    rr_multi_inner,
    transfer_check_k2,
    transfer_check_k2_asc,
    transfer_check_x,
    transfer_check_y,
)
from qracah.orthopoly import kraw_diff_coeffs
from qracah.qseries import certified_sum
from qracah.ratfun import PrParams, RrParams, pr_inner, rr_inner
from qracah.report import residual_string
from qracah.scalar import ordered_sum, scaled_rows
from qracah.uqsl2 import OpMatrix
from qracah.verify import CHECKS, RunConfig, build_tasks, chk_dyn, run_task

import reference

QB = QBase(F(1, 2))
# the library's shift-term maps, whose keys the fixtures below perturb
_SHIFT_TERMS = multivar._shift_terms


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
                assert val == 1 / reference.kraw_W_multi(QB.p, 1, Ns, xs)


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
                  * reference.kraw_W_multi(QB.p, s, Ns, xs))
    assert total == 1 / reference.kraw_W_multi(QB.p, t, Ns, ys)


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
            assert multi_gevp_residual(QB, 1, (x,), (y,), 1, 0, 1, (2,)) == 0


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
    ref = reference.pr_multi_partial(QB.p, 1, 0, 0, (1, 1), (1, 0), (0, 1), 40)
    assert abs(float(val - ref)) < 1e-10


def test_multi_biorth_asc_certified():
    tb = TailBound(tolerance=1e-12)
    r = multi_biorth_residual_asc(QB, 0, 0, -1, (1, 1), "x", (0, 1), (0, 1), tb)
    scale = 1 + abs(1 / asc_W_multi(QB, 0, (1, 1), (0, 1), tb))
    assert abs(float(r)) / float(scale) < 1e-8
    r = multi_biorth_residual_asc(QB, 0, 0, -1, (1, 1), "x", (1, 0), (0, 1), tb)
    assert abs(float(r)) < 1e-8


@pytest.mark.parametrize("s, t, v", [(0, 0, -1), (1, 0, 0)])
def test_multi_biorth_asc_y_relation_certified(s, t, v):
    # the y relation sums over the second argument against the weight at t
    # and subtracts the inverse weight at s: the x relation's bound
    tb = TailBound(tolerance=1e-12)
    r = multi_biorth_residual_asc(QB, s, t, v, (1, 1), "y", (0, 1), (0, 1), tb)
    scale = 1 + abs(1 / asc_W_multi(QB, s, (1, 1), (0, 1), tb))
    assert abs(float(r)) / float(scale) < 1e-8
    r = multi_biorth_residual_asc(QB, s, t, v, (1, 1), "y", (1, 0), (0, 1), tb)
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
    # the one-site infinite chain's nested vector is the family's column
    ap = ASCParams(0, 1, 2, QB)
    for y in range(3):
        D, nums = multivar._nested_vec(QB, 0, 1, (2,), (y,), True, 4)
        assert [F(num, D) for num in nums] == [asc(ap, n, y) for n in range(5)]


@pytest.mark.parametrize("sizes, su11, trunc", [((2, 1, 2), False, None), ((1, 3), False, None),
                                                ((1, 2), True, 3), ((2, 1, 1), True, 2)])
def test_nested_vectors_are_the_model_products(sizes, su11, trunc):
    # every entry of a chain's nested vector, over its index grid in grid
    # order, is the model's product of family values at running heights
    nested = reference.nested_asc if su11 else reference.nested_kraw
    grid = list(iproduct(*[range((trunc if su11 else N) + 1) for N in sizes]))
    for v, t in ((0, 1), (1, 0), (F(1, 2), F(-1, 2))):
        for ys in iproduct(*[range(min(N, 2) + 1) for N in sizes]):
            D, nums = multivar._nested_vec(QB, v, t, sizes, ys, su11, trunc)
            want = [nested(QB.p, v, t, sizes, ys, ns) for ns in grid]
            assert [F(num, D) for num in nums] == want, (v, t, ys)


def test_multivariate_nested_orthogonality():
    # both nested orthogonality relations of the finite family, exactly,
    # against the model's n-side and x-side chain weights
    for (Ns, s) in (((1, 1), 0), ((2, 2), 1), ((1, 2, 1), 0), ((2, 1, 2), 2)):
        grid = list(iproduct(*[range(N + 1) for N in Ns]))
        w = {ns: reference.nested_kraw_w(QB.p, Ns, ns) for ns in grid}
        W = {xs: reference.kraw_W_multi(QB.p, s, Ns, xs) for xs in grid}
        for xs in grid:
            for xs2 in grid:
                total = QB.zero()
                for ns in grid:
                    total += (nested_kraw(QB, 0, s, Ns, xs, ns)
                              * nested_kraw(QB, 0, s, Ns, xs2, ns) * w[ns])
                assert total == (1 / W[xs] if xs == xs2 else 0)
        # dual relation: sum over the x grid with the nested weight
        for ns in grid[:3]:
            for ns2 in grid[:3]:
                total = QB.zero()
                for xs in grid:
                    total += (nested_kraw(QB, 0, s, Ns, xs, ns)
                              * nested_kraw(QB, 0, s, Ns, xs, ns2) * W[xs])
                assert total == (1 / w[ns] if ns == ns2 else 0)


# ---------------------------------------------------------------------------
# nonzero residuals: every default-grid exact residual is 0, so a wrong
# coefficient and a wrong operator entry show what the residual sums add up
# ---------------------------------------------------------------------------


def _wrong_transfer(j, ys, t, v, sigma, sizes, su11=False, trunc=None):
    # every row of the identity is 0, so under the wrong entries a kept
    # row ii is 2/5 of the model's vec[0] on row 0 (the operator entry),
    # less 1/3 of entry ii of the first shifted vector
    nested = reference.nested_asc if su11 else reference.nested_kraw
    grid = list(iproduct(*[range((trunc if su11 else N) + 1) for N in sizes]))
    terms = _SHIFT_TERMS(QB, j, ys, t, v, sizes, su11)[0 if sigma is None else 1]
    first = next(iter(terms), None)
    total = F(0)
    for ns in grid:
        if not su11 or all(n < trunc for n in ns):
            row = F(2, 5) * nested(QB.p, v, t, sizes, ys, ns) if ns == grid[0] else F(0)
            if first is not None:
                row -= F(1, 3) * nested(QB.p, v, t, sizes, first, ns)
            total += abs(row)
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
     lambda: _wrong_transfer(2, (1, 1), 0, 1, None, (2, 2))),
    (lambda: transfer_check_k2(QB, 1, (2,), 1, 0, (3,)),
     lambda: _wrong_transfer(1, (2,), 1, 0, None, (3,))),
    (lambda: transfer_check_y(QB, 2, (1, 0), 1, 0, 1, (1, 1), 5),
     lambda: _wrong_transfer(2, (1, 0), 1, 0, 1, (1, 1), True, 5)),
    (lambda: nested_eigen_residual(QB, "R", 2, 0, 1, (2, 2), (1, 1)),
     lambda: F(2, 5) * abs(reference.nested_kraw(QB.p, 0, 1, (2, 2), (1, 1), (0, 0)))),
    (lambda: nested_eigen_residual(QB, "L", 1, 1, 0, (1, 1), (0, 1), True, 4),
     lambda: F(2, 5) * abs(reference.nested_asc(QB.p, 1, 0, (1, 1), (0, 1), (0, 0)))),
])
def test_wrong_entries_give_the_row_by_row_residual(wrong_entries, got, want):
    got, want = got(), want()
    assert type(got) is F and got == want and got > 0


def test_a_wrong_five_point_coefficient_gives_the_row_by_row_residual(monkeypatch):
    # the last coefficient of each direction off by 1/7, its shift (y, or
    # y + 2 <= N) in range: every row of the identity is 0, so the residual
    # is 1/7 of the |values| it multiplies, k_(v,t+2)(n, y) upwards and
    # k_(v,t-2)(n, y+2) downwards
    dyn_coeffs = orthopoly.kraw_dyn_coeffs
    monkeypatch.setattr(orthopoly, "kraw_dyn_coeffs",
                        lambda *args: (*dyn_coeffs(*args)[:-1], dyn_coeffs(*args)[-1] + F(1, 7)))
    N, t, v, y = 3, 1, 0, 1
    want = F(1, 7) * sum(abs(reference.kraw(QB.p, v, t + 2, N, n, y))
                         + abs(reference.kraw(QB.p, v, t - 2, N, n, y + 2)) for n in range(N + 1))
    got = chk_dyn(QB, t, v, y, N=N)
    assert type(got) is F and got == want and got > 0


def test_a_coefficient_at_an_out_of_range_shift_fails_the_task_as_internal(monkeypatch):
    # at y = 0 the first coefficient of the upward shift has shift -2,
    # outside 0..N: made nonzero, it fails the task as a formula bug that
    # names the coefficient, the shift and the point
    dyn_coeffs = orthopoly.kraw_dyn_coeffs
    monkeypatch.setattr(orthopoly, "kraw_dyn_coeffs",
                        lambda *args: (dyn_coeffs(*args)[0] + F(1, 7), *dyn_coeffs(*args)[1:]))
    cfg = RunConfig()
    task = next(task for task in build_tasks("lemma3.8", cfg) if task.params["y"] == 0)
    report = run_task(task, "exact", cfg.tol())
    assert not report.passed and report.residual == "error"
    assert report.error.startswith("InternalError: nonzero coefficient 1/7 at out-of-range "
                                   "shift -2 from y = 0"), report.error


# ---------------------------------------------------------------------------
# the univariate eigen, biorthogonality and recurrence verdicts run the
# one-site chain: each against the univariate expression it replaced
# ---------------------------------------------------------------------------


def _univariate_pr_biorth(qb, tb, k, s, t, v, relation, i, j):
    # the certified u-sum of the two pr_inner factors times the weight,
    # minus delta_ij over the weight at the other parameter
    pp, partner = PrParams(s, t, v, k, qb, tb), PrParams(s, t, -qb.conj(v) - 2, k, qb, tb)
    outer, diag = (s, t) if relation == "x" else (t, s)

    def terms():
        for u in count():
            if relation == "x":
                pair = pr_inner(pp, u, i), qb.conj(pr_inner(partner, u, j))
            else:
                pair = pr_inner(pp, i, u), qb.conj(pr_inner(partner, j, u))
            yield (*pair, orthopoly.asc_W(qb, outer, k, u, tb))

    acc = certified_sum(terms(), tb)
    if i == j:
        acc -= 1 / orthopoly.asc_W(qb, diag, k, i, tb)
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
        got = CHECKS["pr_gevp"](qb, tb=tb, **point)
        assert type(got) is F and got == want, task.check
        report = run_task(task, "exact", cfg.tol())
        assert report.residual == residual_string(float(want)), task.check
        values.append(want)
    assert any(values)


def test_one_site_infinite_biorth_is_the_univariate_one():
    # each shell of one site is one point's factor tuple, so the chain's
    # certified sum reads the univariate terms and stops where it stops;
    # diagonal entries are divided by 1 + |1/W| as the check divides them
    cfg = RunConfig()
    tasks = build_tasks("prop4.4", cfg)
    assert len(tasks) == 36
    values = []
    for task in tasks:
        point = dict(task.params)
        qb = QBase(point.pop("p"))
        tb = TailBound(tolerance=point.pop("tb_tol"), max_terms=point.pop("tb_max_terms"))
        want = _univariate_pr_biorth(qb, tb, **point)
        if point["i"] == point["j"]:
            diag = point["t"] if point["relation"] == "x" else point["s"]
            want /= 1 + abs(1 / orthopoly.asc_W(qb, diag, point["k"], point["i"], tb))
        got = CHECKS["pr_biorth"](qb, tb, **point)
        assert type(got) is F and got == want, task.check
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
    # every row of the eigen-identity is 0, so the residual is 2/5 of the
    # column's entry n = 0 that the wrong entry multiplies
    u, s, x = point["u"], point["s"], point["x"]
    first = (reference.kraw(QB.p, u, s, point["N"], 0, x) if "N" in point
             else reference.asc(QB.p, u, s, point["k"], 0, x))
    got = CHECKS["eigen"](QB, **point)
    assert type(got) is F and got == F(2, 5) * abs(first) and got > 0


def test_a_wrong_weight_gives_the_univariate_biorth_residual(monkeypatch):
    # the pack table that keeps the chain's weights is read around
    kraw_W = orthopoly.kraw_W
    monkeypatch.setattr(orthopoly, "kraw_W",
                        lambda qb, s, N, x: kraw_W(qb, s, N, x) + (F(1, 3) if x == 1 else 0))
    monkeypatch.setattr(multivar, "_W_pack", multivar._W_pack.__wrapped__)
    # the identity's u-sum is delta_ij / W, so the residual is 1/3 of the
    # u = 1 product of the two rational functions, plus 1/W - 1/W' on the
    # diagonal, where i = 1 reads the wrong W'
    for point in ((3, 1, 2, 0, "x", 1, 0), (2, 0, 0, 1, "y", 1, 1), (3, 2, 1, -1, "x", 2, 2)):
        N, s, t, v, relation, i, j = point
        if relation == "x":
            left, right, diag = (1, i), (1, j), t
        else:
            left, right, diag = (i, 1), (j, 1), s
        want = F(1, 3) * (reference.rr(QB.p, s, t, v, N, *left)
                          * reference.rr(QB.p, s, t, -v - 2, N, *right))
        if i == j:
            W = reference.kraw_W(QB.p, diag, N, i)
            want += 1 / W - 1 / (W + (F(1, 3) if i == 1 else 0))
        got = CHECKS["rr_biorth"](QB, *point)
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
        got = CHECKS["pr_gevp"](QB, tb=tb, **dict(zip("kstvxy", point)))
        want = _univariate_pr_gevp(QB, tb, *point, c0_error=F(1, 3))
        assert type(got) is F and got == want and got != 0, point


def test_a_wrong_shift_coefficient_gives_the_univariate_finite_recurrence_residual(monkeypatch):
    # the unshifted coefficient of the one-site B map off by 1/3 is b_0 of
    # the univariate identity off by 1/3: the identity holds, so the
    # residual is -1/3 of R(x, y)
    shift_terms = multivar._shift_terms

    def wrong_shift_terms(qb, j, ys, *args):
        A, B = shift_terms(qb, j, ys, *args)
        return A, {**B, ys: B.get(ys, qb.zero()) + F(1, 3)}

    monkeypatch.setattr(multivar, "_shift_terms", wrong_shift_terms)
    for point in ((3, 1, 2, 0, 1, 2), (2, 0, 1, -2, 0, 0), (3, 2, 1, -1, 3, 3)):
        got = CHECKS["rr_gevp"](QB, **dict(zip("Nstvxy", point)))
        want = -F(1, 3) * reference.rr(QB.p, *point[1:4], point[0], *point[4:])
        assert type(got) is F and got == want and got != 0, point


def test_a_wrong_twisted_coefficient_reaches_eval_and_the_verdicts(monkeypatch, capsys):
    # eval's b_ rows and the verdicts' B maps are one formula,
    # orthopoly.twisted_coeff: off by 1/7, it moves each printed b_ entry
    # by 1/7, and lemma3.5's residual at an interior y becomes 1/7 of the
    # |sum of the three shifted columns| over the rows
    from qracah import cli

    qb = QBase(F(5, 17))
    N, s, t, v, y = 2, 1, 1, 0, 1
    argv = ["eval", "--fn", "coefficients", "--p", "5/17", "--N", str(N), "--t", str(t),
            "--v", str(v), "--y", str(y)]

    def b_rows():
        assert cli.main(argv) == 0
        rows = dict(line.split("=") for line in capsys.readouterr().out.split())
        return [F(rows[f"b_{e}"]) for e in ("m1", "0", "1")]

    # the B maps untabled, so each run reads the formula afresh
    monkeypatch.setattr(multivar, "_shift_terms", multivar._shift_terms.__wrapped__)
    right = b_rows()
    assert CHECKS["kraw_transfer"](qb, N=N, s=s, t=t, v=v, y=y) == 0
    twisted_coeff = orthopoly.twisted_coeff
    monkeypatch.setattr(orthopoly, "twisted_coeff",
                        lambda *args: twisted_coeff(*args) + F(1, 7))
    assert b_rows() == [b + F(1, 7) for b in right]
    want = F(1, 7) * sum(abs(sum(reference.kraw(qb.p, v, t, N, n, yy) for yy in range(N + 1)))
                         for n in range(N + 1))
    got = CHECKS["kraw_transfer"](qb, N=N, s=s, t=t, v=v, y=y)
    assert type(got) is F and got == want and got > 0


def test_eval_twisted_coefficients_are_the_one_site_shift_terms(capsys):
    # eval's b_/d_ rows are the one-site chain's B/D maps at y-1, y, y+1, a
    # missing entry 0: both read orthopoly.twisted_coeff, at heights whose
    # addends come in different orders
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
