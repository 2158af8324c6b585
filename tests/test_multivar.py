"""Nested functions, shift-set combinatorics and multivariate identities."""

from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from qracah import QBase, TailBound, kraw, KrawParams, asc, ASCParams
from qracah import multivar
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
from qracah.ratfun import RrParams, rr_inner

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
    from qracah.ratfun import rr_gevp_residual

    for x in range(3):
        for y in range(3):
            assert multi_gevp_residual(QB, 1, (x,), (y,), 1, 0, 1, (2,)) == 0
            assert rr_gevp_residual(RrParams(1, 0, 1, 2, QB), x, y) == 0


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
