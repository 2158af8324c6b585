"""Representation matrices, twisted elements, coproducts and their identities."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracah import QBase
from qracah.errors import DimensionMismatch, OutOfRange
from qracah.multivar import nested_eigen_residual
from qracah.orthopoly import ASCParams, asc_column
from qracah.uqsl2 import (
    OpMatrix,
    RepSpec,
    coproduct_gens,
    coproduct_op,
    coproduct_twist_coideal,
    gens,
    gevp_rewrite_residual,
    relation_residuals,
    star_residual,
    twist_rewrite_residual,
    twist_x,
    twist_y,
)

QB = QBase(F(1, 2))


def test_opmatrix_basics():
    eye = OpMatrix.identity(3, QB)
    a = OpMatrix([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    assert a @ eye == a
    assert (a - a).abs_sum() == 0
    assert (2 * a)[0][1] == 4
    with pytest.raises(DimensionMismatch):
        OpMatrix([[1, 2], [3, 4]]) @ eye
    b = OpMatrix([[0, 1], [1, 0]])
    k = eye.kron(b)
    assert k.dim == 6 and k[0][1] == 1 and k[2][3] == 1 and k[0][3] == 0


# entries are mostly zero, like the generators and their coproduct images
_ENTRY = st.one_of(st.just(F(0)), st.just(F(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _square(n):
    return st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _operands(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    return (draw(_square(n)), draw(_square(n)), draw(_square(m)),
            draw(st.lists(_ENTRY, min_size=n, max_size=n)), draw(_ENTRY),
            draw(st.integers(0, n)))


def _assert_dense(m, ref):
    assert [m[i] for i in range(m.dim)] == ref
    # only nonzero entries are stored, in increasing column order
    assert all(list(row) == sorted(row) and all(row.values()) for row in m.rows)


@given(_operands())
@settings(max_examples=150, deadline=None)
def test_opmatrix_matches_dense_reference(ops):
    a, b, c, vec, scalar, rows = ops
    n, m = len(a), len(c)
    A, B, C = OpMatrix(a), OpMatrix(b), OpMatrix(c)
    _assert_dense(A, a)
    _assert_dense(A @ B, [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ])
    _assert_dense(A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)])
    _assert_dense(A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])
    _assert_dense(scalar * A, [[scalar * x for x in r] for r in a])
    _assert_dense(A.kron(C), [
        [a[i][k] * c[j][l] for k in range(n) for l in range(m)]
        for i in range(n) for j in range(m)
    ])
    assert A.apply(vec) == [sum(x * v for x, v in zip(r, vec)) for r in a]
    assert A.abs_sum(rows) == sum(abs(x) for r in a[:rows] for x in r)
    assert A - A == OpMatrix.zeros(n, QB)


@pytest.mark.parametrize("mode", ["exact", "float", "complex"])
def test_empty_rows_give_backend_zero(mode):
    qb = QBase(F(1, 2), mode)
    zero = qb.zero()
    # E maps nothing into row 0
    K, Ki, E, Fm = gens(RepSpec.su2(2, qb))
    for op in (E, OpMatrix.zeros(3, qb)):
        out = op.apply([qb.one()] * 3)
        assert out[0] == zero and type(out[0]) is type(zero)
        total = op.abs_sum(1)
        assert total == 0 and type(total) is type(abs(zero))
    assert type(OpMatrix.zeros(3, qb).abs_sum()) is type(abs(zero))


def test_coproduct_storage_is_linear_in_dim():
    # a dense 81x81 image would store 6561 entries; each row of this one
    # holds a few E/F/Kinv**2 terms
    sites = [RepSpec.su11(1, 8, QB), RepSpec.su11(1, 8, QB)]
    op = coproduct_op(sites, "ytilde", "L", 2, u=0, s=1)
    assert op.dim == 81
    assert sum(len(row) for row in op.rows) <= 9 * 81


def test_gens_su2_small():
    rs = RepSpec.su2(0, QB)
    K, Ki, E, Fm = gens(rs)
    assert K[0][0] == 1 and E[0][0] == 0 and Fm[0][0] == 0
    # N = 1: K = diag(q**-1/2, q**1/2) = diag(2, 1/2) at q = 1/4
    rs1 = RepSpec.su2(1, QB)
    K, Ki, E, Fm = gens(rs1)
    assert K[0][0] == 2 and K[1][1] == F(1, 2)
    assert E[1][0] == QB.bracket(1) == 1
    assert Fm[0][1] == QB.bracket(1) == 1


def test_gens_su11_entries():
    # entry mapping basis element n+1 into row n carries -[n+k]_q
    rs = RepSpec.su11(1, 3, QB)
    K, Ki, E, Fm = gens(rs)
    assert Fm[1][2] == -QB.bracket(2) == -F(17, 4)
    assert E[2][1] == QB.bracket(2)
    assert K[0][0] == QB.qpow(F(1, 2))


def test_relations():
    for p in (F(1, 2), F(2, 3)):
        qb = QBase(p)
        for N in range(7):
            rs = RepSpec.su2(N, qb)
            for name, res in relation_residuals(rs).items():
                assert res.abs_sum() == 0, name
        for k in (1, 2):
            rs = RepSpec.su11(k, 10, qb)
            for name, res in relation_residuals(rs).items():
                assert res.abs_sum(rs.interior(1)) == 0, name
                # the boundary row genuinely leaks for the EF relation
            leak = relation_residuals(rs)["EF - FE - (K2-Kinv2)/(q-1/q)"]
            assert leak.abs_sum() != 0


def test_star_structure():
    # compact form: K* = K, E* = F; weighted-inner-product adjointness
    for N in (0, 2, 3):
        rs = RepSpec.su2(N, QB)
        K, Ki, E, Fm = gens(rs)
        assert star_residual(rs, K, K).abs_sum() == 0
        assert star_residual(rs, E, Fm).abs_sum() == 0
        assert star_residual(rs, Fm, E).abs_sum() == 0
    # non-compact form: E* = -F
    rs = RepSpec.su11(2, 8, QB)
    K, Ki, E, Fm = gens(rs)
    assert star_residual(rs, K, K).abs_sum() == 0
    assert star_residual(rs, E, (-1) * Fm).abs_sum() == 0
    assert star_residual(rs, Fm, (-1) * E).abs_sum() == 0


def test_twist_shapes():
    # at N = 0 everything is the 1x1 constant
    rs = RepSpec.su2(0, QB)
    assert twist_x(rs, 1, 2)[0][0] == QB.bracket(2)
    # the tilde variant's diagonal is [s]_q q**(N-2n)
    rs1 = RepSpec.su2(1, QB)
    xt = twist_x(rs1, 0, 2, tilde=True)
    assert xt[0][0] == QB.bracket(2) * QB.qpow(1)
    assert xt[1][1] == QB.bracket(2) * QB.qpow(-1)
    # non-compact tilde: explicit 3x3 check of the off-diagonal scale
    rs11 = RepSpec.su11(1, 2, QB)
    yt = twist_y(rs11, 0, 0, tilde=True)
    rho = QB.bracket_brace_ratio
    K, Ki, E, Fm = gens(rs11)
    expect = rho * QB.qpow(-F(1, 2)) * (E @ Ki) + (-rho * QB.qpow(F(1, 2))) * (Fm @ Ki)
    assert yt == expect + QB.brace(0) * (Ki @ Ki)


def test_twist_rewrite_su2():
    for p in (F(1, 2), F(2, 3)):
        qb = QBase(p)
        for N in range(5):
            rs = RepSpec.su2(N, qb)
            for (u, v, s, t) in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2),
                                 (2, 2, 1, 0), (F(1, 2), 1, F(3, 2), 0)):
                assert twist_rewrite_residual(rs, u, v, s, t).abs_sum() == 0


def test_twist_rewrite_su11_interior():
    rs = RepSpec.su11(2, 10, QB)
    for (u, v, s, t) in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2)):
        res = twist_rewrite_residual(rs, u, v, s, t)
        assert res.abs_sum(rs.interior(2)) == 0


def test_gevp_rewrite():
    # K**-2 times the plain element equals the tilde element at twist 1
    for N in (0, 2, 4):
        assert gevp_rewrite_residual(RepSpec.su2(N, QB), 2).abs_sum() == 0
    rs = RepSpec.su11(1, 8, QB)
    assert gevp_rewrite_residual(rs, F(3, 2)).abs_sum() == 0


def test_eigen_residual_su2():
    # the finite family diagonalizes the tilde element with [2x-N+s]_q: the
    # one-site chain's left eigen-identity, summed over every row
    assert nested_eigen_residual(QB, "L", 1, 0, 1, (0,), (0,)) == 0
    for N in (2, 4):
        for u in (0, 1):
            for s in (0, 2):
                for x in range(N + 1):
                    assert nested_eigen_residual(QB, "L", 1, u, s, (N,), (x,)) == 0


def test_eigen_residual_su11_interior():
    rs = RepSpec.su11(1, 12, QB)
    for x in (0, 1, 2):
        assert nested_eigen_residual(QB, "L", 1, 0, 0, (1,), (x,), True, 12) == 0
        # the boundary row, fed from outside the window, genuinely leaks
        column = asc_column(ASCParams(0, 0, 1, QB), x)
        vec = [column[n] for n in range(rs.dim)]
        out = twist_y(rs, 0, 0, tilde=True).apply(vec)
        assert out[-1] - QB.brace(2 * x + 1) * vec[-1] != 0


def test_coproduct_k2_is_kron_square():
    sites = [RepSpec.su2(1, QB), RepSpec.su2(2, QB)]
    DK = coproduct_gens(sites)[0]
    K1 = gens(sites[0])[0]
    K2 = gens(sites[1])[0]
    assert DK == K1.kron(K2)
    assert coproduct_op(sites, "k2", "L", 2) == (K1 @ K1).kron(K2 @ K2)


def test_coproduct_algebra_map():
    # the coproduct images satisfy the same exchange relation KE = qEK
    sites = [RepSpec.su2(2, QB), RepSpec.su2(3, QB)]
    DK, DKi, DE, DF = coproduct_gens(sites)
    q = QB.q
    assert (DK @ DE - q * (DE @ DK)).abs_sum() == 0
    assert (DK @ DF - (1 / q) * (DF @ DK)).abs_sum() == 0
    comm = DE @ DF - DF @ DE
    target = (1 / (q - 1 / q)) * (DK @ DK - DKi @ DKi)
    assert (comm - target).abs_sum() == 0


def test_coproduct_coideal_route_agrees():
    # hom-route tilde coproduct == coideal nesting; for the non-compact
    # element the local piece subtracts the (nonvanishing) brace constant
    for kind, builder in (("x", "xtilde"), ("y", "ytilde")):
        if kind == "x":
            sites = [RepSpec.su2(2, QB), RepSpec.su2(1, QB)]
        else:
            sites = [RepSpec.su11(1, 4, QB), RepSpec.su11(2, 4, QB)]
        hom = coproduct_op(sites, builder, "L", 2, u=1, s=2)
        coideal = coproduct_twist_coideal(sites, 1, 2, kind)
        assert (hom - coideal).abs_sum() == 0


def test_coproduct_coassociativity_three_sites():
    # building the 3-site image by nesting left or by the closed-form sum
    sites = [RepSpec.su2(1, QB)] * 3
    hom = coproduct_op(sites, "xtilde", "L", 3, u=0, s=1)
    coideal = coproduct_twist_coideal(sites, 0, 1, "x")
    assert (hom - coideal).abs_sum() == 0


def test_coproduct_padding_sides():
    sites = [RepSpec.su2(1, QB), RepSpec.su2(1, QB), RepSpec.su2(1, QB)]
    left = coproduct_op(sites, "k2", "L", 1)
    right = coproduct_op(sites, "k2", "R", 1)
    K = gens(sites[0])[0]
    eye = OpMatrix.identity(2, QB)
    assert left == (K @ K).kron(eye).kron(eye)
    assert right == eye.kron(eye).kron(K @ K)
    with pytest.raises(OutOfRange):
        coproduct_op(sites, "k2", "L", 4)


def _relative_star_bound(rs, A):
    res = star_residual(rs, A, A)
    w = rs.weights()
    worst = 0.0
    for n in range(rs.dim):
        for m in range(rs.dim):
            scale = 1.0 + abs(w[n] * A[n][m]) + abs(w[m] * A[m][n])
            worst = max(worst, abs(res[n][m]) / scale)
    return worst


def test_twist_self_adjoint_imaginary_twist():
    # with real base point and purely imaginary twist, the twisted elements
    # are self-adjoint for the weighted inner product (complex backend;
    # entries grow with the index, so the roundoff bound is relative)
    qb = QBase(0.5, "complex")
    rs = RepSpec.su2(3, qb)
    for tilde in (False, True):
        assert _relative_star_bound(rs, twist_x(rs, 0.5j, 1.0, tilde=tilde)) < 1e-13
    rs11 = RepSpec.su11(2, 8, qb)
    assert _relative_star_bound(rs11, twist_y(rs11, 0.25j, 1.0, tilde=True)) < 1e-13
    assert _relative_star_bound(rs11, twist_y(rs11, 0.25j, 1.0, tilde=False)) < 1e-13
