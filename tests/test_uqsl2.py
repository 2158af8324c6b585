"""Representation matrices, twisted elements, coproducts and their identities."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracah import QBase, uqsl2
from qracah.errors import DimensionMismatch, OutOfRange
from qracah.multivar import nested_eigen_residual
from qracah.orthopoly import ASCParams, asc_column
from qracah.uqsl2 import (
    OpMatrix,
    RepSpec,
    combine,
    coproduct_gens,
    coproduct_op,
    gens,
    gevp_rewrite_residual,
    relation_residuals,
    star_residual,
    twist_rewrite_residual,
    twist_x,
    twist_y,
    weighted_products,
)
from qracah.verify import RunConfig, build_tasks

import reference

QB = QBase(F(1, 2))


def test_opmatrix_basics():
    eye = OpMatrix.identity(3, QB)
    a = OpMatrix([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    assert a @ eye == a
    with pytest.raises(DimensionMismatch):
        OpMatrix([[1, 2], [3, 4]]) @ eye
    b = OpMatrix([[0, 1], [1, 0]])
    k = eye.kron(b)
    assert k.dim == 6 and k[0][1] == 1 and k[2][3] == 1 and k[0][3] == 0


# entries are mostly zero, like the generators and their coproduct images;
# the floating backends draw integers, so the dense reference is exact there
_ENTRY = st.one_of(st.just(F(0)), st.just(F(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
_INT_ENTRY = st.one_of(st.just(F(0)), st.just(F(0)), st.integers(-3, 3).map(F))


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _terms(draw, entry):
    """Dense operands of a weighted sum of products, None for the unit (the
    coefficient 1 or the identity); with a cancelling copy of the first term
    now and then."""
    n = draw(st.integers(1, 4))
    operand = st.one_of(st.none(), _square(n, entry))
    term = st.tuples(st.one_of(st.none(), entry), operand, operand).filter(
        lambda t: t != (None, None, None))
    terms = draw(st.lists(term, min_size=1, max_size=4))
    if draw(st.booleans()):
        c, a, b = terms[0]
        terms.append((-1 if c is None else -c, a, b))
    return n, terms, draw(st.integers(0, n))


def _dense(m):
    return [m[i] for i in range(m.dim)]


def _assert_dense(m, ref):
    assert _dense(m) == ref
    # only nonzero entries are stored, in increasing column order
    assert all(list(row) == sorted(row) and all(row.values()) for row in m.rows)


@pytest.mark.parametrize("mode", ["exact", "float", "complex"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_weighted_products_match_dense_sums(mode, data):
    qb = QBase(F(1, 2), mode)
    n, terms, rows = data.draw(_terms(_ENTRY if mode == "exact" else _INT_ENTRY))
    eye = reference.eye(n)
    ref = reference.lin(*[(1 if c is None else c, reference.matmul(a or eye, b or eye))
                          for c, a, b in terms])

    def backend(m):
        return None if m is None else OpMatrix._sparse(
            [{j: qb.scalar(x) for j, x in enumerate(r) if x} for r in m], qb.zero())

    ops = [(c if c is None else qb.scalar(c), backend(a), backend(b)) for c, a, b in terms]
    tuples = list(weighted_products(ops, rows))
    assert len(tuples) == rows
    for acc, want in zip(tuples, ref):
        assert [sum(map(_product, acc[j])) if j in acc else 0 for j in range(n)] == want
    m = combine(ops, n, qb.zero())
    _assert_dense(m, ref)
    zero = qb.zero()
    assert m.zero is zero
    assert all(type(x) is type(zero) for row in m.rows for x in row.values())


def _product(factors):
    out = 1
    for f in factors:
        out = out * f
    return out


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _square(n, _ENTRY), st.integers(1, 3).flatmap(lambda m: _square(m, _ENTRY)),
    st.lists(_ENTRY, min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_kron_and_apply_match_dense_reference(ops):
    a, c, vec = ops
    n, m = len(a), len(c)
    A, C = OpMatrix(a), OpMatrix(c)
    _assert_dense(A, a)
    _assert_dense(A.kron(C), [
        [a[i][k] * c[j][l] for k in range(n) for l in range(m)]
        for i in range(n) for j in range(m)
    ])
    assert A.apply(vec) == [sum(x * v for x, v in zip(r, vec)) for r in a]


@pytest.mark.parametrize("mode", ["exact", "float", "complex"])
def test_empty_rows_give_backend_zero(mode):
    qb = QBase(F(1, 2), mode)
    zero = qb.zero()
    # E maps nothing into row 0, and E F - E F cancels everywhere
    K, Ki, E, Fm = gens(RepSpec.su2(2, qb))
    cancelled = combine(((1, E, Fm), (-1, E, Fm)), 3, zero)
    assert cancelled.rows == [{}, {}, {}]
    for op in (E, cancelled):
        out = op.apply([qb.one()] * 3)
        assert out[0] == zero and type(out[0]) is type(zero)
        assert op[0][0] == zero and type(op[0][0]) is type(zero)


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
                assert res == 0, name
        for k in (1, 2):
            rs = RepSpec.su11(k, 10, qb)
            for name, res in relation_residuals(rs, rs.interior(1)).items():
                assert res == 0, name
            # the boundary row genuinely leaks for the EF relation
            assert relation_residuals(rs)["EF - FE - (K2-Kinv2)/(q-1/q)"] != 0


def test_star_structure():
    # weighted-inner-product adjointness of K* = K, E* = F, F* = E (compact
    # form) and of K* = K, E* = -F, F* = -E (non-compact form), summed
    for N in (0, 2, 3):
        assert star_residual(RepSpec.su2(N, QB)) == 0
    assert star_residual(RepSpec.su11(2, 8, QB)) == 0


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
    g = reference.gens(QB.p, k=1, trunc=2)
    assert _dense(twist_y(rs11, 0, 0, tilde=True)) == reference.twisted(QB.p, g, 0, 0, True, False)


def test_twist_rewrite_su2():
    for p in (F(1, 2), F(2, 3)):
        qb = QBase(p)
        for N in range(5):
            rs = RepSpec.su2(N, qb)
            for (u, v, s, t) in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2),
                                 (2, 2, 1, 0), (F(1, 2), 1, F(3, 2), 0)):
                assert twist_rewrite_residual(rs, u, v, s, t) == 0


def test_twist_rewrite_su11_interior():
    rs = RepSpec.su11(2, 10, QB)
    for (u, v, s, t) in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 2)):
        assert twist_rewrite_residual(rs, u, v, s, t, rs.interior(2)) == 0


def test_gevp_rewrite():
    # K**-2 times the plain element equals the tilde element at twist 1
    for N in (0, 2, 4):
        assert gevp_rewrite_residual(RepSpec.su2(N, QB), 2) == 0
    rs = RepSpec.su11(1, 8, QB)
    assert gevp_rewrite_residual(rs, F(3, 2)) == 0


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
    d = 1 / (q - 1 / q)
    for terms in (((1, DK, DE), (-q, DE, DK)), ((1, DK, DF), (-(1 / q), DF, DK)),
                  ((1, DE, DF), (-1, DF, DE), (-d, DK, DK), (d, DKi, DKi))):
        assert combine(terms, DK.dim, QB.zero()).rows == [{}] * DK.dim


def test_coproduct_coideal_route_agrees():
    # hom-route tilde coproduct == the model's coideal nesting; for the
    # non-compact element the local piece subtracts the (nonvanishing)
    # brace constant
    for kind, builder in (("x", "xtilde"), ("y", "ytilde")):
        if kind == "x":
            sites, model = [RepSpec.su2(2, QB), RepSpec.su2(1, QB)], [dict(N=2), dict(N=1)]
        else:
            sites = [RepSpec.su11(1, 4, QB), RepSpec.su11(2, 4, QB)]
            model = [dict(k=1, trunc=4), dict(k=2, trunc=4)]
        hom = coproduct_op(sites, builder, "L", 2, u=1, s=2)
        coideal = reference.coideal_tilde(QB.p, [reference.gens(QB.p, **m) for m in model], 1, 2,
                                          kind == "x")
        assert _dense(hom) == coideal


def test_coproduct_coassociativity_three_sites():
    # building the 3-site image by nesting left or by the closed-form sum
    sites = [RepSpec.su2(1, QB)] * 3
    hom = coproduct_op(sites, "xtilde", "L", 3, u=0, s=1)
    coideal = reference.coideal_tilde(QB.p, [reference.gens(QB.p, N=1)] * 3, 0, 1, True)
    assert _dense(hom) == coideal


@pytest.mark.parametrize("model", [
    [dict(N=1), dict(N=2)], [dict(N=1)] * 3, [dict(k=1, trunc=2), dict(k=2, trunc=3)]],
    ids=["su2-2", "su2-3", "su11-2"])
def test_coproduct_images_are_the_model_images(model):
    # every named element on the left or right j sites: the model's
    # coproduct of its dense generators, padded by identities
    sites = [RepSpec.su2(m["N"], QB) if "N" in m else RepSpec.su11(m["k"], m["trunc"], QB)
             for m in model]
    site_gens = [reference.gens(QB.p, **m) for m in model]
    elements = ("k2", "x", "xtilde") if "N" in model[0] else ("k2", "y", "ytilde")
    for element in elements:
        for side in ("L", "R"):
            for j in range(1, len(sites) + 1):
                got = coproduct_op(sites, element, side, j, u=1, s=F(1, 2))
                want = reference.chain_element(QB.p, site_gens, element, side, j, 1, F(1, 2))
                assert _dense(got) == want, (element, side, j)


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
    # a roundoff bound, not a verdict: the entries of the adjointness
    # residual w(n) A[n,m] - w(m) conj(A[m,n]), each relative to its terms
    w = rs.weights()
    worst = 0.0
    for n in range(rs.dim):
        for m in range(rs.dim):
            res = w[n] * A[n][m] - w[m] * A[m][n].conjugate()
            scale = 1.0 + abs(w[n] * A[n][m]) + abs(w[m] * A[m][n])
            worst = max(worst, abs(res) / scale)
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


# ---------------------------------------------------------------------------
# the identity residuals against dense references
# ---------------------------------------------------------------------------


def _pair(check, point, doubled=None):
    """(function, model residual) of one identity check at a suite point,
    whose generators are the model's; the model then doubles the entry
    ``doubled`` = (g, i, j) of its own."""
    p, rs = point["p"], _rep(point)
    g = reference.gens(p, **{name: point[name] for name in ("N", "k", "trunc") if name in point})
    assert [_dense(m) for m in gens(rs)] == list(g)
    if doubled is not None:
        which, i, j = doubled
        g[which][i][j] *= 2
    compact = rs.kind == "su2"
    if check == "relations":
        rows = rs.interior(1)
        return relation_residuals(rs, rows), reference.relation_residuals(p, g, rows)
    if check == "star":
        w = [reference.kraw_w(p, rs.N, n) if compact else reference.asc_w(p, rs.k, n)
             for n in range(rs.dim)]
        return star_residual(rs), reference.star_residual(g, w, compact)
    rows = rs.interior(2)
    if check == "twist_rewrite":
        uvst = u, v, s, t = [point[name] for name in ("u", "v", "s", "t")]
        twist = twist_x if compact else twist_y
        assert _dense(twist(rs, u, s)) == reference.twisted(p, g, u, s, False, compact)
        assert _dense(twist(rs, v, t, True)) == reference.twisted(p, g, v, t, True, compact)
        return (twist_rewrite_residual(rs, *uvst, rows),
                reference.twist_rewrite_residual(p, g, *uvst, compact, rows))
    return (gevp_rewrite_residual(rs, point["s"], rows),
            reference.gevp_rewrite_residual(p, g, point["s"], compact, rows))


def _rep(point):
    qb = QBase(point["p"])
    if "N" in point:
        return RepSpec.su2(point["N"], qb)
    return RepSpec.su11(point["k"], point["trunc"], qb)


@pytest.mark.parametrize("suite", ["relations", "star", "lemma3.1", "cor4.1"])
def test_identity_residuals_match_dense_references_at_the_suite_points(suite):
    tasks = build_tasks(suite, RunConfig())
    assert tasks
    for task in tasks:
        got, want = _pair(task.fn, task.params)
        assert got == want, task.check
        assert not any(got.values()) if isinstance(got, dict) else got == 0


@pytest.fixture
def doubled_entry(monkeypatch):
    """The generators with one entry doubled: E[2][1] (index 2) or K[2][2]
    (index 0), for the residual functions; the model doubles the same
    entry of its own generators.  gens is wrapped, not written to, and the
    twisted elements are built around their table, so no shared table
    holds the mutant."""
    real_gens = gens
    which = {}

    def mutant_gens(rs):
        out = list(real_gens(rs))
        g, i, j = which["entry"]
        rows = [dict(row) for row in out[g].rows]
        rows[i][j] = 2 * rows[i][j]
        out[g] = OpMatrix._sparse(rows, out[g].zero)
        return tuple(out)

    monkeypatch.setattr(uqsl2, "gens", mutant_gens)
    monkeypatch.setattr(uqsl2, "_twisted", uqsl2._twisted.__wrapped__)
    return which


# E[2][1] breaks the EF relation and E* = F; the rewrites are linear in E and
# F with K-commutation coefficients, so they see a doubled K[2][2]
@pytest.mark.parametrize("check, point, entry", [
    (check, point, entry)
    for check, entry in (("relations", (2, 2, 1)), ("star", (2, 2, 1)),
                         ("twist_rewrite", (0, 2, 2)), ("gevp_rewrite", (0, 2, 2)))
    for point in (dict(p=F(1, 2), N=3, u=1, v=0, s=2, t=1),
                  dict(p=F(2, 3), k=1, trunc=6, u=0, v=1, s=1, t=2))
])
def test_identity_residuals_see_a_doubled_generator_entry(doubled_entry, check, point, entry):
    doubled_entry["entry"] = entry
    got, want = _pair(check, point, entry)
    assert got == want
    assert any(got.values()) if isinstance(got, dict) else got > 0
