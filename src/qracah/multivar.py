"""Nested multivariate functions, shift-set combinatorics and transfer checks.

The multivariate objects thread the univariate families along a chain of M
sites through a running height parameter: site j uses the height after the
first j-1 sites as its base-point parameter.  Transfer identities move a
diagonal action on the last j sites to a weighted sum over shift vectors
eps whose prefix sums stay in {-1, 0, 1}; the accumulated prefix sum before
a site selects which coefficient table (static or parameter-shifted) that
site contributes.

All su2-side checks are exact; the su11 side runs on truncated tensor
spaces with interior-row exactness and certified truncation of the
infinite sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import List, Optional, Sequence, Tuple

from .errors import InternalError, InvalidEpsilon, OutOfRange
from . import orthopoly, uqsl2
from .orthopoly import ASCParams, KrawParams, TailBound
from .ratfun import PrParams, RrParams, biorth_overlap, pr_inner, rr_inner
from .scalar import QBase, as_exponent


# ---------------------------------------------------------------------------
# heights and nested products
# ---------------------------------------------------------------------------


def heights(base, ys: Sequence[int], sizes: Sequence, su11: bool = False) -> list:
    """The running heights [h_0, ..., h_M]: h_0 is the base parameter and
    h_j = h_{j-1} + 2*y_j - N_j (finite chain) or + 2*y_j + k_j (infinite)."""
    if len(ys) != len(sizes):
        raise OutOfRange(f"{len(ys)} indices vs {len(sizes)} sites")
    # exact heights are returned (and printed) as Fractions
    h = [Fraction(base) if isinstance(base, (int, Fraction)) else base]
    for y, size in zip(ys, sizes):
        step = 2 * y + as_exponent(size) if su11 else 2 * y - as_exponent(size)
        h.append(h[-1] + step)
    return h


def height(base, ys: Sequence[int], sizes: Sequence, j: int, su11: bool = False):
    """h_j alone; j ranges over 0..M."""
    if not 0 <= j <= len(sizes):
        raise OutOfRange(f"j = {j} outside 0..{len(sizes)}")
    return heights(base, ys[:j], sizes[:j], su11)[j]


def _nested(qb: QBase, v, t, sizes: Sequence, ys: Sequence[int], ns: Sequence[int],
            su11: bool, tb: TailBound = TailBound()):
    """Product over sites of the finite family (the infinite one with su11)
    at (n_j, y_j), with the height after the previous sites as base point."""
    h = heights(t, ys, sizes, su11)
    out = qb.one()
    for j, size in enumerate(sizes):
        if su11:
            out *= orthopoly.asc(ASCParams(v, h[j], size, qb, tb), ns[j], ys[j])
        else:
            out *= orthopoly.kraw(KrawParams(v, h[j], size, qb), ns[j], ys[j])
    return out


def nested_kraw(qb: QBase, v, t, Ns: Sequence[int], ys: Sequence[int], ns: Sequence[int]):
    """Product over sites of the finite family with running heights."""
    return _nested(qb, v, t, Ns, ys, ns, False)


def nested_asc(qb: QBase, v, t, ks: Sequence, ys: Sequence[int], ns: Sequence[int],
               tb: TailBound = TailBound()):
    """Product over sites of the infinite family with running heights."""
    return _nested(qb, v, t, ks, ys, ns, True, tb)


def _chain(qb: QBase, sizes: Sequence, su11: bool, trunc: Optional[int]):
    """The site representations and the row-major index grid of a chain:
    finite sites span 0..N, infinite ones the truncated window 0..trunc."""
    if su11:
        sites = [uqsl2.RepSpec.su11(k, trunc, qb) for k in sizes]
        return sites, list(iproduct(*[range(trunc + 1) for _ in sizes]))
    sites = [uqsl2.RepSpec.su2(N, qb) for N in sizes]
    return sites, list(iproduct(*[range(N + 1) for N in sizes]))


def _interior(ns: Sequence[int], su11: bool, trunc: Optional[int]) -> bool:
    # a truncated window's last rows are fed from outside it
    return not su11 or all(n < trunc for n in ns)


# ---------------------------------------------------------------------------
# shift vectors
# ---------------------------------------------------------------------------


def epsilon_set(M: int, j: int) -> List[Tuple[int, ...]]:
    """All shift vectors in {0,+-1,+-2}**M that vanish on the first M-j
    entries and whose prefix sums stay in {-1, 0, 1}, in lexicographic
    order.  There are exactly 3**j of them."""
    if not 1 <= j <= M:
        raise OutOfRange(f"j = {j} outside 1..{M}")
    out: List[Tuple[int, ...]] = []

    def rec(prefix: list, sigma: int):
        i = len(prefix)
        if i == M:
            out.append(tuple(prefix))
            return
        if i < M - j:
            rec(prefix + [0], sigma)
            return
        for e in (-2, -1, 0, 1, 2):
            if -1 <= sigma + e <= 1:
                rec(prefix + [e], sigma + e)

    rec([], 0)
    return out


def validate_epsilon(M: int, j: int, eps: Sequence[int]) -> None:
    """Raise InvalidEpsilon unless eps satisfies the prefix-sum constraint."""
    if len(eps) != M:
        raise InvalidEpsilon(f"length {len(eps)} != {M}")
    sigma = 0
    for i, e in enumerate(eps):
        if i < M - j and e != 0:
            raise InvalidEpsilon(f"entry {i} must vanish for j = {j}")
        sigma += e
        if not -1 <= sigma <= 1:
            raise InvalidEpsilon(f"prefix sum {sigma} at entry {i} outside -1..1")


# ---------------------------------------------------------------------------
# transfer-coefficient products
# ---------------------------------------------------------------------------


def _coeff_product(shift_coeff, j, eps, ys, t, sizes, qb, su11):
    M = len(sizes)
    validate_epsilon(M, j, eps)
    h = heights(t, ys, sizes, su11)
    out = qb.one()
    sigma = 0
    for i in range(M - j, M):
        out *= shift_coeff(qb, sizes[i], ys[i], h[i], eps[i], 2 * sigma)
        if out == 0:
            return qb.zero()
        sigma += eps[i]
    return out


def coeff_A(qb: QBase, j: int, eps: Sequence[int], ys: Sequence[int], t,
            Ns: Sequence[int]):
    """Product over the last j sites of finite-family shift coefficients;
    site i uses the shift table selected by twice the prefix sum of eps
    before i, evaluated at the unshifted height."""
    return _coeff_product(orthopoly.kraw_shift_coeff,
                          j, tuple(eps), tuple(ys), t, tuple(Ns), qb, False)


def coeff_B(qb: QBase, j: int, eps: Sequence[int], ys: Sequence[int], t, v,
            Ns: Sequence[int]):
    """The twisted-action companion of coeff_A, by cases on sum(eps):
    -1 and +1 attach [h_M +- (v - 1)]-type brackets, the zero vector
    subtracts the height-bracket term."""
    return _twisted_coeff(qb, j, eps, ys, t, v, Ns, False)


def coeff_C(qb: QBase, j: int, eps: Sequence[int], ys: Sequence[int], t,
            ks: Sequence):
    """Infinite-family analogue of coeff_A with heights running upward."""
    return _coeff_product(orthopoly.asc_shift_coeff,
                          j, tuple(eps), tuple(ys), t, tuple(ks), qb, True)


def coeff_D(qb: QBase, j: int, eps: Sequence[int], ys: Sequence[int], t, v,
            ks: Sequence):
    """Infinite-family analogue of coeff_B with brace symbols throughout."""
    return _twisted_coeff(qb, j, eps, ys, t, v, ks, True)


def _twisted_coeff(qb, j, eps, ys, t, v, sizes, su11):
    M = len(sizes)
    A = (coeff_C if su11 else coeff_A)(qb, j, eps, ys, t, sizes)
    h = heights(t, ys, sizes, su11)
    sym = qb.brace if su11 else qb.bracket
    v_ = as_exponent(v)
    S = sum(eps)
    if S == -1:
        return A * sym(h[M] + v_ - 1)
    if S == 1:
        return A * sym(h[M] - v_ + 1)
    if all(e == 0 for e in eps):
        return A * sym(h[M]) * qb.brace(v_) - sym(h[M - j]) * qb.brace(v_)
    return A * sym(h[M]) * qb.brace(v_)


# ---------------------------------------------------------------------------
# transfer checks (operator route vs coefficient route)
# ---------------------------------------------------------------------------


def _shifted_terms(qb, j, ys, t, v, sizes, su11, twisted):
    """Map ys+eps -> accumulated coefficient (coeff_B/coeff_D if twisted,
    else coeff_A/coeff_C), skipping out-of-range shifts after asserting
    their coefficient vanishes exactly."""
    M = len(sizes)
    terms = {}
    for eps in epsilon_set(M, j):
        if twisted:
            c = (coeff_D if su11 else coeff_B)(qb, j, eps, ys, t, v, sizes)
        else:
            c = (coeff_C if su11 else coeff_A)(qb, j, eps, ys, t, sizes)
        shifted = tuple(y + e for y, e in zip(ys, eps))
        in_range = all(
            0 <= yy and (su11 or yy <= sizes[i]) for i, yy in enumerate(shifted)
        )
        if not in_range:
            if c != 0:
                raise InternalError(
                    f"nonzero coefficient {c} at out-of-range shift {eps} from {ys}"
                )
            continue
        if c == 0:
            continue
        terms[shifted] = terms.get(shifted, qb.zero()) + c
    return terms


def transfer_check_k2(qb: QBase, j: int, ys: Sequence[int], t, v,
                      Ns: Sequence[int]):
    """Total absolute residual over the full index grid of the diagonal-symbol
    transfer: the tensor operator (built from the representation module)
    applied to the nested vector, versus the coeff_A-weighted sum of
    shifted nested vectors.  Exact zero."""
    return _transfer_residual(qb, j, ys, t, v, None, Ns, False, None)


def transfer_check_x(qb: QBase, j: int, ys: Sequence[int], t, v, sigma,
                     Ns: Sequence[int]):
    """Total absolute residual of the twisted-element transfer: the right-aligned
    coproduct of the compact twisted element at parameter sigma, versus
    [sigma]_q times the vector plus the coeff_B-weighted shifted sum."""
    return _transfer_residual(qb, j, ys, t, v, sigma, Ns, False, None)


def transfer_check_k2_asc(qb: QBase, j: int, ys: Sequence[int], t, v,
                          ks: Sequence, trunc: int,
                          tb: TailBound = TailBound()):
    """Interior total absolute residual of the diagonal-symbol transfer on a
    truncated tensor space for the infinite family."""
    return _transfer_residual(qb, j, ys, t, v, None, ks, True, trunc, tb)


def transfer_check_y(qb: QBase, j: int, ys: Sequence[int], t, v, sigma,
                     ks: Sequence, trunc: int,
                     tb: TailBound = TailBound()):
    """Interior total absolute residual of the non-compact twisted-element
    transfer, with {sigma}_q on the diagonal and coeff_D weights."""
    return _transfer_residual(qb, j, ys, t, v, sigma, ks, True, trunc, tb)


def _transfer_residual(qb, j, ys, t, v, sigma, sizes, su11, trunc, tb=TailBound()):
    """The diagonal-symbol transfer (sigma None) or the twisted-element one,
    summed over every row of a finite chain and the interior rows of a
    truncated one."""
    ys, sizes = tuple(ys), tuple(sizes)
    sites, grid = _chain(qb, sizes, su11, trunc)
    if sigma is None:
        op, lam = uqsl2.coproduct_op(sites, "k2", "R", j), None
    else:
        op = uqsl2.coproduct_op(sites, "y" if su11 else "x", "R", j, u=0, s=sigma)
        lam = (qb.brace if su11 else qb.bracket)(as_exponent(sigma))
    vec = [_nested(qb, v, t, sizes, ys, ns, su11, tb) for ns in grid]
    out = op.apply(vec)
    terms = _shifted_terms(qb, j, ys, t, v, sizes, su11, twisted=sigma is not None)
    shifted_vecs = {
        ysf: [_nested(qb, v, t, sizes, ysf, ns, su11, tb) for ns in grid]
        for ysf in terms
    }
    acc = qb.zero()
    for ii, ns in enumerate(grid):
        if not _interior(ns, su11, trunc):
            continue
        rhs = sum((c * shifted_vecs[ysf][ii] for ysf, c in terms.items()), qb.zero())
        if lam is not None:
            rhs += lam * vec[ii]
        acc += abs(out[ii] - rhs)
    return acc


# ---------------------------------------------------------------------------
# multivariate rational functions
# ---------------------------------------------------------------------------


def rr_multi(qb: QBase, s, t, v, Ns: Sequence[int], xs: Sequence[int],
             ys: Sequence[int]):
    """Nested product of univariate rational functions: factor j pairs
    (x_j, y_j) with both height chains as its base-point parameters."""
    hx = heights(s, xs, Ns)
    hy = heights(t, ys, Ns)
    out = qb.one()
    for j, N in enumerate(Ns):
        out *= rr_inner(RrParams(hx[j], hy[j], v, N, qb), xs[j], ys[j])
    return out


def rr_multi_inner(qb: QBase, s, t, v, Ns: Sequence[int], xs: Sequence[int],
                   ys: Sequence[int]):
    """The same pairing evaluated as a full tensor inner product (the
    independent route: sum over the whole index grid)."""
    out = qb.zero()
    for ns in iproduct(*[range(N + 1) for N in Ns]):
        w = qb.one()
        for j, N in enumerate(Ns):
            w *= orthopoly.kraw_w(qb, N, ns[j])
        out += nested_kraw(qb, 1, s, Ns, xs, ns) * nested_kraw(qb, v, t, Ns, ys, ns) * w
    return out


def pr_multi(qb: QBase, s, t, v, ks: Sequence, xs: Sequence[int],
             ys: Sequence[int], tb: TailBound = TailBound()):
    """Nested product of infinite-family rational functions."""
    hx = heights(s, xs, ks, su11=True)
    hy = heights(t, ys, ks, su11=True)
    out = qb.one()
    for j, k in enumerate(ks):
        out *= pr_inner(PrParams(hx[j], hy[j], v, k, qb, tb), xs[j], ys[j])
    return out


def pr_multi_inner(qb: QBase, s, t, v, ks: Sequence, xs: Sequence[int],
                   ys: Sequence[int], trunc: int, tb: TailBound = TailBound()):
    """Tensor inner product route for the infinite family, truncating every
    site index at ``trunc``."""
    out = qb.zero()
    for ns in iproduct(*[range(trunc + 1) for _ in ks]):
        w = qb.one()
        for j, k in enumerate(ks):
            w *= orthopoly.asc_w(qb, k, ns[j])
        out += nested_asc(qb, 1, s, ks, xs, ns, tb) * nested_asc(qb, v, t, ks, ys, ns, tb) * w
    return out


def kraw_W_multi(qb: QBase, s, Ns: Sequence[int], xs: Sequence[int]):
    """Nested x-side weight: product of univariate weights at running heights."""
    h = heights(s, xs, Ns)
    out = qb.one()
    for j, N in enumerate(Ns):
        out *= orthopoly.kraw_W(qb, h[j], N, xs[j])
    return out


def asc_W_multi(qb: QBase, s, ks: Sequence, xs: Sequence[int],
                tb: TailBound = TailBound()):
    """Nested x-side weight for the infinite family."""
    h = heights(s, xs, ks, su11=True)
    out = qb.one()
    for j, k in enumerate(ks):
        out *= orthopoly.asc_W(qb, h[j], k, xs[j], tb)
    return out


def multi_biorth_residual(qb: QBase, s, t, v, Ns: Sequence[int],
                          relation: str, idx: Sequence[int], idx2: Sequence[int]):
    """Residual of the multivariate biorthogonality over the full grid;
    partner family at -conj(v) - 2.  Exact zero for the finite chain."""
    vpart = -qb.conj(as_exponent(v)) - 2
    idx, idx2 = tuple(idx), tuple(idx2)
    outer, diag, overlap = biorth_overlap(
        qb, relation, s, t, idx, idx2,
        lambda xs, ys: rr_multi(qb, s, t, v, Ns, xs, ys),
        lambda xs, ys: rr_multi(qb, s, t, vpart, Ns, xs, ys))
    acc = qb.zero()
    for us in iproduct(*[range(N + 1) for N in Ns]):
        left, right = overlap(us)
        acc += left * right * kraw_W_multi(qb, outer, Ns, us)
    if idx == idx2:
        acc -= 1 / kraw_W_multi(qb, diag, Ns, idx)
    return acc


def multi_biorth_residual_asc(qb: QBase, s, t, v, ks: Sequence,
                              idx: Sequence[int], idx2: Sequence[int],
                              tb: TailBound = TailBound()):
    """Residual of the infinite multivariate biorthogonality (sum over the
    x-grid).  The grid is summed in shells of constant max-coordinate; the
    shell totals decay super-geometrically (the weight's q**(2x**2) beats
    the polynomial growth of the rational factors), so the shell sequence is
    truncated under the tail certificate."""
    from .qseries import certified_sum

    M = len(ks)
    vpart = -qb.conj(as_exponent(v)) - 2
    idx, idx2 = tuple(idx), tuple(idx2)

    def integrand(xs):
        # group the three factors site by site: the per-site products stay
        # of the order of the final term, while the full rational-function
        # products alone can overflow the float range
        hx = heights(s, xs, ks, su11=True)
        hy = heights(t, idx, ks, su11=True)
        hy2 = heights(t, idx2, ks, su11=True)
        out = qb.one()
        for j, k in enumerate(ks):
            left = pr_inner(PrParams(hx[j], hy[j], v, k, qb, tb), xs[j], idx[j])
            right = pr_inner(PrParams(hx[j], hy2[j], vpart, k, qb, tb), xs[j], idx2[j])
            w = orthopoly.asc_W(qb, height(s, xs, ks, j, su11=True), k, xs[j], tb)
            out *= left * w * qb.conj(right)
        return out

    def shells():
        m = 0
        while True:
            total = qb.zero()
            for xs in iproduct(*[range(m + 1)] * M):
                if max(xs) == m:
                    total += integrand(xs)
            yield total
            m += 1

    acc = certified_sum(shells(), tb, min_terms=3)
    if idx == idx2:
        acc -= 1 / asc_W_multi(qb, t, ks, idx, tb)
    return acc


def multi_gevp_residual(qb: QBase, j: int, xs: Sequence[int], ys: Sequence[int],
                        s, t, v, Ns: Sequence[int]):
    """Residual of the multivariate generalized-eigenvalue identity:

    [h_M(xs,s)]_q sum_eps A R(xs, ys+eps)
      - [h_{M-j}(xs,s)]_q R(xs, ys) - sum_eps B R(xs, ys+eps);
    exact zero for the finite chain."""
    return _multi_gevp(qb, j, xs, ys, s, t, v, Ns, False)


def multi_gevp_residual_asc(qb: QBase, j: int, xs: Sequence[int], ys: Sequence[int],
                            s, t, v, ks: Sequence,
                            tb: TailBound = TailBound()):
    """Infinite-family analogue with brace symbols and C/D coefficients;
    certified float contract."""
    return _multi_gevp(qb, j, xs, ys, s, t, v, ks, True, tb)


def _multi_gevp(qb, j, xs, ys, s, t, v, sizes, su11, tb=TailBound()):
    M = len(sizes)
    ys, sizes = tuple(ys), tuple(sizes)
    hx = heights(s, xs, sizes, su11)
    termsA = _shifted_terms(qb, j, ys, t, v, sizes, su11, twisted=False)
    termsB = _shifted_terms(qb, j, ys, t, v, sizes, su11, twisted=True)
    vals = {
        ysf: (pr_multi(qb, s, t, v, sizes, xs, ysf, tb) if su11
              else rr_multi(qb, s, t, v, sizes, xs, ysf))
        for ysf in set(termsA) | set(termsB) | {ys}
    }
    sym = qb.brace if su11 else qb.bracket
    lhs = sym(hx[M]) * sum((c * vals[ysf] for ysf, c in termsA.items()), qb.zero())
    rhs = sym(hx[M - j]) * vals[ys]
    rhs += sum((c * vals[ysf] for ysf, c in termsB.items()), qb.zero())
    return lhs - rhs


# ---------------------------------------------------------------------------
# coproduct eigen-identities for nested vectors
# ---------------------------------------------------------------------------


def nested_eigen_residual(qb: QBase, side: str, j: int, v, base_param,
                          sizes: Sequence, ys: Sequence[int],
                          su11: bool = False, trunc: Optional[int] = None,
                          tb: TailBound = TailBound()):
    """Total absolute residual of the coproduct eigen-identities on nested vectors.

    side="L": the left-aligned coproduct of the tilde element at the
    vector's own parameters has eigenvalue [h_j]_q (brace for the infinite
    chain).  side="R": the right-aligned coproduct at the complementary
    height h_{M-j} has eigenvalue [h_M]_q; this is the identity that feeds
    the multivariate generalized eigenvalue problem (the left-aligned route
    breaks the nesting).
    """
    M = len(sizes)
    if su11 and trunc is None:
        raise OutOfRange("su11 nested eigencheck needs a truncation")
    sites, grid = _chain(qb, sizes, su11, trunc)
    h = heights(base_param, ys, sizes, su11)
    vec = [_nested(qb, v, base_param, sizes, ys, ns, su11, tb) for ns in grid]
    element = "ytilde" if su11 else "xtilde"
    symbol = qb.brace if su11 else qb.bracket
    if side == "L":
        op = uqsl2.coproduct_op(sites, element, "L", j, u=v, s=base_param)
        lam = symbol(h[j])
    elif side == "R":
        op = uqsl2.coproduct_op(sites, element, "R", j, u=v, s=h[M - j])
        lam = symbol(h[M])
    else:
        raise OutOfRange(f"side must be 'L' or 'R', got {side!r}")
    out = op.apply(vec)
    acc = qb.zero()
    for ii, ns in enumerate(grid):
        if _interior(ns, su11, trunc):
            acc += abs(out[ii] - lam * vec[ii])
    return acc
