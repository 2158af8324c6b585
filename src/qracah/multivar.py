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
infinite sums.  Every site factor is a terminating series, so the nested
products and the transfer and eigen residuals built from them take no
``TailBound``; one reaches only the functions that sum or multiply an
infinite series (``pr_multi``, ``asc_W_multi`` and the infinite chain's
generalized-eigenvalue and biorthogonality residuals).

Three chain tables (``tables.tabled``) hold what a chain point determines,
so the transfer, eigen and generalized-eigenvalue residuals build it once
per process rather than once per xs, per sigma or per side:

- ``_shift_terms(qb, j, ys, t, v, sizes, su11)``: the A/C and B/D
  shift-term maps ys+eps -> coefficient, from one pass over the shift set;
- ``_nested_vec(qb, v, t, sizes, ys, su11, trunc)``: the nested
  products over the chain's index grid in grid order, each read from the
  M site columns fetched once, held as integer numerators over their lcm
  D (``scalar.scaled``);
- ``_chain_op(qb, sizes, su11, trunc, element, side, j, u, s)``: the
  coproduct image ``uqsl2.coproduct_op`` of a named element, held as
  integer rows over one denominator E (``scalar.scaled_rows``).

A hit returns the first call's object, so the tuples and dicts they hand
out are shared: immutable by convention.  The transfer and eigen residuals
hand these integer forms to ``scalar.scaled_residual``: each check folds
its coefficients into one denominator, every row is an integer dot
product, and the check builds one Fraction.  The chain tables hold exact
scalars only: a floating base raises ExactnessError.

The multivariate rational functions and the finite x-side weight are pack
tables (``tables.packed``): ``_rr_pack(qb, s, t, v, Ns)`` and
``_pr_pack(qb, s, t, v, ks, tb)`` hold the products of univariate factors
by (xs, ys), and ``_kraw_W_pack(qb, s, Ns)`` the weights by xs.  The
biorthogonality and generalized-eigenvalue residuals fetch each pack once
per check and read it by point, with no key built per (xs, ys); a residual
that meets the same (xs, ys + eps) again, at another j or another shift,
reuses the product.  :func:`rr_multi`, :func:`pr_multi` and
:func:`kraw_W_multi` turn their sequences into tuples and read the same
entries.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import List, Optional, Sequence, Tuple

from .errors import InternalError, OutOfRange
from . import orthopoly, uqsl2
from .orthopoly import ASCParams, KrawParams, TailBound
from .ratfun import PrParams, RrParams, biorth_overlap, pr_inner, rr_inner
from .scalar import QBase, as_exponent, ordered_sum, scaled, scaled_residual, scaled_rows
from .tables import packed, tabled


# ---------------------------------------------------------------------------
# heights and nested products
# ---------------------------------------------------------------------------


def heights(base, ys: Sequence[int], sizes: Sequence, su11: bool = False) -> list:
    """The running heights [h_0, ..., h_M]: h_0 is the base parameter and
    h_j = h_{j-1} + 2*y_j - N_j (finite chain) or + 2*y_j + k_j (infinite)."""
    if len(ys) != len(sizes):
        raise OutOfRange(f"{len(ys)} indices vs {len(sizes)} sites")
    h = [as_exponent(base)]
    for y, size in zip(ys, sizes):
        step = 2 * y + as_exponent(size) if su11 else 2 * y - as_exponent(size)
        h.append(h[-1] + step)
    return h


def _site_columns(qb: QBase, v, t, sizes: Sequence, ys: Sequence[int], su11: bool) -> list:
    """The column over n of each site's family (the infinite one with su11)
    at y_j, with the height after the previous sites as base point."""
    h = heights(t, ys, sizes, su11)
    if su11:
        return [orthopoly.asc_column(ASCParams(v, h[j], size, qb), ys[j])
                for j, size in enumerate(sizes)]
    return [orthopoly.kraw_column(KrawParams(v, h[j], size, qb), ys[j])
            for j, size in enumerate(sizes)]


def _column_product(qb: QBase, columns: list, ns: Sequence[int]):
    """The nested product at ns: entry n_j of site j's column, in site order,
    from the first site's entry (one for an empty chain)."""
    out = columns[0][ns[0]] if columns else qb.one()
    for column, n in zip(columns[1:], ns[1:]):
        out *= column[n]
    return out


def _nested(qb: QBase, v, t, sizes: Sequence, ys: Sequence[int], ns: Sequence[int],
            su11: bool):
    """Product over sites of the finite family (the infinite one with su11)
    at (n_j, y_j), with the height after the previous sites as base point."""
    for n, size in zip(ns, sizes):
        if n < 0 or not su11 and n > size:
            raise OutOfRange(f"n = {n} must be nonnegative" if su11
                             else f"n = {n} outside 0..{size}")
    return _column_product(qb, _site_columns(qb, v, t, sizes, ys, su11), ns)


def nested_kraw(qb: QBase, v, t, Ns: Sequence[int], ys: Sequence[int], ns: Sequence[int]):
    """Product over sites of the finite family with running heights."""
    return _nested(qb, v, t, Ns, ys, ns, False)


def nested_asc(qb: QBase, v, t, ks: Sequence, ys: Sequence[int], ns: Sequence[int]):
    """Product over sites of the infinite family with running heights."""
    return _nested(qb, v, t, ks, ys, ns, True)


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


@tabled
def _nested_vec(qb: QBase, v, t, sizes: tuple, ys: tuple, su11: bool,
                trunc: Optional[int]) -> tuple:
    """The nested products at ys for every ns of the chain's index grid, in
    grid order, each read from the M site columns fetched once, as the
    ``scalar.scaled`` pair (D, numerators over D)."""
    _, grid = _chain(qb, sizes, su11, trunc)
    columns = _site_columns(qb, v, t, sizes, ys, su11)
    return scaled(_column_product(qb, columns, ns) for ns in grid)


@tabled
def _chain_op(qb: QBase, sizes: tuple, su11: bool, trunc: Optional[int], element: str,
              side: str, j: int, u, s) -> tuple:
    """The coproduct image of a named element on the chain's sites, its
    rows over one denominator (``scalar.scaled_rows``)."""
    sites, _ = _chain(qb, sizes, su11, trunc)
    return scaled_rows(uqsl2.coproduct_op(sites, element, side, j, u=u, s=s).rows)


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


# ---------------------------------------------------------------------------
# transfer-coefficient products
# ---------------------------------------------------------------------------


def _coeff_product(qb, j, eps, ys, h, sizes, su11):
    """The A (C with su11) coefficient product of eps over the last j sites,
    each site's shift table picked by twice eps's prefix sum before it."""
    shift_coeff = orthopoly.asc_shift_coeff if su11 else orthopoly.kraw_shift_coeff
    M = len(sizes)
    out = qb.one()
    sigma = 0
    for i in range(M - j, M):
        out *= shift_coeff(qb, sizes[i], ys[i], h[i], eps[i], 2 * sigma)
        if out == 0:
            return qb.zero()
        sigma += eps[i]
    return out


def _twist(qb, j, eps, A, h, v_, su11):
    """The B (D with su11) coefficient product of eps from its A (C) product
    A and the heights h, by cases on sum(eps)."""
    M = len(h) - 1
    sym = qb.brace if su11 else qb.bracket
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


@tabled
def _shift_terms(qb: QBase, j: int, ys: tuple, t, v, sizes: tuple, su11: bool):
    """The A/B (C/D with su11) coefficient products of a chain point as two
    maps ys+eps -> accumulated coefficient, from one pass over the shift set.
    An out-of-range shift is skipped after asserting its coefficient is 0."""
    h = heights(t, ys, sizes, su11)
    v_ = as_exponent(v)
    terms = ({}, {})
    for eps in epsilon_set(len(sizes), j):
        A = _coeff_product(qb, j, eps, ys, h, sizes, su11)
        shifted = tuple(y + e for y, e in zip(ys, eps))
        in_range = all(
            0 <= yy and (su11 or yy <= sizes[i]) for i, yy in enumerate(shifted)
        )
        for out, c in zip(terms, (A, _twist(qb, j, eps, A, h, v_, su11))):
            if not in_range:
                if c != 0:
                    raise InternalError(
                        f"nonzero coefficient {c} at out-of-range shift {eps} from {ys}"
                    )
            elif c != 0:
                out[shifted] = out.get(shifted, qb.zero()) + c
    return terms


def transfer_check_k2(qb: QBase, j: int, ys: Sequence[int], t, v,
                      Ns: Sequence[int]):
    """Total absolute residual over the full index grid of the diagonal-symbol
    transfer: the tensor operator (built from the representation module)
    applied to the nested vector, versus the shifted nested vectors weighted
    by the A coefficient products.  Exact zero."""
    return _transfer_residual(qb, j, ys, t, v, None, Ns, False, None)


def transfer_check_x(qb: QBase, j: int, ys: Sequence[int], t, v, sigma,
                     Ns: Sequence[int]):
    """Total absolute residual of the twisted-element transfer: the right-aligned
    coproduct of the compact twisted element at parameter sigma, versus
    [sigma]_q times the vector plus the B coefficient products' shifted sum."""
    return _transfer_residual(qb, j, ys, t, v, sigma, Ns, False, None)


def transfer_check_k2_asc(qb: QBase, j: int, ys: Sequence[int], t, v,
                          ks: Sequence, trunc: int):
    """Interior total absolute residual of the diagonal-symbol transfer, with
    the C coefficient products, on a truncated tensor space."""
    return _transfer_residual(qb, j, ys, t, v, None, ks, True, trunc)


def transfer_check_y(qb: QBase, j: int, ys: Sequence[int], t, v, sigma,
                     ks: Sequence, trunc: int):
    """Interior total absolute residual of the non-compact twisted-element
    transfer, with {sigma}_q on the diagonal and the D coefficient products."""
    return _transfer_residual(qb, j, ys, t, v, sigma, ks, True, trunc)


def _transfer_residual(qb, j, ys, t, v, sigma, sizes, su11, trunc):
    """The diagonal-symbol transfer (sigma None) or the twisted-element one,
    summed over every row of a finite chain and the interior rows of a
    truncated one."""
    ys, sizes = tuple(ys), tuple(sizes)
    rows = _interior_rows(qb, sizes, su11, trunc)
    if sigma is None:
        op, lam = _chain_op(qb, sizes, su11, trunc, "k2", "R", j, 0, 0), None
    else:
        op = _chain_op(qb, sizes, su11, trunc, "y" if su11 else "x", "R", j, 0, sigma)
        lam = (qb.brace if su11 else qb.bracket)(as_exponent(sigma))
    vec = _nested_vec(qb, v, t, sizes, ys, su11, trunc)
    termsA, termsB = _shift_terms(qb, j, ys, t, v, sizes, su11)
    terms = [(c, _nested_vec(qb, v, t, sizes, ysf, su11, trunc))
             for ysf, c in (termsA if sigma is None else termsB).items()]
    if lam is not None:
        terms.append((lam, vec))
    return scaled_residual(op, vec, terms, rows, qb.zero())


def _interior_rows(qb, sizes, su11, trunc) -> list:
    """The grid rows a residual sums: every row of a finite chain, the
    interior ones of a truncated window."""
    _, grid = _chain(qb, sizes, su11, trunc)
    return [ii for ii, ns in enumerate(grid) if _interior(ns, su11, trunc)]


# ---------------------------------------------------------------------------
# multivariate rational functions
# ---------------------------------------------------------------------------


def rr_multi(qb: QBase, s, t, v, Ns: Sequence[int], xs: Sequence[int],
             ys: Sequence[int]):
    """Nested product of univariate rational functions: factor j pairs
    (x_j, y_j) with both height chains as its base-point parameters."""
    return _rr_pack(qb, s, t, v, tuple(Ns))[tuple(xs), tuple(ys)]


@packed
def _rr_pack(qb, s, t, v, Ns, point):
    xs, ys = point
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
    rows = [orthopoly.kraw_w_column(qb, N) for N in Ns]
    for ns in iproduct(*[range(N + 1) for N in Ns]):
        w = qb.one()
        for row, n in zip(rows, ns):
            w *= row[n]
        out += nested_kraw(qb, 1, s, Ns, xs, ns) * nested_kraw(qb, v, t, Ns, ys, ns) * w
    return out


def pr_multi(qb: QBase, s, t, v, ks: Sequence, xs: Sequence[int],
             ys: Sequence[int], tb: TailBound = TailBound()):
    """Nested product of infinite-family rational functions."""
    return _pr_pack(qb, s, t, v, tuple(ks), tb)[tuple(xs), tuple(ys)]


@packed
def _pr_pack(qb, s, t, v, ks, tb, point):
    xs, ys = point
    hx = heights(s, xs, ks, su11=True)
    hy = heights(t, ys, ks, su11=True)
    out = qb.one()
    for j, k in enumerate(ks):
        out *= pr_inner(PrParams(hx[j], hy[j], v, k, qb, tb), xs[j], ys[j])
    return out


def pr_multi_inner(qb: QBase, s, t, v, ks: Sequence, xs: Sequence[int],
                   ys: Sequence[int], trunc: int):
    """Tensor inner product route for the infinite family, truncating every
    site index at ``trunc``."""
    out = qb.zero()
    for ns in iproduct(*[range(trunc + 1) for _ in ks]):
        w = qb.one()
        for j, k in enumerate(ks):
            w *= orthopoly.asc_w(qb, k, ns[j])
        out += nested_asc(qb, 1, s, ks, xs, ns) * nested_asc(qb, v, t, ks, ys, ns) * w
    return out


def kraw_W_multi(qb: QBase, s, Ns: Sequence[int], xs: Sequence[int]):
    """Nested x-side weight: product of univariate weights at running heights."""
    return _kraw_W_pack(qb, s, tuple(Ns))[tuple(xs)]


@packed
def _kraw_W_pack(qb, s, Ns, xs):
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
    Ns, idx, idx2 = tuple(Ns), tuple(idx), tuple(idx2)
    left, right = _rr_pack(qb, s, t, v, Ns), _rr_pack(qb, s, t, vpart, Ns)
    outer, diag, overlap = biorth_overlap(
        qb, relation, s, t, idx, idx2,
        lambda xs, ys: left[xs, ys], lambda xs, ys: right[xs, ys])
    w = _kraw_W_pack(qb, outer, Ns)
    acc = ordered_sum(((*overlap(us), w[us]) for us in iproduct(*[range(N + 1) for N in Ns])),
                      qb.zero())
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
    from .qseries import certified_sum, require_q_below_one

    require_q_below_one(qb)
    M = len(ks)
    vpart = -qb.conj(as_exponent(v)) - 2
    idx, idx2 = tuple(idx), tuple(idx2)

    hy = heights(t, idx, ks, su11=True)
    hy2 = heights(t, idx2, ks, su11=True)

    def integrand(xs):
        # group the three factors site by site: the per-site products stay
        # of the order of the final term, while the full rational-function
        # products alone can overflow the float range
        hx = heights(s, xs, ks, su11=True)
        out = qb.one()
        for j, k in enumerate(ks):
            left = pr_inner(PrParams(hx[j], hy[j], v, k, qb, tb), xs[j], idx[j])
            right = pr_inner(PrParams(hx[j], hy2[j], vpart, k, qb, tb), xs[j], idx2[j])
            w = orthopoly.asc_W(qb, hx[j], k, xs[j], tb)
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

    acc = certified_sum(shells(), tb)
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
    xs, ys, sizes = tuple(xs), tuple(ys), tuple(sizes)
    hx = heights(s, xs, sizes, su11)
    termsA, termsB = _shift_terms(qb, j, ys, t, v, sizes, su11)
    pack = _pr_pack(qb, s, t, v, sizes, tb) if su11 else _rr_pack(qb, s, t, v, sizes)
    vals = {ysf: pack[xs, ysf] for ysf in set(termsA) | set(termsB) | {ys}}
    sym = qb.brace if su11 else qb.bracket
    lead, diag = sym(hx[M]), sym(hx[M - j])
    # one sum, the symbols and signs as factors of each term
    terms = [(lead, c, vals[ysf]) for ysf, c in termsA.items()]
    terms.append((-1, diag, vals[ys]))
    terms += [(-1, c, vals[ysf]) for ysf, c in termsB.items()]
    return ordered_sum(terms, qb.zero())


# ---------------------------------------------------------------------------
# coproduct eigen-identities for nested vectors
# ---------------------------------------------------------------------------


def nested_eigen_residual(qb: QBase, side: str, j: int, v, base,
                          sizes: Sequence, ys: Sequence[int],
                          su11: bool = False, trunc: Optional[int] = None):
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
    sizes, ys = tuple(sizes), tuple(ys)
    rows = _interior_rows(qb, sizes, su11, trunc)
    h = heights(base, ys, sizes, su11)
    vec = _nested_vec(qb, v, base, sizes, ys, su11, trunc)
    element = "ytilde" if su11 else "xtilde"
    symbol = qb.brace if su11 else qb.bracket
    if side == "L":
        op = _chain_op(qb, sizes, su11, trunc, element, "L", j, v, base)
        lam = symbol(h[j])
    elif side == "R":
        op = _chain_op(qb, sizes, su11, trunc, element, "R", j, v, h[M - j])
        lam = symbol(h[M])
    else:
        raise OutOfRange(f"side must be 'L' or 'R', got {side!r}")
    return scaled_residual(op, vec, [(lam, vec)], rows, qb.zero())
