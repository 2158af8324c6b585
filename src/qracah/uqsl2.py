"""Finite matrix realizations of the quantum-algebra generators.

Two representation flavours share one generator layout (K diagonal, E one
step down, F one step up):

* ``su2``  -- the (N+1)-dimensional compact form; all identities hold as
  exact matrix equations;
* ``su11`` -- a truncation of the infinite non-compact form to {0..trunc}.
  F feeds row ``trunc`` from outside the truncation window, so identities
  hold exactly only on "interior" rows; every check states how many top
  rows it excludes (one per E/F application in the expression).

``gens`` builds both flavours from one body: the su11 generators are the
su2 ones at N = -k, so F = [N - n] becomes -[n + k]; only the window
differs (su2 stops at N, su11 at ``trunc``).  The twisted elements stay
per flavour, since the two *-structures differ.

The twisted combinations ``twist_x`` / ``twist_y`` are the tridiagonal
elements whose eigenfunctions are the two polynomial families.  The
non-compact pair carries the scale (q - 1/q)/(q + 1/q) on its off-diagonal
part; this normalization is forced jointly by the stated eigenvalues (brace
symbols), the rewrite K**-2 Y0 = Ytilde1, and the polynomial-in-K**2
expansion, and is machine-verified in the tests.

Operators are :class:`OpMatrix` values stored as sparse rows.  Every
generator has at most one nonzero entry per row, and a coproduct image on M
sites keeps O(M) entries per row.  One kernel, :func:`weighted_products`,
forms sum_t c_t A_t B_t over stored entries and yields each entry as its
factor tuples (c_t, a, b); :func:`combine` sums each entry once with
``scalar.ordered_sum``, so an exact product or sum builds one Fraction per
stored entry.  No dense d x d matrix is built or multiplied.  The identity
checks build no residual matrix either: they hand each entry's tuples of
(left side - right side) to ``scalar.residual_sum``.

``gens(rs)`` and the twisted elements are ``tables.tabled``, once per
(rs, u, s, tilde, compact): ``twist_x``/``twist_y`` pass their arguments
positionally to one tabled builder ``_twisted``, so ``tilde=False`` and an
omitted ``tilde`` read one entry.  A hit returns the first call's object,
so every check of a representation shares the same matrices, and
``OpMatrix`` immutability is load-bearing: no operation writes to an
operand.  As in every table, complex arguments that differ only in the
sign of a zero key one entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch, OutOfRange
from . import orthopoly
from .scalar import QBase, as_exponent, ordered_sum, residual_sum
from .tables import tabled

_HALF = Fraction(1, 2)


class OpMatrix:
    """A square matrix over backend scalars, stored as sparse rows.

    Row ``i`` is a ``{column: value}`` dict of the nonzero entries in
    increasing column order, so sums accumulate in the order a dense row
    would give them and floating-point results do not depend on the storage.
    ``zero`` is the backend's zero, returned for entries that are not stored.
    Every operation visits stored entries only.  Immutable by convention,
    a convention the tabled generator and twisted-element matrices rely on:
    they are shared by every caller.
    """

    __slots__ = ("rows", "dim", "zero")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        self.dim = len(rows)
        if any(len(r) != self.dim for r in rows):
            raise DimensionMismatch("matrix must be square")
        self.rows = [{j: a for j, a in enumerate(r) if a} for r in rows]
        self.zero = type(rows[0][0])(0) if rows else 0

    @classmethod
    def _sparse(cls, rows, zero) -> "OpMatrix":
        m = cls.__new__(cls)
        m.rows, m.dim, m.zero = rows, len(rows), zero
        return m

    @classmethod
    def identity(cls, dim: int, qb: QBase) -> "OpMatrix":
        one = qb.one()
        return cls._sparse([{i: one} for i in range(dim)], qb.zero())

    def __getitem__(self, idx):
        row = self.rows[idx]
        return [row.get(j, self.zero) for j in range(self.dim)]

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        return combine(((None, self, other),), self.dim, self.zero)

    def __eq__(self, other):
        return isinstance(other, OpMatrix) and self.rows == other.rows

    def kron(self, other: "OpMatrix") -> "OpMatrix":
        """Kronecker product; the left factor indexes the slow axis."""
        nb = other.dim
        return OpMatrix._sparse(
            [
                {k * nb + l: v for k, a in ra.items() for l, b in rb.items() if (v := a * b)}
                for ra in self.rows
                for rb in other.rows
            ],
            self.zero,
        )

    def apply(self, vec: Sequence) -> list:
        if len(vec) != self.dim:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.dim}")
        return [
            ordered_sum((a, vec[j]) for j, a in row.items()) if row else self.zero
            for row in self.rows
        ]


def weighted_products(terms, rows: int):
    """Rows 0..rows-1 of sum_t c_t A_t B_t, each a dict {column: [factor
    tuples]}: a stored a = A_t[i, k] and b = B_t[k, j] give the tuple
    (c_t, a, b) of entry (i, j).  ``terms`` holds the triples (c_t, A_t, B_t)
    of square operators of one dimension; any of the three may be ``None``,
    the unit (the identity operator, or the coefficient 1), whose factor
    the tuple omits.  Only stored entries are visited, terms in order, so a
    column's tuples come in the order a dense row would sum them."""
    for i in range(rows):
        acc = {}
        for c, A, B in terms:
            head = () if c is None else (c,)
            if A is None and B is None:
                acc.setdefault(i, []).append(head)
            elif A is None or B is None:
                for j, a in (B if A is None else A).rows[i].items():
                    acc.setdefault(j, []).append((*head, a))
            else:
                for k, a in A.rows[i].items():
                    for j, b in B.rows[k].items():
                        acc.setdefault(j, []).append((*head, a, b))
        yield acc


def combine(terms, dim: int, zero) -> OpMatrix:
    """The operator sum_t c_t A_t B_t of :func:`weighted_products`: each
    entry is ``ordered_sum`` of its factor tuples (or the factor itself,
    where that is one tuple of one factor); entries that sum to zero are not
    stored, columns are sorted, and ``zero`` is the backend's zero."""
    out = []
    for acc in weighted_products(terms, dim):
        row = {}
        for j in sorted(acc):
            ts = acc[j]
            if v := ts[0][0] if len(ts) == 1 and len(ts[0]) == 1 else ordered_sum(ts):
                row[j] = v
        out.append(row)
    return OpMatrix._sparse(out, zero)


def kron_all(mats: Sequence[OpMatrix]) -> OpMatrix:
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


class RepSpec(NamedTuple):
    """A representation window: compact on {0..N} or truncated non-compact.

    For su11 the matrices live on {0..trunc}; identities are exact on rows
    0..trunc-d where d counts E/F applications in the expression.
    """

    kind: str  # "su2" | "su11"
    qb: QBase
    N: Optional[int] = None
    k: object = None
    trunc: Optional[int] = None

    @classmethod
    def su2(cls, N: int, qb: QBase) -> "RepSpec":
        if N < 0:
            raise OutOfRange(f"N = {N} must be nonnegative")
        return cls("su2", qb, N=N)

    @classmethod
    def su11(cls, k, trunc: int, qb: QBase) -> "RepSpec":
        if trunc < 0:
            raise OutOfRange(f"trunc = {trunc} must be nonnegative")
        orthopoly.require_positive_k(k)
        return cls("su11", qb, k=k, trunc=trunc)

    @property
    def dim(self) -> int:
        return (self.N if self.kind == "su2" else self.trunc) + 1

    def interior(self, degree: int = 1) -> int:
        """Number of leading rows on which a degree-``degree`` expression in
        E, F is exact (all rows for su2)."""
        return self.dim if self.kind == "su2" else max(self.dim - degree, 0)

    def weights(self):
        """The Hilbert-space weights pairing this representation's basis, as
        one row read by index."""
        if self.kind == "su2":
            return orthopoly.kraw_w_column(self.qb, self.N)
        return orthopoly.asc_w_column(self.qb, self.k)


@tabled
def gens(rs: RepSpec) -> Tuple[OpMatrix, OpMatrix, OpMatrix, OpMatrix]:
    """The generator matrices (K, Kinv, E, F) of the representation."""
    qb = rs.qb
    dim = rs.dim
    K, Ki, E, F = ([{} for _ in range(dim)] for _ in range(4))
    # su11 is su2 at N = -k.  The su11 exponents keep their bits (a complex k
    # keeps the sign of its zero imaginary part): -n + half_size, not
    # half_size - n, and F = -[n + k], not [-k - n]
    su11 = rs.kind == "su11"
    size = -as_exponent(rs.k) if su11 else rs.N
    half_size = size * _HALF
    for n in range(dim):
        K[n][n] = qb.qpow(n - half_size)
        Ki[n][n] = qb.qpow(-n + half_size)
        if n >= 1:
            E[n][n - 1] = qb.bracket(n)
        if n + 1 < dim:
            F[n][n + 1] = -qb.bracket(n - size) if su11 else qb.bracket(size - n)
    zero = qb.zero()
    return tuple(OpMatrix._sparse(rows, zero) for rows in (K, Ki, E, F))


def _twist_from(qb: QBase, E: OpMatrix, F: OpMatrix, K: OpMatrix, Ki: OpMatrix,
                u, s, tilde: bool, compact: bool, dim: int) -> OpMatrix:
    u, s = as_exponent(u), as_exponent(s)
    sgn = 1 if compact else -1
    scale = qb.one() if compact else qb.bracket_brace_ratio
    const = qb.bracket(s) if compact else qb.brace(s)
    if tilde:
        terms = ((scale * qb.qpow(-u - _HALF), E, Ki),
                 (sgn * scale * qb.qpow(u + _HALF), F, Ki), (const, Ki, Ki))
    else:
        terms = ((scale * qb.qpow(u + _HALF), E, K),
                 (sgn * scale * qb.qpow(-u - _HALF), F, K), (const, None, None))
    return combine(terms, dim, qb.zero())


@tabled
def _twisted(rs: RepSpec, u, s, tilde: bool, compact: bool) -> OpMatrix:
    # called positionally only: a keyword would key the same element apart
    K, Ki, E, F = gens(rs)
    return _twist_from(rs.qb, E, F, K, Ki, u, s, tilde, compact, rs.dim)


def twist_x(rs: RepSpec, u, s, tilde: bool = False) -> OpMatrix:
    """The compact twisted element: EK + FK (+[s]) or its tilde variant
    EK**-1 + FK**-1 + [s]K**-2, with the stated q-power weights."""
    return _twisted(rs, u, s, tilde, True)


def twist_y(rs: RepSpec, u, s, tilde: bool = False) -> OpMatrix:
    """The non-compact twisted element (E, F enter with opposite signs and
    the brace constant); off-diagonal part scaled by (q-1/q)/(q+1/q)."""
    return _twisted(rs, u, s, tilde, False)


def _residual(rs: RepSpec, terms, rows: Optional[int]):
    """The sum over entries (i, j) of |sum_t c_t (A_t B_t)[i, j]|, i below
    ``rows`` (all rows if None), from the factor tuples of each entry."""
    acc_rows = weighted_products(terms, rs.dim if rows is None else rows)
    return residual_sum((ts, ()) for acc in acc_rows for ts in acc.values())


def relation_residuals(rs: RepSpec, rows: Optional[int] = None) -> dict:
    """Total absolute residual of each defining algebra relation over the
    leading ``rows`` rows (all if None).

    Exact zeros on all rows (su2) or on rows 0..trunc-1 (su11; the EF-FE
    relation leaks in the last row only).
    """
    q = rs.qb.q
    K, Ki, E, F = gens(rs)
    d = 1 / (q - 1 / q)
    relations = {
        "K*Kinv - 1": ((None, K, Ki), (-1, None, None)),
        "KE - qEK": ((None, K, E), (-q, E, K)),
        "KF - (1/q)FK": ((None, K, F), (-(1 / q), F, K)),
        "EF - FE - (K2-Kinv2)/(q-1/q)": ((None, E, F), (-1, F, E), (-d, K, K), (d, Ki, Ki)),
    }
    return {name: _residual(rs, terms, rows) for name, terms in relations.items()}


def star_residual(rs: RepSpec):
    """Total absolute residual of the *-structure K* = K, E* = +-F,
    F* = +-E (+ compact, - non-compact) for the weighted inner product: the
    sum over pairs (A, A*) and entries (n, m) of |w(n) A[n,m] - w(m) A*[m,n]|
    (exact scalars, so A*[m,n] is its own conjugate)."""
    K, Ki, E, F = gens(rs)
    sgn = 1 if rs.kind == "su2" else -1
    w = rs.weights()
    entries = []
    for A, Astar, c in ((K, K, 1), (E, F, sgn), (F, E, sgn)):
        out = [{m: [(w[n], a)] for m, a in row.items()} for n, row in enumerate(A.rows)]
        for m, row in enumerate(Astar.rows):
            for n, b in row.items():
                out[n].setdefault(m, []).append((-c, w[m], b))
        entries.extend(ts for acc in out for ts in acc.values())
    return residual_sum((ts, ()) for ts in entries)


def twist_rewrite_residual(rs: RepSpec, u, v, s, t, rows: Optional[int] = None):
    """Total absolute residual, over the leading ``rows`` rows (all if
    None), of expressing the untwisted element through K**2 and the tilde
    element: the q-commutator combination divided by q**2 - q**-2, minus the
    bracket (or brace) constant correction."""
    qb, compact = rs.qb, rs.kind == "su2"
    e = as_exponent(u) + as_exponent(v)
    K = gens(rs)[0]
    sym = qb.bracket if compact else qb.brace
    lhs, tilt = _twisted(rs, u, s, False, compact), _twisted(rs, v, t, True, compact)
    const = -sym(t) * qb.brace(e) + sym(s)
    d = 1 / (qb.qpow(2) - qb.qpow(-2))
    # q**e [K2, tilt]_q + q**-e [tilt, K2]_q = a K2 tilt + b tilt K2, and
    # K2 is diagonal, so each product is one factor per entry
    a = d * (qb.qpow(e + 1) - qb.qpow(-e - 1))
    b = d * (qb.qpow(1 - e) - qb.qpow(e - 1))
    K2 = K @ K
    return _residual(rs, ((None, lhs, None), (-a, K2, tilt), (-b, tilt, K2),
                          (-const, None, None)), rows)


def gevp_rewrite_residual(rs: RepSpec, s, rows: Optional[int] = None):
    """Total absolute residual, over the leading ``rows`` rows (all if
    None), of K**-2 X_{0,s} = Xtilde_{1,s} (or the Y analogue), the
    rewriting that turns the generalized eigenvalue problem into a plain one."""
    Ki, compact = gens(rs)[1], rs.kind == "su2"
    return _residual(rs, ((None, Ki @ Ki, _twisted(rs, 0, s, False, compact)),
                          (-1, _twisted(rs, 1, s, True, compact), None)), rows)


# ---------------------------------------------------------------------------
# coproduct images on tensor products
# ---------------------------------------------------------------------------


def coproduct_gens(sites: Sequence[RepSpec]) -> Tuple[OpMatrix, OpMatrix, OpMatrix, OpMatrix]:
    """Matrices of the iterated-coproduct images of (K, Kinv, E, F) on the
    tensor product of the given sites, slowest index first.

    E maps to sum_i K x ... x K x E_i x Kinv x ... x Kinv (and likewise F),
    K and Kinv to plain Kronecker powers.
    """
    if not sites:
        raise DimensionMismatch("need at least one site")
    per_site = [gens(rs) for rs in sites]
    Ks = [g[0] for g in per_site]
    Kis = [g[1] for g in per_site]
    DK, DKi = kron_all(Ks), kron_all(Kis)

    def image(g):
        return combine([(None, kron_all(Ks[:i] + [per_site[i][g]] + Kis[i + 1:]), None)
                        for i in range(len(sites))], DK.dim, sites[0].qb.zero())

    return DK, DKi, image(2), image(3)


def coproduct_op(sites: Sequence[RepSpec], element: str, side: str, j: int,
                 u=0, s=0) -> OpMatrix:
    """The (j-1)-th coproduct image of a named element placed on the left or
    right j sites of the chain, identity elsewhere.

    element is one of "x", "xtilde", "y", "ytilde", "k2"; u and s
    parameterize the twisted elements.  Tensor ordering is row-major with
    the first site slowest, matching nested-product vectors.
    """
    M = len(sites)
    if not 1 <= j <= M:
        raise OutOfRange(f"j = {j} outside 1..{M}")
    if side not in ("L", "R"):
        raise OutOfRange(f"side must be 'L' or 'R', got {side!r}")
    window = sites[:j] if side == "L" else sites[M - j :]
    rest = sites[j:] if side == "L" else sites[: M - j]
    qb = sites[0].qb
    DK, DKi, DE, DF = coproduct_gens(window)
    if element == "k2":
        op = DK @ DK
    elif element in ("x", "xtilde", "y", "ytilde"):
        op = _twist_from(qb, DE, DF, DK, DKi, u, s, element.endswith("tilde"),
                         element[0] == "x", DK.dim)
    else:
        raise OutOfRange(f"unknown element {element!r}")
    if not rest:
        return op
    pad = OpMatrix.identity(prod(rs.dim for rs in rest), qb)
    return pad.kron(op) if side == "R" else op.kron(pad)


def coproduct_twist_coideal(sites: Sequence[RepSpec], u, s, kind: str) -> OpMatrix:
    """The tilde element's coproduct built by the coideal recursion
    D_j = 1 x ... x (tilde minus its constant times Kinv**2) + D_{j-1} x Kinv**2,
    over all sites.  Equals the homomorphism-route construction; kept as an
    independent cross-check of the coproduct plumbing.

    For the compact element the local piece equals the tilde element at
    parameter 0 (the bracket constant vanishes there); for the non-compact
    one the brace constant {0}_q is nonzero, so the subtraction form is the
    correct general statement.
    """
    qb = sites[0].qb
    zero = qb.zero()
    builder = twist_x if kind == "x" else twist_y
    const = qb.bracket(s) if kind == "x" else qb.brace(s)
    out = builder(sites[0], u, s, tilde=True)
    left_dim = sites[0].dim
    for rs in sites[1:]:
        Ki = gens(rs)[1]
        Ki2 = Ki @ Ki
        local = combine(((None, builder(rs, u, s, tilde=True), None), (-const, Ki2, None)),
                        rs.dim, zero)
        eye = OpMatrix.identity(left_dim, qb)
        out = combine(((None, eye.kron(local), None), (None, out.kron(Ki2), None)),
                      left_dim * rs.dim, zero)
        left_dim *= rs.dim
    return out
