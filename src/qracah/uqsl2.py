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
sites keeps O(M) entries per row, so products, sums, Kronecker products and
applications cost in proportion to the stored entries; no dense d x d
matrix is built or multiplied.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import DimensionMismatch, OutOfRange
from . import orthopoly
from .scalar import QBase, as_exponent, ordered_sum
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

    @classmethod
    def zeros(cls, dim: int, qb: QBase) -> "OpMatrix":
        return cls._sparse([{} for _ in range(dim)], qb.zero())

    def __getitem__(self, idx):
        row = self.rows[idx]
        return [row.get(j, self.zero) for j in range(self.dim)]

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        orows = other.rows
        out = []
        for row in self.rows:
            acc = {}
            for k, a in row.items():
                for j, b in orows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(_pruned(acc))
        return OpMatrix._sparse(out, self.zero)

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        out = []
        for r1, r2 in zip(self.rows, other.rows):
            acc = dict(r1)
            for j, b in r2.items():
                acc[j] = acc[j] + b if j in acc else b
            out.append(_pruned(acc))
        return OpMatrix._sparse(out, self.zero)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "OpMatrix":
        return OpMatrix._sparse(
            [{j: v for j, a in row.items() if (v := scalar * a)} for row in self.rows],
            self.zero,
        )

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

    def abs_sum(self, rows: Optional[int] = None):
        """Sum of entry magnitudes over the first ``rows`` rows (all if None),
        in the type ``abs`` gives the native scalar (exact in the exact
        backend, so it is zero iff every entry is exactly zero)."""
        acc = abs(self.zero)
        for row in self.rows[:rows]:
            for a in row.values():
                acc += abs(a)
        return acc


def _pruned(acc: dict) -> dict:
    """A sparse row from accumulated entries: zeros dropped, columns sorted."""
    return {j: acc[j] for j in sorted(acc) if acc[j]}


def kron_all(mats: Sequence[OpMatrix]) -> OpMatrix:
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


@dataclass(frozen=True)
class RepSpec:
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
        out = scale * qb.qpow(-u - _HALF) * (E @ Ki) + (sgn * scale * qb.qpow(u + _HALF)) * (F @ Ki)
        return out + const * (Ki @ Ki)
    out = scale * qb.qpow(u + _HALF) * (E @ K) + (sgn * scale * qb.qpow(-u - _HALF)) * (F @ K)
    return out + const * OpMatrix.identity(dim, qb)


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


def qcommutator(qb: QBase, AB: OpMatrix, BA: OpMatrix) -> OpMatrix:
    """[A, B]_q = q A B - (1/q) B A, from the two products AB and BA, so
    [A, B]_q and [B, A]_q share them."""
    q = qb.q
    return q * AB + (-(1 / q)) * BA


def relation_residuals(rs: RepSpec) -> dict:
    """Residual matrices of the defining algebra relations.

    Exact zeros on all rows (su2) or on rows 0..trunc-1 (su11; the EF-FE
    relation leaks in the last row only).
    """
    qb = rs.qb
    q = qb.q
    K, Ki, E, F = gens(rs)
    eye = OpMatrix.identity(rs.dim, qb)
    return {
        "K*Kinv - 1": K @ Ki - eye,
        "KE - qEK": K @ E - q * (E @ K),
        "KF - (1/q)FK": K @ F - (1 / q) * (F @ K),
        "EF - FE - (K2-Kinv2)/(q-1/q)": (E @ F - F @ E)
        - (1 / (q - 1 / q)) * (K @ K - Ki @ Ki),
    }


def star_residual(rs: RepSpec, A: OpMatrix, Astar: OpMatrix) -> OpMatrix:
    """Residual of the adjointness relation w(n) A[n,m] = w(m) conj(A*[m,n])
    for the weighted inner product of the representation space."""
    qb = rs.qb
    w = rs.weights()
    out = [{m: w[n] * a for m, a in row.items()} for n, row in enumerate(A.rows)]
    for m, row in enumerate(Astar.rows):
        for n, b in row.items():
            t = w[m] * qb.conj(b)
            out[n][m] = out[n][m] - t if m in out[n] else -t
    return OpMatrix._sparse([_pruned(r) for r in out], A.zero)


def twist_rewrite_residual(rs: RepSpec, u, v, s, t) -> OpMatrix:
    """Residual of expressing the untwisted element through K**2 and the
    tilde element: the q-commutator combination divided by q**2 - q**-2,
    minus the bracket (or brace) constant correction."""
    qb = rs.qb
    u_, v_ = as_exponent(u), as_exponent(v)
    K = gens(rs)[0]
    K2 = K @ K
    compact = rs.kind == "su2"
    sym = qb.bracket if compact else qb.brace
    lhs = _twisted(rs, u, s, False, compact)
    tilt = _twisted(rs, v, t, True, compact)
    const = -sym(t) * qb.brace(u_ + v_) + sym(s)
    q2 = qb.qpow(2)
    K2_tilt, tilt_K2 = K2 @ tilt, tilt @ K2
    num = (qb.qpow(u_ + v_) * qcommutator(qb, K2_tilt, tilt_K2)
           + qb.qpow(-u_ - v_) * qcommutator(qb, tilt_K2, K2_tilt))
    rhs = (1 / (q2 - 1 / q2)) * num + const * OpMatrix.identity(rs.dim, qb)
    return lhs - rhs


def gevp_rewrite_residual(rs: RepSpec, s) -> OpMatrix:
    """Residual of K**-2 X_{0,s} = Xtilde_{1,s} (or the Y analogue), the
    rewriting that turns the generalized eigenvalue problem into a plain one."""
    Ki, compact = gens(rs)[1], rs.kind == "su2"
    return (Ki @ Ki) @ _twisted(rs, 0, s, False, compact) - _twisted(rs, 1, s, True, compact)


def eigen_residual(rs: RepSpec, u, s, x: int) -> list:
    """Residual vector of the eigenvalue equation for the tilde element on
    the polynomial family vector at spectral point x.

    su2: eigenvalue [2x-N+s]_q, exact on all rows.  su11: eigenvalue
    {2x+k+s}_q, exact on rows 0..trunc-1.
    """
    qb = rs.qb
    s_ = as_exponent(s)
    if rs.kind == "su2":
        if not 0 <= x <= rs.N:
            raise OutOfRange(f"x = {x} outside 0..{rs.N}")
        op = twist_x(rs, u, s, tilde=True)
        lam = qb.bracket(2 * x - rs.N + s_)
        column = orthopoly.kraw_column(orthopoly.KrawParams(u, s, rs.N, qb), x)
    else:
        if x < 0:
            raise OutOfRange(f"x = {x} must be nonnegative")
        op = twist_y(rs, u, s, tilde=True)
        lam = qb.brace(2 * x + as_exponent(rs.k) + s_)
        column = orthopoly.asc_column(orthopoly.ASCParams(u, s, rs.k, qb), x)
    vec = [column[n] for n in range(rs.dim)]
    out = op.apply(vec)
    return [o - lam * v for o, v in zip(out, vec)]


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
    DK = kron_all(Ks)
    DKi = kron_all(Kis)
    DE: Optional[OpMatrix] = None
    DF: Optional[OpMatrix] = None
    for i in range(len(sites)):
        termE = kron_all(Ks[:i] + [per_site[i][2]] + Kis[i + 1 :])
        termF = kron_all(Ks[:i] + [per_site[i][3]] + Kis[i + 1 :])
        DE = termE if DE is None else DE + termE
        DF = termF if DF is None else DF + termF
    return DK, DKi, DE, DF


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
    pad = OpMatrix.identity(1, qb)
    for rs in rest:
        pad = pad.kron(OpMatrix.identity(rs.dim, qb))
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
    builder = twist_x if kind == "x" else twist_y
    const = qb.bracket(s) if kind == "x" else qb.brace(s)
    out = builder(sites[0], u, s, tilde=True)
    left_dim = sites[0].dim
    for rs in sites[1:]:
        K, Ki, E, F = gens(rs)
        local = builder(rs, u, s, tilde=True) - const * (Ki @ Ki)
        eye_left = OpMatrix.identity(left_dim, qb)
        out = eye_left.kron(local) + out.kron(Ki @ Ki)
        left_dim *= rs.dim
    return out
