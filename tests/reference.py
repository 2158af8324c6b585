"""A naive reference model of the paper's objects, for the tests.

Its rule: every value is written from its definition (Gasper & Rahman,
*Basic Hypergeometric Series*, ch. 1; Koekoek, Lesky & Swarttouw, section
14), in ``fractions.Fraction`` arithmetic only, as a plain loop over terms
or factors, and nothing is imported from ``qracah``.  So a library value
checked against the model is checked against a route that shares no code
with it.  Conventions are the package's: p is a positive Fraction, q =
p**2, q**e = p**(2e) for a half-integer e, [t] = (q**t - q**-t)/(q - 1/q)
and {t} = (q**t + q**-t)/(q + 1/q); a vanishing denominator raises
ZeroDivisionError.

Test helpers that pin what a Fraction model cannot stay outside it: the
floating bits of the float and complex backends (``_rr_closed_inline``,
``_pr_closed_inline``, ``_FLOATING_*``, ``_univariate_pr_*``), the stop
points and error texts of ``rphis`` and of the certified sums
(``_reference_rphis``, ``_ratio_fraction_loop``,
``_fraction_certified_sum``), the result types of ``qpoch``
(``_qpoch_fraction_loop``) and the per-entry series a column's errors are
read against (``_value_direct``).
"""

from fractions import Fraction
from functools import reduce
from itertools import accumulate, product
from math import prod

ONE = Fraction(1)


def qpow(p, e):
    """q**e = p**(2e) for a half-integer e."""
    if not isinstance(e, (int, Fraction)) or Fraction(2 * e).denominator != 1:
        raise ValueError(f"exponent {e!r} is not a half-integer")
    return Fraction(p) ** int(2 * e)


def bracket(p, t):
    return (qpow(p, t) - qpow(p, -t)) / (qpow(p, 1) - qpow(p, -1))


def brace(p, t):
    return (qpow(p, t) + qpow(p, -t)) / (qpow(p, 1) + qpow(p, -1))


# ---------------------------------------------------------------------------
# Pochhammer symbols, terminating series, the families and their weights
# ---------------------------------------------------------------------------


def qpoch(a, base, n):
    """(a; base)_n = prod_(i < n) (1 - a base**i)."""
    return prod((1 - a * Fraction(base) ** i for i in range(n)), start=ONE)


def phi(nums, dens, base, z, terms):
    """The first ``terms`` terms of sum_j (nums; base)_j z**j / ((dens;
    base)_j (base; base)_j), each the one before times its ratio."""
    total, term = Fraction(0), ONE
    for j in range(terms):
        if j:
            f = Fraction(base) ** (j - 1)
            num = z * prod(1 - a * f for a in nums)
            term = term * num / ((1 - base * f) * prod(1 - b * f for b in dens))
        total += term
    return total


def kraw(p, u, s, N, n, x):
    """The finite family, (-1)**n q**(n(s-u-N/2+1/2)) 3phi2(q**2n, q**2x,
    -q**(2N-2x-2s); q**2N, 0; q**-2, q**-2), 0 <= n, x <= N."""
    pref = (-1) ** n * qpow(p, n * (Fraction(s) - u - Fraction(N, 2) + Fraction(1, 2)))
    nums = (qpow(p, 2 * n), qpow(p, 2 * x), -qpow(p, 2 * N - 2 * x - 2 * s))
    return pref * phi(nums, (qpow(p, 2 * N),), qpow(p, -2), qpow(p, -2), min(n, x) + 1)


def asc(p, u, s, k, n, x):
    """The infinite family, q**(n(s-u+k/2+1/2)) 3phi2(q**2n, q**2x,
    q**(-2x-2s-2k); q**-2k, 0; q**-2, q**-2), n, x >= 0."""
    pref = qpow(p, n * (Fraction(s) - u + Fraction(k) / 2 + Fraction(1, 2)))
    nums = (qpow(p, 2 * n), qpow(p, 2 * x), qpow(p, -2 * x - 2 * s - 2 * k))
    return pref * phi(nums, (qpow(p, -2 * k),), qpow(p, -2), qpow(p, -2), min(n, x) + 1)


def qbinom(n, j, base):
    return qpoch(base, base, n) / (qpoch(base, base, j) * qpoch(base, base, n - j))


def kraw_w(p, N, n):
    """n-side weight of the finite family: q**(n(n-N)) [N over n]_(q**2)."""
    return qpow(p, n * (n - N)) * qbinom(N, n, qpow(p, 2))


def asc_w(p, k, n):
    """n-side weight of the infinite family: q**(-n(k-1)) (q**2k; q**2)_n
    / (q**2; q**2)_n."""
    q2 = qpow(p, 2)
    return qpow(p, -n * (Fraction(k) - 1)) * qpoch(qpow(p, 2 * k), q2, n) / qpoch(q2, q2, n)


def kraw_W(p, s, N, x):
    """x-side weight of the finite family, in b(e) = q**-e: (1 +
    b(4x+2s-2N)) / (1 + b(2s-2N)) (-b(2s-2N); b(2))_x / (-b(2s+2); b(2))_x
    b(-x(2s+1+x-2N)) / (-b(-2s); b(2))_N [N over x]_(b(2))."""
    def b(e):
        return qpow(1 / Fraction(p), e)

    out = (1 + b(4 * x + 2 * s - 2 * N)) / (1 + b(2 * s - 2 * N))
    out *= qpoch(-b(2 * s - 2 * N), b(2), x) / qpoch(-b(2 * s + 2), b(2), x)
    out *= b(-x * (2 * s + 1 + x - 2 * N)) / qpoch(-b(-2 * s), b(2), N)
    return out * qbinom(N, x, b(2))


# ---------------------------------------------------------------------------
# the finite rational function and the summation identity (Lemma 2.1)
# ---------------------------------------------------------------------------


def rr(p, s, t, v, N, x, y):
    """The finite rational function as its inner product,
    sum_n kraw(1, s; n, x) kraw(v, t; n, y) w(n)."""
    return sum((kraw(p, 1, s, N, n, x) * kraw(p, v, t, N, n, y) * kraw_w(p, N, n)
                for n in range(N + 1)), Fraction(0))


def summation_lhs(q, x, y, a, b2, bcd, bd_c, N):
    """Product side of the finite case a = q**-N, in the parameters as they
    enter it (b**2, so b may be imaginary): (abcd; q)_N (bd/c q**-y; q)_y
    / (abcd; q)_y (q**-x/b**2; q)_x / (a; q)_x times 4phi3(q**-x, a b**2
    q**x, bcd, bd/c; b**2 q, bd/c q**-y, abcd q**y; q, q)."""
    abcd = a * bcd
    out = qpoch(abcd, q, N) * qpoch(bd_c * q**-y, q, y) / qpoch(abcd, q, y)
    out *= qpoch(q**-x / b2, q, x) / qpoch(a, q, x)
    nums = (q**-x, a * b2 * q**x, bcd, bd_c)
    return out * phi(nums, (b2 * q, bd_c * q**-y, abcd * q**y), q, q, x + 1)


def summation_factor(q, a, z, sq, n):
    """3phi2(q**n, q**z, q**-z/(a sq); 1/a, 0; 1/q, 1/q) to its last term
    min(n, z); for a negative z, to its first vanishing numerator factor."""
    c = q**-z / (a * sq)
    if z >= 0:
        terms = min(n, z) + 1
    else:
        terms = next((j + 1 for j in range(n) if c / q**j == 1), n + 1)
    return phi((q**n, q**z, c), (1 / Fraction(a),), 1 / q, 1 / q, terms)


def summation_rhs(q, x, y, a, b2, c2, bcd, terms):
    """Series side, its first ``terms`` terms: sum_n (bcd)**n (a; q)_n /
    (q; q)_n times the factors at (x, b**2) and (y, c**2)."""
    total, coeff = Fraction(0), ONE
    for n in range(terms):
        if n:
            coeff *= bcd * (1 - a * q ** (n - 1)) / (1 - q**n)
        total += coeff * summation_factor(q, a, x, b2, n) * summation_factor(q, a, y, c2, n)
    return total


def rr_closed(p, s, t, v, N, x, y):
    """The finite closed form: the product side in base q**2 at a =
    q**-2N, b**2 = -q**2s, bcd = -q**(s+t-v+1) and bd/c = q**(s-t-v+1)."""
    q2 = qpow(p, 2)
    return summation_lhs(q2, x, y, qpow(p, -2 * N), -qpow(p, 2 * s), -qpow(p, s + t - v + 1),
                         qpow(p, Fraction(s) - t - v + 1), N)


# ---------------------------------------------------------------------------
# dense operators: a matrix is a list of rows of Fractions
# ---------------------------------------------------------------------------


def eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def lin(*terms):
    """sum of c * X over the pairs (c, X)."""
    n = len(terms[0][1])
    return [[sum((c * X[i][j] for c, X in terms), Fraction(0)) for j in range(n)]
            for i in range(n)]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def gens(p, N=None, k=None, trunc=None):
    """(K, K**-1, E, F) on {0..N}, or on the window {0..trunc} of the
    lowest weight k module: K e_n = q**(n-N/2) e_n (q**(n+k/2)), E e_n =
    [n] e_(n-1) and F e_(n+1) = [N-n] e_n (-[n+k] e_n)."""
    dim = N + 1 if N is not None else trunc + 1
    K, Ki, E, F = ([[Fraction(0)] * dim for _ in range(dim)] for _ in range(4))
    for n in range(dim):
        h = n - Fraction(N, 2) if N is not None else n + Fraction(k) / 2
        K[n][n], Ki[n][n] = qpow(p, h), qpow(p, -h)
        if n >= 1:
            E[n][n - 1] = bracket(p, n)
        if n + 1 < dim:
            F[n][n + 1] = bracket(p, N - n) if N is not None else -bracket(p, n + Fraction(k))
    return K, Ki, E, F


def twisted(p, g, u, s, tilde, compact):
    """The twisted element of g = (K, Ki, E, F): q**(u+1/2) EK +
    q**(-u-1/2) FK + [s], or its tilde form q**(-u-1/2) EK**-1 +
    q**(u+1/2) FK**-1 + [s] K**-2; the non-compact one has -F, {s} and the
    off-diagonal scale (q - 1/q)/(q + 1/q)."""
    K, Ki, E, F = g
    q, h = qpow(p, 1), Fraction(u) + Fraction(1, 2)
    scale, sign, const = ((1, 1, bracket(p, s)) if compact
                          else ((q - 1 / q) / (q + 1 / q), -1, brace(p, s)))
    if tilde:
        return lin((scale * qpow(p, -h), matmul(E, Ki)),
                   (sign * scale * qpow(p, h), matmul(F, Ki)), (const, matmul(Ki, Ki)))
    return lin((scale * qpow(p, h), matmul(E, K)),
               (sign * scale * qpow(p, -h), matmul(F, K)), (const, eye(len(K))))


def coproduct(site_gens):
    """(K, K**-1, E, F) on the sites' tensor product, the first site
    slowest: K tensor powers, E = sum_i K x..x K x E_i x K**-1 x..x K**-1,
    F likewise."""
    def tensor(mats):
        return reduce(kron, mats, [[ONE]])

    K, Ki = (tensor([g[i] for g in site_gens]) for i in (0, 1))
    E, F = (lin(*((1, tensor([g[0] for g in site_gens[:i]] + [site_gens[i][which]]
                             + [g[1] for g in site_gens[i + 1:]])) for i in range(len(site_gens))))
            for which in (2, 3))
    return K, Ki, E, F


def chain_element(p, site_gens, element, side, j, u=0, s=0):
    """"k2", "x", "xtilde", "y" or "ytilde" on the left or right j sites of
    a chain through the coproduct, the identity on the other sites."""
    M = len(site_gens)
    g = coproduct(site_gens[:j] if side == "L" else site_gens[M - j:])
    if element == "k2":
        op = matmul(g[0], g[0])
    else:
        op = twisted(p, g, u, s, element.endswith("tilde"), element[0] == "x")
    pad = eye(prod(len(site[0]) for site in site_gens) // len(op))
    return kron(op, pad) if side == "L" else kron(pad, op)


def coideal_tilde(p, site_gens, u, s, compact):
    """The tilde element on a chain by the coideal recursion: D_1 the first
    site's, D_j = 1 x (tilde_j - const K_j**-2) + D_(j-1) x K_j**-2, const
    the bracket [s] or the brace {s}."""
    const = bracket(p, s) if compact else brace(p, s)
    out = twisted(p, site_gens[0], u, s, True, compact)
    for g in site_gens[1:]:
        ki2 = matmul(g[1], g[1])
        local = lin((1, twisted(p, g, u, s, True, compact)), (-const, ki2))
        out = lin((1, kron(eye(len(out)), local)), (1, kron(out, ki2)))
    return out


def _total(m, rows):
    return sum((abs(x) for row in m[:rows] for x in row), Fraction(0))


def relation_residuals(p, g, rows):
    """Total |residual| over the leading ``rows`` rows of KK**-1 = 1, KE =
    qEK, KF = FK/q and EF - FE = (K**2 - K**-2)/(q - 1/q)."""
    K, Ki, E, F = g
    q, d = qpow(p, 1), 1 / (qpow(p, 1) - qpow(p, -1))
    return {
        "K*Kinv - 1": _total(lin((1, matmul(K, Ki)), (-1, eye(len(K)))), rows),
        "KE - qEK": _total(lin((1, matmul(K, E)), (-q, matmul(E, K))), rows),
        "KF - (1/q)FK": _total(lin((1, matmul(K, F)), (-1 / q, matmul(F, K))), rows),
        "EF - FE - (K2-Kinv2)/(q-1/q)": _total(lin(
            (1, matmul(E, F)), (-1, matmul(F, E)), (-d, matmul(K, K)), (d, matmul(Ki, Ki))), rows),
    }


def star_residual(g, w, compact):
    """Total |w(n) A[n][m] - w(m) A*[m][n]| of K* = K, E* = +-F, F* = +-E
    (+ compact) under the weights w."""
    K, Ki, E, F = g
    sign = 1 if compact else -1
    return sum((abs(w[n] * A[n][m] - c * w[m] * As[m][n])
                for A, As, c in ((K, K, 1), (E, F, sign), (F, E, sign))
                for n in range(len(K)) for m in range(len(K))), Fraction(0))


def twist_rewrite_residual(p, g, u, v, s, t, compact, rows):
    """Total |residual| of X_(u,s) = (q**(u+v) [K**2, Xt]_q + q**(-u-v)
    [Xt, K**2]_q) / (q**2 - q**-2) - [t]{u+v} + [s], Xt the tilde element at
    (v, t), [A, B]_q = q AB - BA/q, braces for [.] on the non-compact side."""
    q, q2 = qpow(p, 1), qpow(p, 2)
    sym = bracket if compact else brace
    K2 = matmul(g[0], g[0])
    lhs, tilt = twisted(p, g, u, s, False, compact), twisted(p, g, v, t, True, compact)

    def qcomm(A, B):
        return lin((q, matmul(A, B)), (-1 / q, matmul(B, A)))

    num = lin((qpow(p, u + v), qcomm(K2, tilt)), (qpow(p, -u - v), qcomm(tilt, K2)))
    const = -sym(p, t) * brace(p, u + v) + sym(p, s)
    return _total(lin((1, lhs), (-1 / (q2 - 1 / q2), num), (-const, eye(len(lhs)))), rows)


def gevp_rewrite_residual(p, g, s, compact, rows):
    """Total |residual| of K**-2 X_(0,s) = Xtilde_(1,s)."""
    ki2 = matmul(g[1], g[1])
    return _total(lin((1, matmul(ki2, twisted(p, g, 0, s, False, compact))),
                      (-1, twisted(p, g, 1, s, True, compact))), rows)


# ---------------------------------------------------------------------------
# nested multivariate functions
# ---------------------------------------------------------------------------


def heights(base, ys, sizes, su11=False):
    """[h_0, ..., h_M]: h_0 = base, h_j = h_(j-1) + 2 y_j - N_j, or + 2 y_j
    + k_j on the infinite chain."""
    steps = (2 * y + (size if su11 else -size) for y, size in zip(ys, sizes))
    return list(accumulate(steps, initial=Fraction(base)))


def nested_kraw(p, v, t, Ns, ys, ns):
    """prod_j kraw(v, h_(j-1); n_j, y_j), the heights from t."""
    h = heights(t, ys, Ns)
    return prod((kraw(p, v, h[j], N, ns[j], ys[j]) for j, N in enumerate(Ns)), start=ONE)


def nested_asc(p, v, t, ks, ys, ns):
    """prod_j asc(v, h_(j-1); n_j, y_j), the infinite chain's heights from t."""
    h = heights(t, ys, ks, su11=True)
    return prod((asc(p, v, h[j], k, ns[j], ys[j]) for j, k in enumerate(ks)), start=ONE)


def nested_kraw_w(p, Ns, ns):
    """The finite chain's n-side weight, prod_j w(n_j)."""
    return prod((kraw_w(p, N, n) for N, n in zip(Ns, ns)), start=ONE)


def kraw_W_multi(p, s, Ns, xs):
    """The finite chain's x-side weight, prod_j W(h_(j-1), x_j), the
    heights from s."""
    h = heights(s, xs, Ns)
    return prod((kraw_W(p, h[j], N, xs[j]) for j, N in enumerate(Ns)), start=ONE)


def pr_multi_partial(p, s, t, v, ks, xs, ys, trunc):
    """The infinite chain's rational function as its tensor inner product,
    every site index cut at ``trunc``: sum_ns nested_asc(1, s; ns, xs)
    nested_asc(v, t; ns, ys) prod_j w_(k_j)(n_j)."""
    weights = [[asc_w(p, k, n) for n in range(trunc + 1)] for k in ks]
    return sum((nested_asc(p, 1, s, ks, xs, ns) * nested_asc(p, v, t, ks, ys, ns)
                * prod((row[n] for row, n in zip(weights, ns)), start=ONE)
                for ns in product(range(trunc + 1), repeat=len(ks))), Fraction(0))
