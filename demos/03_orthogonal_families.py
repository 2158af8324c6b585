"""The two discrete orthogonal families and their transfer coefficients.

The finite family lives on {0..N} and is orthogonal in both variables with
exact rational weights.  The infinite family lives on the nonnegative
integers; its x-side weight involves an infinite Pochhammer ratio, so its
orthogonality is checked under a certified truncation.
"""

from fractions import Fraction as F

from qracah import (
    ASCParams,
    KrawParams,
    QBase,
    TailBound,
    asc_orth_n,
    kraw,
    kraw_diff_coeffs,
    kraw_orth_n,
    kraw_orth_x,
    kraw_w,
    kraw_W,
)

qb = QBase(F(1, 2))

N, s = 3, 1
kp = KrawParams(0, s, N, qb)
print(f"finite family values k(n,x) for N={N}, s={s}:")
for n in range(N + 1):
    print("  ", [kraw(kp, n, x) for x in range(N + 1)])

print("\nweights w(n):", [kraw_w(qb, N, n) for n in range(N + 1)])
print("weights W(x,s;1/q):", [kraw_W(qb, s, N, x) for x in range(N + 1)])

bad = sum(
    1
    for a in range(N + 1)
    for b in range(N + 1)
    if kraw_orth_n(kp, a, b) != 0 or kraw_orth_x(kp, a, b) != 0
)
print(f"orthogonality residuals nonzero: {bad} (both relations, all pairs)")

# the diagonal symbol q**(2n-N) acts tridiagonally on the x variable;
# the coefficient row sums to q**-N because every polynomial is 1 at n=0
am1, a0, a1 = kraw_diff_coeffs(qb, N, 1, s)
print("\ntransfer coefficients at y=1:", (am1, a0, a1))
print("row sum == q**-N:", am1 + a0 + a1 == qb.qpow(-N))

# the infinite family: certified residuals
qbf = QBase(0.5, "float")
ap = ASCParams(0, 0, 1, qbf, TailBound(tolerance=1e-13))
print("\ninfinite family orthogonality residuals (certified):")
for x in range(3):
    for x2 in range(x, 3):
        print(f"  (x,x') = ({x},{x2}): {asc_orth_n(ap, x, x2):.2e}")
