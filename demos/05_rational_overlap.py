"""Rational overlap functions: closed forms, biorthogonality, recurrences.

The finite-family pairing is an exact rational; the terminating 4phi3
closed form reproduces it on the whole validity domain.  Biorthogonality
pairs twist v with partner -v-2 and collapses to plain orthogonality at the
self-partner point v = -1.
"""

from fractions import Fraction as F

from qracah import (
    PrParams,
    QBase,
    RrParams,
    TailBound,
    pr_closed,
    pr_inner,
    pr_valid,
    rr_closed,
    rr_inner,
    rr_valid,
)
from qracah.multivar import multi_biorth_residual, multi_gevp_residual

qb = QBase(F(1, 2))
rp = RrParams(2, 1, -1, 3, qb)

print("values (x rows, y columns), inner-product route:")
for x in range(4):
    print("  ", [rr_inner(rp, x, y) for y in range(4)])

agree = all(
    rr_closed(rp, x, y) == rr_inner(rp, x, y)
    for x in range(4) for y in range(4) if rr_valid(rp, x, y)
)
print("closed form == inner product on the validity domain:", agree)

print("\nbiorthogonality residuals (x-relation, partner -v-2):")
# the univariate relation is the one-site chain's
bad = sum(1 for i in range(4) for j in range(4)
          if multi_biorth_residual(qb, rp.s, rp.t, rp.v, (rp.N,), "x", (i,), (j,)) != 0)
print("  nonzero residuals:", bad)

print("three-term recurrence residuals:")
# so is the recurrence, the one-site generalized eigenvalue problem
bad = sum(1 for x in range(4) for y in range(4)
          if multi_gevp_residual(qb, 1, (x,), (y,), rp.s, rp.t, rp.v, (rp.N,)) != 0)
print("  nonzero residuals:", bad)

# the infinite family: exact rational scalars with certified truncation
tb = TailBound(tolerance=1e-12)
pp = PrParams(0, 0, -1, 1, qb, tb)
print("\ninfinite-family closed form vs certified inner product:")
for (x, y) in ((0, 0), (1, 2), (2, 2), (3, 1)):
    if not pr_valid(pp, x, y):
        print(f"  (x,y)=({x},{y}): rejected (closed-form pole)")
        continue
    d = float(pr_closed(pp, x, y) - pr_inner(pp, x, y))
    print(f"  (x,y)=({x},{y}): difference {d:.2e}")
