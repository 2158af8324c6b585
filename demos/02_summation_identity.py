"""The central summation identity, machine-checked to exact zero.

A weighted sum of products of two terminating 3phi2's in base 1/q equals a
single terminating 4phi3 with explicit Pochhammer prefactors.  In the finite
case (a = q**-N, indices up to N) both sides are rationals and the residual
is identically zero; only the purely real parameter combinations enter.
"""

from fractions import Fraction as F

from qracah import QBase, RrParams, rr_closed, rr_inner
from qracah.errors import DenominatorPole

for p in (F(1, 2), F(2, 3)):
    qb = QBase(p)
    checked = skipped = 0
    for N in range(5):
        for (s, t, v) in ((0, 0, 0), (1, 0, 0), (2, 1, -1), (1, 2, 1)):
            for x in range(N + 1):
                for y in range(N + 1):
                    try:
                        rp = RrParams(s, t, v, N, qb)
                        lhs, rhs = rr_closed(rp, x, y), rr_inner(rp, x, y)
                    except DenominatorPole:
                        skipped += 1  # isolated pole of the product side
                        continue
                    assert lhs == rhs
                    checked += 1
    print(f"p = {p}: {checked} parameter points, every residual exactly 0"
          f" ({skipped} pole points excluded)")

# a sample value: both sides as one exact rational
qb = QBase(F(1, 2))
rp = RrParams(1, 2, 1, 3, qb)
lhs, rhs = rr_closed(rp, 2, 1), rr_inner(rp, 2, 1)
print("\nsample value at N=3, (s,t,v)=(1,2,1), (x,y)=(2,1):")
print("  lhs =", lhs)
print("  rhs =", rhs)
