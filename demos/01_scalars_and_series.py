"""Exact q-arithmetic: the base q = p**2, q-numbers, Pochhammers, series.

Everything here is an exact rational; half-integer powers of q stay inside
the rationals because q is stored through its square root p.
"""

from fractions import Fraction as F

from qracah import (
    PhiSpec,
    QBase,
    TailBound,
    qbinom,
    qpoch,
    qpoch_inf,
    rphis,
)

qb = QBase(F(1, 2))  # q = 1/4
print("q          =", qb.q)
print("q**(1/2)   =", qb.qpow(F(1, 2)), " (exact: p itself)")
print("[2]_q      =", qb.bracket(2), " = q + 1/q")
print("[t]_q is antisymmetric: [-3]_q =", qb.bracket(-3), " [3]_q =", qb.bracket(3))
print("{0}_q      =", qb.brace(0), " = 2/(q + 1/q)")
print()

q = qb.q
print("(a;q)_3 at a=1/2:", qpoch(F(1, 2), q, 3))
print("[4 choose 2] base q**2:", qbinom(4, 2, qb.qpow(2)))
print()

# terminating series evaluate exactly; the first numerator parameter 1/q**2
# cuts the sum after two terms
spec = PhiSpec(numerators=(1 / qb.qpow(2), F(1, 3)), denominators=(F(1, 5),),
               base=qb.qpow(2), argument=F(2, 7))
print("terminating 2phi1:", rphis(spec))

# truncated infinite products carry a certificate: the tail of the
# log-product is provably below the tolerance
tb = TailBound(tolerance=1e-15)
print("(1/2; 1/2)_inf ~", qpoch_inf(0.5, 0.5, tb))
