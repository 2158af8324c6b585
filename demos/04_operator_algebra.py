"""Quantum-algebra generator matrices and their machine-checked identities.

The compact representation acts on {0..N}; the non-compact one on a
truncated window where identities are exact away from the last rows.  The
twisted tridiagonal elements are diagonalized by the two polynomial
families, and the generalized eigenvalue problem collapses to a plain one
through K**-2 X_{0,s} = Xtilde_{1,s}.
"""

from fractions import Fraction as F

from qracah import QBase
from qracah.multivar import nested_eigen_residual
from qracah.uqsl2 import (
    RepSpec,
    gens,
    gevp_rewrite_residual,
    relation_residuals,
    star_residual,
    twist_rewrite_residual,
)

qb = QBase(F(1, 2))
rs = RepSpec.su2(3, qb)

K, Ki, E, Fm = gens(rs)
print("K diagonal:", [K[n][n] for n in range(rs.dim)])
print("E subdiagonal:", [E[n][n - 1] for n in range(1, rs.dim)])

print("\ndefining relations:")
for name, res in relation_residuals(rs).items():
    print(f"  {name}: residual {res}")

print("star structure (E* = F):", star_residual(rs))

print("\npolynomial-in-K**2 rewrite of the twisted element:")
print("  residual:", twist_rewrite_residual(rs, 1, 0, 2, 1))
print("GEVP -> EVP rewrite residual:", gevp_rewrite_residual(rs, 2))

# the eigen-equation of the tilde element is the one-site chain's left one
print("\neigen-equation residuals (one per spectral point):")
for x in range(rs.dim):
    print(f"  x={x}:", nested_eigen_residual(qb, "L", 1, 1, 2, (rs.N,), (x,)))

# the truncated non-compact window: exact on the interior, the last row
# is fed from outside the truncation and is honestly flagged
rs11 = RepSpec.su11(2, 8, qb)
ef = "EF - FE - (K2-Kinv2)/(q-1/q)"
print("\nnon-compact EF relation: interior residual",
      relation_residuals(rs11, rs11.interior(1))[ef],
      "| full-matrix residual", relation_residuals(rs11)[ef])
