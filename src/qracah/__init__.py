"""Exact and certified evaluation of q-Racah-type rational overlap functions.

The package computes, with exact rational arithmetic wherever the inputs
allow it, the two discrete orthogonal families (finite and infinite), their
rational overlap functions and multivariate nested extensions, and the
quantum-algebra operator identities connecting them; and it machine-checks
every identity on deterministic parameter grids (``qracah verify``).
"""

from .errors import (
    DenominatorPole,
    DimensionMismatch,
    ExactnessError,
    InternalError,
    NonConvergent,
    OutOfRange,
    QRacahError,
)
from .scalar import QBase
from .qseries import (
    PhiSpec,
    TailBound,
    certified_sum,
    qbinom,
    qpoch,
    qpoch_inf,
    qpoch_inf_ratio,
    rphis,
    summation_lhs,
    summation_pair_qracah,
    summation_rhs,
)
from .orthopoly import (
    ASCParams,
    KrawParams,
    asc,
    asc_W,
    asc_d_coeffs,
    asc_diff_coeffs,
    asc_dyn_coeffs,
    asc_orth_n,
    asc_orth_x,
    asc_w,
    kraw,
    kraw_W,
    kraw_b_coeffs,
    kraw_diff_coeffs,
    kraw_dyn_coeffs,
    kraw_orth_n,
    kraw_orth_x,
    kraw_w,
)
from .uqsl2 import OpMatrix, RepSpec, coproduct_op, gens, twist_x, twist_y
from .ratfun import (
    PrParams,
    RrParams,
    pr_biorth_residual,
    pr_closed,
    pr_inner,
    pr_valid,
    rr_closed,
    rr_inner,
    rr_valid,
)
from .multivar import (
    epsilon_set,
    heights,
    multi_biorth_residual,
    multi_gevp_residual,
    nested_asc,
    nested_kraw,
    pr_multi,
    rr_multi,
)
from .report import CheckReport
from .verify import SUITE_IDS, RunConfig, run_suite

__version__ = "0.1.0"
