"""divbell: desk-scale numerical verification of a bilinear embedding for
divergence-form elliptic operators with nonnegative potentials.

The package evaluates an explicit two-variable Bellman function, certifies
its convexity-type inequalities numerically, discretizes the operator
L = -div(A grad u) + V u in flux form on rectangular grids, evolves the
associated semigroup with implicit schemes, and runs every link of the
embedding inequality's proof chain as an executable check.
"""

from .bellman import (
    BejazReport,
    BellmanParams,
    ComplexPair,
    RegionLabel,
    TauCertificate,
    check_bejaz,
    eval_Q,
    eval_phi,
    find_tau,
    first_form,
    grad_Q,
    grad_phi,
    mollified_Q,
    second_form,
)

__version__ = "0.1.0"

__all__ = [
    "BejazReport",
    "BellmanParams",
    "ComplexPair",
    "RegionLabel",
    "TauCertificate",
    "check_bejaz",
    "eval_Q",
    "eval_phi",
    "find_tau",
    "first_form",
    "grad_Q",
    "grad_phi",
    "mollified_Q",
    "second_form",
    "__version__",
]
