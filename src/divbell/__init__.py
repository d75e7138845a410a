"""divbell: desk-scale numerical verification of a bilinear embedding for
divergence-form elliptic operators with nonnegative potentials.

The package evaluates an explicit two-variable Bellman function, certifies
its range, convexity and drift bounds over arrays of points, discretizes
the operator L = -div(A grad u) + V u in flux form on rectangular grids,
evolves the associated semigroup with implicit schemes, and runs every link
of the embedding inequality's proof chain as an executable check.

The package exports the batched certification that ``divbell
bellman-verify`` runs; the scalar reference implementations that tests
compare it against live in ``tests/oracles.py``.
"""

from .bellman import BellmanParams, certify_batch, sample_certification_points

__version__ = "0.1.0"

__all__ = [
    "BellmanParams",
    "certify_batch",
    "sample_certification_points",
    "__version__",
]
