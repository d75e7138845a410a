"""Flux-form discretization of L = -div(A grad u) + V u on rectangular grids.

The operator is assembled as L_h = G^T A_h G + diag(V):

* G is the staggered first-difference gradient (nodes to faces),
* A_h acts on the concatenated face space.  Diagonal entries a_aa are
  averaged onto each face from its two endpoint lattice samples; the
  cross entries a_ab (a != b) couple an axis-a face to the four axis-b
  faces sharing one of its endpoints, with weight a_ab(shared vertex)/4.

That arrangement keeps the discrete accretivity exact: grouping the real
part of <A_h w, w> by lattice vertex and applying Jensen's inequality to
the per-vertex face averages gives Re <A_h w, w> >= gamma ||w||^2 for every
complex face field w, with gamma the minimum eigenvalue of the symmetrized
coefficient samples.  The antisymmetric part of A cancels in the real part
because the (f, g) and (g, f) couplings are placed transpose-symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .grids import Grid


# ---------------------------------------------------------------------------
# coefficient and potential fields
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """Real dim x dim coefficient matrices sampled on the lattice vertices.

    On Dirichlet grids the samples include the boundary ring, so every face
    average is well defined.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.grid.dim
        want = self.grid.vertex_shape + (d, d)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != want:
            raise DomainError(f"coefficient shape {vals.shape}, expected {want}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("coefficient samples must be finite")
        self.values = vals

    @classmethod
    def constant(cls, grid: Grid, matrix) -> "CoefficientField":
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (grid.dim, grid.dim):
            raise DomainError(f"matrix shape {m.shape} does not match dim {grid.dim}")
        vals = np.broadcast_to(m, grid.vertex_shape + m.shape).copy()
        return cls(grid, vals)

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        return cls.constant(grid, np.eye(grid.dim))

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass
class PotentialField:
    """Nonnegative scalar potential sampled on the grid nodes."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape == (self.grid.n_nodes,):
            vals = vals.reshape(self.grid.node_shape)
        if vals.shape != self.grid.node_shape:
            raise DomainError(
                f"potential shape {vals.shape}, expected {self.grid.node_shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("potential must be finite at every node")
        if np.any(vals < 0.0):
            raise DomainError("potential must be nonnegative at every node")
        self.values = vals

    @classmethod
    def zero(cls, grid: Grid) -> "PotentialField":
        return cls(grid, np.zeros(grid.node_shape))


def check_accretive(A: CoefficientField) -> float:
    """gamma = min over samples of the smallest eigenvalue of (A + A^T)/2.

    The field is admissible iff the result is positive; a nonpositive value
    is returned, not raised.
    """
    sym = 0.5 * (A.values + np.swapaxes(A.values, -1, -2))
    eig = np.linalg.eigvalsh(sym.reshape(-1, A.grid.dim, A.grid.dim))
    return float(eig[:, 0].min())


def symmetrize(A: CoefficientField) -> CoefficientField:
    """Per-sample symmetric part (a_ij + a_ji)/2."""
    return CoefficientField(A.grid, 0.5 * (A.values + np.swapaxes(A.values, -1, -2)))


def matrix_sqrt_spd(M: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square root of a stack of small SPD
    matrices, via eigendecomposition.  Raises DomainError on non-SPD input."""
    M = np.asarray(M, dtype=np.float64)
    d = M.shape[-1]
    if M.shape[-2] != d:
        raise DomainError("input must be square matrices")
    if np.abs(M - np.swapaxes(M, -1, -2)).max() > 1e-12 * max(np.abs(M).max(), 1e-300):
        raise DomainError("input matrices must be symmetric")
    w, V = np.linalg.eigh(M.reshape(-1, d, d))
    lam_min = float(w[:, 0].min())
    if lam_min <= 0.0:
        raise DomainError(f"matrix not positive definite (lambda_min = {lam_min})")
    S = np.einsum("nij,nj,nkj->nik", V, np.sqrt(w), V)
    return S.reshape(M.shape)


# ---------------------------------------------------------------------------
# sparse building blocks (cached per grid)
# ---------------------------------------------------------------------------

def _axis_maps(grid: Grid, axis: int):
    """One axis's sparse maps, all read off its face-vertex incidence D:
    face f joins vertices f and (f + 1) mod the vertex count, which closes a
    periodic axis, and the nodes sit at the axis's node vertices.  Returns
    the difference D / h on the nodes (faces x nodes), the vertex-to-face
    average |D| / 2 and the vertex-to-node selection."""
    n, m = grid.cells[axis], grid.vertex_count(axis)
    nodes = grid.node_vertices(axis)
    faces = np.arange(n)
    D = sp.csr_matrix((np.repeat([-1.0, 1.0], n),
                       (np.tile(faces, 2), np.concatenate([faces, (faces + 1) % m]))),
                      shape=(n, m))
    select = sp.csr_matrix((np.ones(len(nodes)), (np.arange(len(nodes)), nodes)),
                           shape=(len(nodes), m))
    return D[:, nodes] / grid.spacing[axis], abs(D) / 2, select


def _kron(mats) -> sp.csr_matrix:
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), mats)


@lru_cache(maxsize=32)
def _grid_maps(grid: Grid):
    """Per-grid sparse maps: gradient G_a and vertex-to-face T_a per axis a,
    and the vertex-to-node restriction R."""
    d = grid.dim
    diffs, avgs, selects = zip(*(_axis_maps(grid, a) for a in range(d)))
    eye_nodes = [sp.identity(m, format="csr") for m in grid.node_shape]

    def per_axis(along, across):
        """Axis a's map: ``along[a]`` on axis a, ``across[b]`` on every other b."""
        return [_kron([along[b] if b == a else across[b] for b in range(d)]) for a in range(d)]

    return per_axis(diffs, eye_nodes), per_axis(avgs, selects), _kron(selects)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOperator:
    """Sparse L_h with its flux-form factors retained."""

    grid: Grid
    matrix: sp.csr_matrix = field(repr=False)
    gradient: sp.csr_matrix = field(repr=False)      # G: nodes -> faces
    face_action: sp.csr_matrix = field(repr=False)   # A_h: faces -> faces
    potential: np.ndarray = field(repr=False)        # V per node, flat
    gamma: float = 0.0
    coefficients: CoefficientField | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def is_monotone_stencil(self) -> bool:
        """True when no off-diagonal entry of L_h exceeds 1e-12 times its
        largest |entry|, so the backward Euler step matrix is an M-matrix."""
        c = self.matrix.tocoo()
        off = c.row != c.col
        if not off.any():
            return True
        scale = max(abs(c.data).max(), 1e-300)
        return bool(c.data[off].max(initial=-np.inf) <= 1e-12 * scale)


def assemble(grid: Grid, A: CoefficientField, V: PotentialField) -> DiscreteOperator:
    """Assemble L_h = G^T A_h G + diag(V).

    Raises DomainError, citing gamma, when the coefficient field is not
    accretive.
    """
    if A.grid != grid or V.grid != grid:
        raise DomainError("coefficient/potential fields must live on the given grid")
    gamma = check_accretive(A)
    if gamma <= 0.0:
        raise DomainError(f"coefficient field is not accretive: gamma = {gamma}")
    d = grid.dim
    grads, t_maps, _ = _grid_maps(grid)
    G = sp.vstack(grads, format="csr")
    blocks = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            coeff = A.values[..., a, b].ravel()
            if a == b:
                blocks[a][b] = sp.diags(t_maps[a] @ coeff)
            else:
                # each (a-face, b-face) pair shares one vertex and inherits
                # weight 1/4 from the two averaging maps
                blocks[a][b] = t_maps[a] @ sp.diags(coeff) @ t_maps[b].T
    Ah = sp.bmat(blocks, format="csr")
    Vflat = V.values.ravel()
    L = (G.T @ Ah @ G + sp.diags(Vflat)).tocsr()
    return DiscreteOperator(grid=grid, matrix=L, gradient=G, face_action=Ah,
                            potential=Vflat, gamma=gamma, coefficients=A)


def grad_sq_at_nodes(grid: Grid, u: np.ndarray) -> np.ndarray:
    """|grad_h u|^2 averaged to nodes: per axis the arithmetic mean of the
    squared differences on the two adjacent faces, for the real (n_nodes, k)
    array ``u`` of k fields, with an (n_nodes, k) result.  A complex field's
    value is the sum of those of its real and imaginary parts, which the
    caller splits; a complex ``u`` raises DomainError.

    The differences are strided ones along each axis of the node-major
    (node_shape, k) array, written into a face array with one face more
    than nodes along that axis: the interior faces between neighbouring
    nodes, and the two boundary faces from the edge values, against the
    zero extension on a Dirichlet axis or both across the wrap face on a
    periodic one.  Node i then adds the squares of faces i and i + 1.
    """
    if np.iscomplexobj(u):
        raise DomainError("grad_sq_at_nodes takes real fields; split complex ones "
                          "into their real and imaginary parts")
    x = np.ascontiguousarray(u, dtype=np.float64).reshape(grid.node_shape + (-1,))
    h0 = grid.spacing[0]
    for a, h in enumerate(grid.spacing):
        def at(s):
            """Index ``s`` along axis a."""
            return (slice(None),) * a + (s,)

        faces = np.empty(x.shape[:a] + (x.shape[a] + 1,) + x.shape[a + 1:])
        np.subtract(x[at(slice(1, None))], x[at(slice(None, -1))], out=faces[at(slice(1, -1))])
        if grid.periodic:
            np.subtract(x[at(0)], x[at(-1)], out=faces[at(0)])
            faces[at(-1)] = faces[at(0)]
        else:
            faces[at(0)] = x[at(0)]
            faces[at(-1)] = x[at(-1)]
        faces *= faces
        if h != h0:     # every axis is scaled by 1/(2 h0^2) at the end
            faces *= (h0 / h) ** 2
        if a == 0:
            out = np.add(faces[at(slice(None, -1))], faces[at(slice(1, None))])
        else:
            out += faces[at(slice(None, -1))]
            out += faces[at(slice(1, None))]
    out = out.reshape(grid.n_nodes, -1)
    out *= 0.5 / (h0 * h0)
    return out


def node_coefficients(A: CoefficientField) -> np.ndarray:
    """Coefficient samples restricted to the node lattice, (n_nodes, d, d)."""
    grid = A.grid
    d = grid.dim
    return (_grid_maps(grid)[2] @ A.values.reshape(-1, d * d)).reshape(grid.n_nodes, d, d)
