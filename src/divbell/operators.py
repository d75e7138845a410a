"""Flux-form discretization of L = -div(A grad u) + V u on rectangular grids.

L_h = sum_a G_a^T diag(abar_aa) G_a + sum_{a != b} C_a^T diag(a_ab) C_b + diag(V),
a 3/9/19-point stencil (1D/2D/3D).  G_a is the staggered difference along
axis a (nodes to a-faces), abar_aa the mean of a_aa over each a-face's two
vertices, and C_a the node-centred difference (u(x + e_a) - u(x - e_a)) /
(2 h_a), with zero extension on a Dirichlet axis and wrapping on a periodic
one (C_a = 0 on 2 cells).  Cross coefficients a_ab are read at nodes only.

The accretivity Re <L_h u, u> >= gamma ||G u||^2 + <V u, u> is exact, with
gamma = ``CoefficientField.gamma``.  Split each face's abar_aa |G_a u|^2
evenly between its vertices.  At a node x, c_a = C_a u(x) is the mean of
G_a u on the two a-faces at x, so |c_a|^2 <= m_a, the mean of their squares,
and x gets sum_a a_aa(x) (m_a - |c_a|^2) + <sym A(x) c, c> >= lambda(x)
sum_a m_a, as a_aa(x) >= lambda(x), the least eigenvalue of sym A(x).  A
boundary vertex gets a_aa >= gamma times its half square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

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
    average is well defined.  Construction decides accretivity once:
    ``least_eig`` is each sample's least eigenvalue of (A + A^T)/2, and
    ``gamma`` their minimum.  A field with gamma <= 0 is built, not
    rejected; ``assemble`` rejects it.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    least_eig: np.ndarray = field(init=False, repr=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        d = self.grid.dim
        want = self.grid.vertex_shape + (d, d)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != want:
            raise DomainError(f"coefficient shape {vals.shape}, expected {want}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("coefficient samples must be finite")
        self.values = vals
        eig = np.linalg.eigvalsh(self.sym.reshape(-1, d, d))
        # a copy, so the other d - 1 eigenvalues per sample are freed
        self.least_eig = eig[:, 0].reshape(self.grid.vertex_shape).copy()
        self.gamma = float(self.least_eig.min())

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
    def sym(self) -> np.ndarray:
        """Per-sample symmetric part (a_ij + a_ji)/2, formed on each read."""
        return 0.5 * (self.values + np.swapaxes(self.values, -1, -2))

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
# nodal reads, the gradient and the assembly
# ---------------------------------------------------------------------------

def _at_nodes(grid: Grid, W: np.ndarray, shift) -> np.ndarray:
    """The vertex array ``W`` (vertex_shape leading) at the nodes moved by
    ``shift``, -1, 0 or 1 per axis: a slice on a Dirichlet grid, whose
    boundary ring holds the moves off the nodes, a wrapped copy if periodic."""
    if grid.periodic:
        return np.roll(W, [-s for s in shift], axis=tuple(range(grid.dim)))
    return W[tuple(slice(1 + s, m - 1 + s) for s, m in zip(shift, grid.vertex_shape))]


@lru_cache(maxsize=32)
def _gradient(grid: Grid) -> sp.csr_matrix:
    """G: nodes -> faces, the axis-a differences G_a stacked in axis order.
    Face f joins vertices f and (f + 1) mod the vertex count m, which
    closes a periodic axis; G_a is that incidence on the axis's node
    vertices, over h_a, times the identity across the other axes."""
    shape, blocks = grid.node_shape, []
    for a, (n, m) in enumerate(zip(grid.cells, grid.vertex_shape)):
        D = (sp.eye(n, m, 1) + sp.eye(n, m, 1 - m) - sp.eye(n, m)).tocsr() / grid.spacing[a]
        blocks.append(sp.kron(sp.kron(sp.identity(int(np.prod(shape[:a]))),
                                      D[:, grid.node_vertices(a)]),
                              sp.identity(int(np.prod(shape[a + 1:]))), format="csr"))
    return sp.vstack(blocks, format="csr")


@dataclass
class DiscreteOperator:
    """Sparse L_h with its potential and coefficient field."""

    grid: Grid
    matrix: sp.csr_matrix = field(repr=False)
    potential: np.ndarray = field(repr=False)        # V per node, flat
    coefficients: CoefficientField = field(repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def gradient(self) -> sp.csr_matrix:
        """G: nodes -> faces, one per grid."""
        return _gradient(self.grid)

    def is_monotone_stencil(self) -> bool:
        """True when no off-diagonal entry of L_h exceeds 1e-12 times its
        largest |entry|, so the backward Euler step matrix is an M-matrix."""
        off = (self.matrix - sp.diags(self.matrix.diagonal())).data
        return bool(off.max(initial=-np.inf) <= 1e-12 * np.abs(self.matrix.data).max())

    def step_matrix(self, scale: float) -> sp.csr_matrix:
        """I + scale L_h, sharing L_h's indices and indptr, which hold its diagonal."""
        L = self.matrix
        data = scale * L.data
        data[L.indices == np.repeat(np.arange(self.n, dtype=L.indices.dtype),
                                    np.diff(L.indptr))] += 1.0
        return sp.csr_matrix((data, L.indices, L.indptr), shape=L.shape)


def assemble(grid: Grid, A: CoefficientField, V: PotentialField) -> DiscreteOperator:
    """L_h from its stencil: each node's coefficient for each move (0,
    +-e_a, +-e_a +- e_b) fills an (n_nodes, moves) array beside the move's
    wrapped column, compressed in place into one CSR matrix.  A move off a
    Dirichlet grid gets 0 and is dropped; periodic rows are sorted, and the
    moves that meet across a 2-cell axis summed.  Raises DomainError, citing
    gamma, when the coefficient field is not accretive."""
    if A.grid != grid or V.grid != grid:
        raise DomainError("coefficient/potential fields must live on the given grid")
    if A.gamma <= 0.0:
        raise DomainError(f"coefficient field is not accretive: gamma = {A.gamma}")
    d, shape, h = grid.dim, grid.node_shape, grid.spacing
    # in lexicographic order, so Dirichlet rows come out sorted
    moves = [o for o in product((-1, 0, 1), repeat=d) if d - o.count(0) <= 2]
    data = np.zeros((grid.n_nodes, len(moves)))
    cols = np.empty(data.shape, dtype=np.int32)
    nodes = np.arange(grid.n_nodes, dtype=np.int32).reshape(shape)
    coef = {o: data[:, k].reshape(shape) for k, o in enumerate(moves)}     # views
    for k, o in enumerate(moves):
        cols[:, k] = np.roll(nodes, [-s for s in o], axis=tuple(range(d))).ravel()
    e, centre = np.eye(d, dtype=int), (0,) * d
    for a in range(d):
        W = A.values[..., a, a]
        for s in (-1, 1):
            # a_aa averaged over the face between x and x + s e_a
            face = (_at_nodes(grid, W, centre) + _at_nodes(grid, W, s * e[a])) * (0.5 / h[a] ** 2)
            coef[tuple(s * e[a])] -= face
            coef[centre] += face
            for b in set(range(d)) - {a}:
                # C_a^T diag(a_ab) C_b, with a_ab read at the node x + s e_a
                cross = _at_nodes(grid, A.values[..., a, b], s * e[a]) / (4.0 * h[a] * h[b])
                for t in (-1, 1):
                    coef[tuple(s * e[a] + t * e[b])] -= s * t * cross
    coef[centre] += V.values
    inside = np.pad(np.ones(shape), 0 if grid.periodic else 1)     # 0 on the boundary ring
    for o, c in coef.items():
        c *= _at_nodes(grid, inside, o)     # 0 where the move leaves a Dirichlet grid
    L = sp.csr_matrix((data.ravel(), cols.ravel(),
                       np.arange(0, data.size + 1, len(moves), dtype=np.int32)),
                      shape=(grid.n_nodes,) * 2)
    L.eliminate_zeros()
    L.sum_duplicates()
    L.eliminate_zeros()     # the cross moves that cancel across a 2-cell periodic axis
    return DiscreteOperator(grid=grid, matrix=L, potential=V.values.ravel(), coefficients=A)


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
    return _at_nodes(A.grid, A.values, (0,) * A.grid.dim).reshape((-1,) + A.values.shape[-2:])
