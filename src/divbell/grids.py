"""Rectangular grids and real or complex grid functions.

Unknowns live on lattice vertices.  With n cells per axis on [lo, hi],
vertex i sits at lo + i*h, h = (hi - lo)/n.  One boundary rule fixes the
rest, per axis: a periodic axis has n vertices (vertex n is vertex 0), all
of them nodes; a Dirichlet axis has n + 1 vertices, of which 1..n-1 are
nodes (the boundary value is pinned to zero).  Shapes and coordinates
derive from that rule.  Face f joins vertices f and (f + 1) mod the vertex
count, so each axis has n faces, on the node lines across the other axes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError


class Boundary(enum.Enum):
    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid:
    cells: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    boundary: Boundary = Boundary.DIRICHLET

    def __post_init__(self):
        if not 1 <= len(self.cells) <= 3:
            raise DomainError(f"grid dimension must be 1, 2 or 3, got {len(self.cells)}")
        if len(self.lo) != len(self.cells) or len(self.hi) != len(self.cells):
            raise DomainError("extent tuples must match the grid dimension")
        for n, a, b in zip(self.cells, self.lo, self.hi):
            if n < 2:
                raise DomainError(f"need at least 2 cells per axis, got {n}")
            if not (np.isfinite(a) and np.isfinite(b)):
                raise DomainError(f"extent [{a}, {b}] is not finite")
            if not b > a:
                raise DomainError(f"empty extent [{a}, {b}]")
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        object.__setattr__(self, "lo", tuple(float(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(float(b) for b in self.hi))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def periodic(self) -> bool:
        return self.boundary is Boundary.PERIODIC

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / n for n, a, b in zip(self.cells, self.lo, self.hi))

    def vertex_count(self, axis: int) -> int:
        """Lattice points along an axis: n if periodic (vertex n is vertex 0),
        n + 1 if Dirichlet (the boundary ring carries coefficient samples)."""
        return self.cells[axis] + (0 if self.periodic else 1)

    def node_vertices(self, axis: int) -> np.ndarray:
        """Vertex index of each node along an axis, vertex_count - n up to
        n - 1: every vertex if periodic, vertices 1..n-1 if Dirichlet."""
        return np.arange(self.vertex_count(axis) - self.cells[axis], self.cells[axis])

    @cached_property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(len(self.node_vertices(a)) for a in range(self.dim))

    @cached_property
    def vertex_shape(self) -> tuple[int, ...]:
        return tuple(self.vertex_count(a) for a in range(self.dim))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_nodes(self, axis: int) -> np.ndarray:
        return self.lo[axis] + self.spacing[axis] * self.node_vertices(axis)

    def axis_vertices(self, axis: int) -> np.ndarray:
        return self.lo[axis] + self.spacing[axis] * np.arange(self.vertex_count(axis))

    def node_coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcast to node_shape."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def vertex_coords(self) -> list[np.ndarray]:
        axes = [self.axis_vertices(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def face_midpoints(self, axis: int) -> list[np.ndarray]:
        """Axis-a face midpoint coordinates: n along a, the node lines across."""
        per_axis = [self.axis_nodes(a) for a in range(self.dim)]
        per_axis[axis] = (self.lo[axis]
                          + self.spacing[axis] * (np.arange(self.cells[axis]) + 0.5))
        return list(np.meshgrid(*per_axis, indexing="ij"))


@dataclass
class GridFunction:
    """Scalar field on the grid nodes: float64 if given real, else complex128."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.asarray(self.values, dtype=dtype)
        if vals.shape == (self.grid.n_nodes,):
            vals = vals.reshape(self.grid.node_shape)
        if vals.shape != self.grid.node_shape:
            raise DomainError(
                f"values shape {vals.shape} does not match node shape {self.grid.node_shape}")
        self.values = vals

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def norm(self, p: float = 2.0) -> float:
        """L^p norm, cell-volume weights h^dim, from (|f| / max|f|)^p (no underflow)."""
        a = np.abs(self.flat)
        top = a.max(initial=0.0) or 1.0  # a zero field keeps norm 0
        return float(top * (self.grid.cell_volume * np.sum((a / top) ** p)) ** (1.0 / p))
