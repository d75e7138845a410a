"""Time evolution u(t) = exp(-t L_h) f by implicit schemes.

Backward Euler solves (I + dt L_h) u' = u per step; Crank-Nicolson solves
(I + dt/2 L_h) u' = (I - dt/2 L_h) u.  The linear systems are nonsymmetric
in general and are solved by diagonally preconditioned BiCGStab, with a
restarted GMRES fallback on breakdown.  A dense scaling-and-squaring
exponential is provided as a test oracle for small systems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DomainError
from .grids import GridFunction
from .operators import DiscreteOperator


class Scheme(enum.Enum):
    BACKWARD_EULER = "backward-euler"
    CRANK_NICOLSON = "crank-nicolson"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0.0:
            raise DomainError("solver tolerance must be positive")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time step dt up to horizon T with snapshots every
    ``snapshot_stride`` steps (t = 0 and t = T always included).

    T = 0 is allowed and yields the zero-step trajectory (0, f).
    """

    dt: float
    T: float
    scheme: Scheme = Scheme.CRANK_NICOLSON
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.T == 0.0:
            if not self.dt > 0.0:
                raise DomainError("dt must be positive")
            object.__setattr__(self, "_n_steps", 0)
            return
        if not (self.dt > 0.0 and self.T > 0.0 and self.dt <= self.T):
            raise DomainError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if self.snapshot_stride < 1:
            raise DomainError("snapshot stride must be >= 1")
        n = round(self.T / self.dt)
        if abs(n * self.dt - self.T) > 1e-9 * self.T:
            raise DomainError(f"T={self.T} is not a multiple of dt={self.dt}")
        object.__setattr__(self, "_n_steps", int(n))

    @property
    def n_steps(self) -> int:
        return self._n_steps

    def snapshot_steps(self) -> np.ndarray:
        if self.n_steps == 0:
            return np.zeros(1, dtype=np.int64)
        ks = list(range(0, self.n_steps + 1, self.snapshot_stride))
        if ks[-1] != self.n_steps:
            ks.append(self.n_steps)
        return np.asarray(ks, dtype=np.int64)

    def snapshot_times(self) -> np.ndarray:
        return self.snapshot_steps() * self.dt


def default_dt(grid, T: float) -> float:
    """Default step: min(h^2, T/200), rounded so it divides T."""
    h = min(grid.spacing)
    dt = min(h * h, T / 200.0)
    n = max(1, int(np.ceil(T / dt)))
    return T / n


@dataclass
class StepStats:
    method: str
    iterations: int
    residual: float


@dataclass
class Trajectory:
    """Snapshots (t_k, u(t_k)) of one evolution; t_0 = 0 holds the initial
    datum exactly."""

    grid: object
    times: np.ndarray
    values: np.ndarray = field(repr=False)  # (n_snapshots, n_nodes) complex
    stats: list[StepStats] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.times)


class _LinearStep:
    """One implicit step, with the matrices and preconditioner built once."""

    def __init__(self, op: DiscreteOperator, dt: float, scheme: Scheme,
                 solver: SolverConfig):
        self.solver = solver
        n = op.n
        eye = sp.identity(n, format="csr")
        if scheme is Scheme.BACKWARD_EULER:
            self.lhs = (eye + dt * op.matrix).tocsr()
            self.rhs_mat = None
        else:
            self.lhs = (eye + 0.5 * dt * op.matrix).tocsr()
            self.rhs_mat = (eye - 0.5 * dt * op.matrix).tocsr()
        d = self.lhs.diagonal()
        if np.any(d == 0.0):
            self.M = None
        else:
            inv = 1.0 / d
            self.M = spla.LinearOperator((n, n), matvec=lambda x: inv * x)

    def _solve_real(self, b: np.ndarray, x0: np.ndarray):
        if not np.any(b):
            return np.zeros_like(b), 0, "bicgstab"
        count = [0]

        def cb(_):
            count[0] += 1

        x, info = spla.bicgstab(self.lhs, b, x0=x0, rtol=self.solver.tol,
                                atol=0.0, maxiter=self.solver.max_iter,
                                M=self.M, callback=cb)
        if info == 0 and np.all(np.isfinite(x)):
            return x, count[0], "bicgstab"
        # restarted GMRES fallback on breakdown
        count = [0]
        x, info = spla.gmres(self.lhs, b, x0=x0, rtol=self.solver.tol, atol=0.0,
                             restart=50, maxiter=self.solver.max_iter, M=self.M,
                             callback=cb, callback_type="pr_norm")
        if info != 0 or not np.all(np.isfinite(x)):
            res = float(np.linalg.norm(self.lhs @ x - b) / np.linalg.norm(b))
            raise ConvergenceError("linear solve stagnated", count[0], res)
        return x, count[0], "gmres"

    def advance(self, u: np.ndarray) -> tuple[np.ndarray, StepStats]:
        b = u if self.rhs_mat is None else self.rhs_mat @ u
        if np.iscomplexobj(b) and np.any(b.imag):
            xr, i1, m1 = self._solve_real(np.ascontiguousarray(b.real),
                                          np.ascontiguousarray(u.real))
            xi, i2, m2 = self._solve_real(np.ascontiguousarray(b.imag),
                                          np.ascontiguousarray(u.imag))
            x = xr + 1j * xi
            iters = i1 + i2
            method = m1 if m1 == m2 else f"{m1}+{m2}"
        else:
            x, iters, method = self._solve_real(np.ascontiguousarray(b.real),
                                                np.ascontiguousarray(u.real))
            x = x.astype(np.complex128)
        bn = np.linalg.norm(b)
        residual = float(np.linalg.norm(self.lhs @ x - b) / bn) if bn > 0 else 0.0
        if residual > 10.0 * self.solver.tol:
            raise ConvergenceError("residual above tolerance after solve",
                                   iters, residual)
        return x, StepStats(method, iters, residual)


def step(op: DiscreteOperator, u: GridFunction, dt: float,
         scheme: Scheme = Scheme.CRANK_NICOLSON,
         solver: SolverConfig = SolverConfig()) -> GridFunction:
    """Advance u by one implicit step of size dt."""
    stepper = _LinearStep(op, dt, scheme, solver)
    x, _ = stepper.advance(u.flat)
    return GridFunction(u.grid, x)


def evolve(op: DiscreteOperator, f: GridFunction, timegrid: TimeGrid,
           solver: SolverConfig = SolverConfig()) -> Trajectory:
    """Compose steps up to the horizon, recording the requested snapshots."""
    if f.grid != op.grid:
        raise DomainError("initial datum does not live on the operator's grid")
    stepper = _LinearStep(op, timegrid.dt, timegrid.scheme, solver)
    snap_steps = timegrid.snapshot_steps()
    out = np.empty((len(snap_steps), op.n), dtype=np.complex128)
    out[0] = f.flat
    stats: list[StepStats] = []
    u = f.flat.copy()
    pos = 1
    for k in range(1, timegrid.n_steps + 1):
        u, st = stepper.advance(u)
        stats.append(st)
        if pos < len(snap_steps) and k == snap_steps[pos]:
            out[pos] = u
            pos += 1
    return Trajectory(grid=op.grid, times=snap_steps * timegrid.dt,
                      values=out, stats=stats)


DENSE_ORACLE_LIMIT = 1024


def dense_expm_oracle(op: DiscreteOperator, f: GridFunction, t: float) -> GridFunction:
    """exp(-t L_h) f through a dense scaling-and-squaring Pade exponential.

    Only intended as a test oracle; refuses systems above
    ``DENSE_ORACLE_LIMIT`` unknowns.
    """
    if op.n > DENSE_ORACLE_LIMIT:
        raise DomainError(
            f"dense exponential oracle limited to {DENSE_ORACLE_LIMIT} unknowns, got {op.n}")
    if t < 0.0:
        raise DomainError("the semigroup is only defined for t >= 0")
    E = scipy.linalg.expm(-t * op.matrix.toarray())
    return GridFunction(f.grid, E @ f.flat)


@dataclass
class ContractionReport:
    monotone_stencil: bool
    worst_ratio: float
    asserted: bool
    ok: bool
    per_step_bound: float = 1.0 + 1e-12


def linf_contraction_check(op: DiscreteOperator, traj: Trajectory,
                           per_step_bound: float = 1.0 + 1e-12) -> ContractionReport:
    """Per-step sup-norm monotonicity of consecutive snapshots.

    On monotone stencils (all off-diagonal entries of L_h nonpositive, so
    backward Euler is an M-matrix step) the bound is asserted; otherwise the
    worst observed ratio is reported without an assertion.
    """
    sups = np.max(np.abs(traj.values), axis=1)
    prev = sups[:-1]
    nxt = sups[1:]
    mask = prev > 0.0
    worst = float(np.max(nxt[mask] / prev[mask], initial=0.0))
    monotone = op.is_monotone_stencil()
    ok = worst <= per_step_bound
    return ContractionReport(monotone_stencil=monotone, worst_ratio=worst,
                             asserted=monotone, ok=(ok or not monotone),
                             per_step_bound=per_step_bound)
