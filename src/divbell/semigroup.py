"""Time evolution u(t) = exp(-t L_h) f by implicit schemes.

Both schemes solve (I + theta dt L_h) x = u per step: backward Euler
(theta = 1) steps to u' = x, Crank-Nicolson (theta = 1/2) to u' = 2x - u,
so its x is the midpoint (u + u')/2.  Each solve output x is where its
scheme's energy identity (Crank-Nicolson) or inequality (backward Euler)
holds, and ``evolve`` can hand it to a per-step hook.  ``evolve`` advances
one datum or a tuple of data under one operator as one block, so P_t f
and P_t g share every step.  Up to ``DIRECT_LIMIT`` unknowns the
left-hand matrix is factored once by SuperLU and each step solves all
data columns in one call; above it each nonzero real and imaginary part
of each datum is solved as a real vector by diagonally preconditioned
BiCGStab, with a restarted GMRES fallback on breakdown, so no product
upcasts the real matrices to complex.  Both paths refuse a non-finite
right-hand side before solving and gate every column's per-step
residual.  A dense scaling-and-squaring exponential is provided as a test
oracle for small systems.
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
    # (n_snapshots, n_nodes) complex, or (k, n_snapshots, n_nodes) for k data
    values: np.ndarray = field(repr=False)
    stats: list[StepStats] = field(default_factory=list, repr=False)
    # per-step sums of a pair evolved as one block, one array shared by both
    # members' trajectories (``harness.run_scenario``)
    step_products: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.times)


# Largest system factored directly.  200 Crank-Nicolson steps of two data
# on random-accretive operators (best of 5, one BLAS thread, 2 vCPUs),
# direct against Krylov: 1D 1,023 unknowns 0.031 s / 0.65 s; 2D 961
# 0.061 / 0.075 s; 2D 2,209 0.16 / 0.12 s; 3D 1,331 0.20 / 0.10 s.  Fill-in
# makes SuperLU lose from about 2,000 unknowns in 2D, and in 3D already
# at 1,000 (0.13 / 0.09 s); the cutoff serves the 1D and 2D grids.
DIRECT_LIMIT = 1024


class _LinearStep:
    """One implicit step, with the matrices and the factor or the
    preconditioner built once."""

    def __init__(self, op: DiscreteOperator, dt: float, scheme: Scheme,
                 solver: SolverConfig):
        self.solver = solver
        self.midpoint = scheme is Scheme.CRANK_NICOLSON
        n = op.n
        theta = 0.5 if self.midpoint else 1.0
        self.lhs = (sp.identity(n, format="csr") + theta * dt * op.matrix).tocsr()
        self.lu = self.M = None
        if n <= DIRECT_LIMIT:
            self.lu = spla.splu(self.lhs.tocsc())
            return
        d = self.lhs.diagonal()
        if np.all(d != 0.0):
            inv = 1.0 / d
            self.M = spla.LinearOperator((n, n), matvec=lambda x: inv * x)

    def _solve_real(self, b: np.ndarray):
        count = [0]

        def cb(_):
            count[0] += 1

        x, info = spla.bicgstab(self.lhs, b, x0=b, rtol=self.solver.tol,
                                atol=0.0, maxiter=self.solver.max_iter,
                                M=self.M, callback=cb)
        if info == 0 and np.all(np.isfinite(x)):
            return x, count[0], "bicgstab"
        # restarted GMRES fallback on breakdown
        count = [0]
        x, info = spla.gmres(self.lhs, b, x0=b, rtol=self.solver.tol, atol=0.0,
                             restart=50, maxiter=self.solver.max_iter, M=self.M,
                             callback=cb, callback_type="pr_norm")
        if info != 0 or not np.all(np.isfinite(x)):
            res = float(np.linalg.norm(self.lhs @ x - b) / np.linalg.norm(b))
            raise ConvergenceError("linear solve stagnated", count[0], res)
        return x, count[0], "gmres"

    def advance(self, u: np.ndarray) -> tuple[np.ndarray, StepStats]:
        """Solve (I + theta dt L_h) x = u for the complex (n, k) block ``u``
        of k data; the caller steps to x (backward Euler) or 2x - u
        (Crank-Nicolson).

        The stats give the summed iterations and the worst column's
        relative residual; the method is "splu", or "gmres" if any column
        fell back from "bicgstab"."""
        if not np.all(np.isfinite(u)):
            raise ConvergenceError("non-finite right-hand side", 0, float("nan"))
        if self.lu is not None:
            # SuperLU refuses a complex right-hand side on a real factor:
            # solve the real (n, 2k) view, real and imaginary parts interleaved
            x = self.lu.solve(np.ascontiguousarray(u).view(np.float64))
            x = np.ascontiguousarray(x).view(np.complex128)
            iters, method = 0, "splu"
            bn = np.linalg.norm(u, axis=0)
            rn = np.linalg.norm(self.lhs @ x - u, axis=0)
        else:
            # each nonzero real and imaginary part on its own, as a contiguous
            # real vector: a datum's floats match its own evolution, and no
            # product copies the real matrices to complex
            parts = np.ascontiguousarray(u).view(np.float64)
            x = np.zeros_like(parts)
            rn2 = np.zeros(parts.shape[1])
            bn2 = np.zeros(parts.shape[1])
            iters, method = 0, "bicgstab"
            for c in range(parts.shape[1]):
                bp = np.ascontiguousarray(parts[:, c])
                if not np.any(bp):
                    continue
                xp, it, m = self._solve_real(bp)
                x[:, c] = xp
                r = self.lhs @ xp - bp
                rn2[c], bn2[c] = r @ r, bp @ bp
                iters += it
                if m == "gmres":
                    method = m
            x = x.view(np.complex128)
            # column j of the block is parts 2j (real) and 2j + 1 (imaginary)
            bn = np.sqrt(bn2[0::2] + bn2[1::2])
            rn = np.sqrt(rn2[0::2] + rn2[1::2])
        # a NaN norm must reach the gate, which fails on it
        residual = float(np.max(np.divide(rn, bn, out=np.zeros_like(rn), where=bn != 0)))
        if not residual <= 10.0 * self.solver.tol:
            raise ConvergenceError("residual above tolerance after solve",
                                   iters, residual)
        return x, StepStats(method, iters, residual)


def step(op: DiscreteOperator, u: GridFunction, dt: float,
         scheme: Scheme = Scheme.CRANK_NICOLSON,
         solver: SolverConfig = SolverConfig()) -> GridFunction:
    """Advance u by one implicit step of size dt."""
    traj = evolve(op, u, TimeGrid(dt=dt, T=dt, scheme=scheme), solver)
    return GridFunction(u.grid, traj.values[-1])


def evolve(op: DiscreteOperator, data: GridFunction | tuple[GridFunction, ...],
           timegrid: TimeGrid, solver: SolverConfig = SolverConfig(),
           on_step=None) -> Trajectory:
    """Compose steps up to the horizon, recording the requested snapshots.

    ``data`` is one initial datum or a tuple of k of them, advanced together
    as one block.  For a tuple, ``values`` has a leading data axis,
    (k, n_snapshots, n_nodes), and each step's stats cover all k columns.
    ``on_step``, if given, is called after every step with that step's
    (n_nodes, k) solve output x: u^(n+1) for backward Euler, the midpoint
    u^(n+1/2) for Crank-Nicolson.
    """
    single = isinstance(data, GridFunction)
    fs = (data,) if single else tuple(data)
    if any(f.grid != op.grid for f in fs):
        raise DomainError("initial datum does not live on the operator's grid")
    stepper = _LinearStep(op, timegrid.dt, timegrid.scheme, solver)
    snap_steps = timegrid.snapshot_steps()
    out = np.empty((len(fs), len(snap_steps), op.n), dtype=np.complex128)
    u = np.stack([f.flat for f in fs], axis=1)
    out[:, 0] = u.T
    stats: list[StepStats] = []
    pos = 1
    for k in range(1, timegrid.n_steps + 1):
        x, st = stepper.advance(u)
        u = 2.0 * x - u if stepper.midpoint else x
        stats.append(st)
        if on_step is not None:
            on_step(x)
        if pos < len(snap_steps) and k == snap_steps[pos]:
            out[:, pos] = u.T
            pos += 1
    return Trajectory(grid=op.grid, times=snap_steps * timegrid.dt,
                      values=out[0] if single else out, stats=stats)


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


# Largest sup-norm ratio of consecutive snapshots that counts as a contraction.
CONTRACTION_BOUND = 1.0 + 1e-12


def linf_contraction_check(op: DiscreteOperator, traj: Trajectory) -> ContractionReport:
    """Per-step sup-norm monotonicity of consecutive snapshots: the worst
    ratio of consecutive sup norms, and whether the stencil is monotone.

    On monotone stencils (all off-diagonal entries of L_h nonpositive, so
    backward Euler is an M-matrix step) the ratio is at most
    ``CONTRACTION_BOUND``; on others it is only reported.  ``traj`` must
    hold one datum, values of shape (n_snapshots, n_nodes).
    """
    if traj.values.ndim != 2:
        raise DomainError("the contraction check takes the trajectory of one datum, "
                          f"got values of shape {traj.values.shape}")
    sups = np.max(np.abs(traj.values), axis=1)
    prev = sups[:-1]
    nxt = sups[1:]
    mask = prev > 0.0
    worst = float(np.max(nxt[mask] / prev[mask], initial=0.0))
    return ContractionReport(monotone_stencil=op.is_monotone_stencil(), worst_ratio=worst)
