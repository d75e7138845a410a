"""Time evolution u(t) = exp(-t L_h) f by implicit schemes.

Both schemes solve (I + theta dt L_h) x = u per step: backward Euler
(theta = 1) steps to u' = x, Crank-Nicolson (theta = 1/2) to u' = 2x - u,
so its x is the midpoint (u + u')/2.  Each solve output x is where its
scheme's energy identity (Crank-Nicolson) or inequality (backward Euler)
holds, and ``evolve`` can hand it to a per-step hook.  ``evolve`` advances
one datum or a tuple of data under one operator as one block, so P_t f
and P_t g share every step.  The state is a set of real rows, one for
each nonzero real or imaginary part of each datum, so no product upcasts
the real matrices to complex.  Up to ``DIRECT_LIMIT`` unknowns
(``DIRECT_LIMIT_3D`` in 3D) the left-hand matrix is factored once by
SuperLU and each step solves all rows in one call.  Above it each row is
solved by Jacobi-preconditioned BiCGStab, whose breakdown test is
relative to the residual norms and so blind to the scale of the data,
with a restarted GMRES fallback on breakdown or non-convergence.  Each
Krylov solve starts from the polynomial extrapolation of that row's last
solve outputs (``EXTRAPOLATION``, degree 4 once five exist), and takes
its initial residual from the same combination of the products of those
outputs that the residual gate computed, so a solve costs its
iterations' matvecs plus the gate's one.  Both paths refuse a non-finite
right-hand side before solving and gate every datum's per-step residual
on a freshly computed product.  A dense scaling-and-squaring exponential
is provided as a test oracle for small systems.
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
    """Uniform time step dt up to the horizon T, 0 < dt <= T, with
    snapshots every ``snapshot_stride`` steps (t = 0 and t = T always
    included)."""

    dt: float
    T: float
    scheme: Scheme = Scheme.CRANK_NICOLSON
    snapshot_stride: int = 1

    def __post_init__(self):
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
        ks = list(range(0, self.n_steps + 1, self.snapshot_stride))
        if ks[-1] != self.n_steps:
            ks.append(self.n_steps)
        return np.asarray(ks, dtype=np.int64)


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
    """Snapshots (t_k, u(t_k)) of one evolution, at the time grid's snapshot
    steps, and the stats of every step; t_0 = 0 holds the initial datum
    exactly."""

    grid: object
    times: np.ndarray
    # (n_snapshots, n_nodes) complex, or (k, n_snapshots, n_nodes) for k data
    values: np.ndarray = field(repr=False)
    stats: list[StepStats] = field(default_factory=list, repr=False)


# Largest system factored directly, in one and two dimensions and in
# three.  200 Crank-Nicolson steps of two data on random-accretive
# operators (best of 9 in each of two runs, one BLAS thread, 2 vCPUs),
# direct against Krylov from the ``EXTRAPOLATION`` warm start: 1D 1,023
# unknowns 0.017 s / 0.15 s; 2D 529 0.019-0.021 / 0.022 s; 2D 729
# 0.026-0.027 / 0.024-0.025 s; 2D 961 0.034 / 0.027-0.033 s; 2D 2,209
# 0.083-0.089 / 0.044 s; 3D 216 0.014 / 0.016-0.017 s; 3D 343 0.019 /
# 0.019-0.020 s; 3D 512 0.028-0.029 / 0.021-0.022 s; 3D 729 0.043-0.046 /
# 0.024-0.032 s; 3D 1,000 0.067-0.069 / 0.028 s; 3D 1,331 0.11 / 0.032-
# 0.034 s.  Krylov wins from about 700 unknowns in 2D and 350 in 3D; the
# limits sit at the crossover of the linear warm start, where SuperLU
# lost from about 2,000 unknowns in 2D and at 729 in 3D.
DIRECT_LIMIT = 1024
DIRECT_LIMIT_3D = 512

# Krylov warm-start weights.  Row k - 1 holds, oldest output first, the
# weights (-1)^(k-1-j) C(k, j) that give the value at step n + 1 of the
# polynomial of degree k - 1 through a row's last k solve outputs
# x_(n-k+1), ..., x_n; k = 2 is the linear 2 x_n - x_(n-1).  Its length is
# the history depth.  BiCGStab matvecs over 200 Crank-Nicolson steps of
# two data on random-accretive 24^3, top degree 1 to 6: 1,341, 1,008, 706,
# 520, 435, 437.  Over the five presets at 64^2 and 24^3, both schemes,
# degree 4 takes 41-62% fewer than degree 1; degree 5 takes 8-17% fewer
# again in 3D but 1-5% more at 64^2.
EXTRAPOLATION = (
    (1.0,),
    (-1.0, 2.0),
    (1.0, -3.0, 3.0),
    (-1.0, 4.0, -6.0, 4.0),
    (1.0, -5.0, 10.0, -10.0, 5.0),
)

# BiCGStab breaks down when |rho| falls below this times ||r~|| ||r||.
# SciPy compares |rho| with eps^2 itself, which data of scale 1e-12 reach
# on every step; relative to the two norms the test is blind to scale.
BREAKDOWN = np.finfo(np.float64).eps ** 2


def _bicgstab(A, b, x, r, inv_diag, tol: float, max_iter: int):
    """Jacobi-preconditioned BiCGStab (van der Vorst 1992) for A x = b from
    the guess x with residual r = b - A x, both updated in place.

    Returns (x, converged, iterations): converged once the updated residual
    is below tol ||b||, with iterations counted as SciPy's ``bicgstab``
    callback counts them (an exit at a half step adds none)."""
    atol = tol * np.sqrt(b @ b)
    rt = r.copy()
    rt_norm = np.sqrt(rt @ rt)
    p = None
    for it in range(max_iter):
        r_norm = np.sqrt(r @ r)
        if r_norm < atol:
            return x, True, it
        rho = rt @ r
        if abs(rho) < BREAKDOWN * rt_norm * r_norm:
            return x, False, it
        if p is None:
            p = r.copy()
        else:
            if abs(omega) < BREAKDOWN:
                return x, False, it
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        phat = inv_diag * p
        v = A @ phat
        rv = rt @ v
        if rv == 0.0:
            return x, False, it
        alpha = rho / rv
        r -= alpha * v
        if np.sqrt(r @ r) < atol:
            x += alpha * phat
            return x, True, it
        shat = inv_diag * r
        t = A @ shat
        omega = (t @ r) / (t @ t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, False, max_iter


class _LinearStep:
    """One implicit step, with the matrices and the factor or the
    preconditioner built once.

    It solves real rows, each one real or imaginary part of one datum.  On
    the Krylov path it keeps the last ``len(EXTRAPOLATION)`` solve outputs
    of each row and their products with the left-hand matrix, from which
    the next solve of that row starts."""

    def __init__(self, op: DiscreteOperator, dt: float, scheme: Scheme,
                 solver: SolverConfig):
        self.solver = solver
        self.midpoint = scheme is Scheme.CRANK_NICOLSON
        n = op.n
        theta = 0.5 if self.midpoint else 1.0
        self.lhs = (sp.identity(n, format="csr") + theta * dt * op.matrix).tocsr()
        self.lu = None
        # (x, lhs @ x) of the last solve outputs of every (rows, n) block,
        # output i in slot i mod len(EXTRAPOLATION); ``stored`` counts them
        self.history: np.ndarray | None = None
        self.stored = 0
        if n <= (DIRECT_LIMIT_3D if op.grid.dim == 3 else DIRECT_LIMIT):
            self.lu = spla.splu(self.lhs.tocsc())
            return
        d = self.lhs.diagonal()
        self.inv_diag = 1.0 / d if np.all(d != 0.0) else np.ones(n)

    def _gmres(self, b: np.ndarray):
        """Restarted GMRES from x0 = b, the fallback when BiCGStab breaks
        down or does not converge."""
        count = [0]

        def cb(_):
            count[0] += 1

        x, info = spla.gmres(self.lhs, b, x0=b, rtol=self.solver.tol, atol=0.0,
                             restart=50, maxiter=self.solver.max_iter,
                             M=sp.diags(self.inv_diag), callback=cb,
                             callback_type="pr_norm")
        if info != 0 or not np.all(np.isfinite(x)):
            res = float(np.linalg.norm(self.lhs @ x - b) / np.linalg.norm(b))
            raise ConvergenceError("linear solve stagnated", count[0], res)
        return x, count[0]

    def _krylov(self, b: np.ndarray):
        """Solve each row of ``b``; return the outputs, their products with
        the left-hand matrix, the summed iterations and the method.

        With k = min(stored, len(EXTRAPOLATION)) outputs at hand, a row
        starts from their extrapolation of degree k - 1 and takes its
        initial residual from the same combination of their stored
        products, so the solve adds no matvec of its own; x0 and r0 of all
        rows come from one weighted sum over the history.  The first solve
        starts from x0 = b."""
        m = len(EXTRAPOLATION)
        if self.history is None or self.history.shape[2:] != b.shape:
            self.history = np.zeros((m, 2) + b.shape)
            self.stored = 0
        k = min(self.stored, m)
        if k:
            w = np.zeros(m)
            w[(self.stored - k + np.arange(k)) % m] = EXTRAPOLATION[k - 1]
            x_start, y_start = (w @ self.history.reshape(m, -1)).reshape(self.history.shape[1:])
            r_start = b - y_start
        x = np.empty_like(b)
        y = np.empty_like(b)
        iters, method = 0, "bicgstab"
        for i, bi in enumerate(b):
            if k:
                x0, r0 = x_start[i], r_start[i]
            else:
                x0 = bi.copy()
                r0 = bi - self.lhs @ x0
            xi, converged, it = _bicgstab(self.lhs, bi, x0, r0, self.inv_diag,
                                          self.solver.tol, self.solver.max_iter)
            if not (converged and np.all(np.isfinite(xi))):
                xi, it = self._gmres(bi)
                method = "gmres"
            x[i] = xi
            y[i] = self.lhs @ xi
            iters += it
        slot = self.history[self.stored % m]
        slot[0] = x
        slot[1] = y
        self.stored += 1
        return x, y, iters, method

    def advance_rows(self, b: np.ndarray, datum: np.ndarray) -> tuple[np.ndarray, StepStats]:
        """Solve (I + theta dt L_h) x = b for the C-contiguous real (r, n)
        rows ``b``, row i a real or imaginary part of datum ``datum[i]``.

        The stats give the summed iterations and the worst datum's relative
        residual, from a product of each output computed afresh; the method
        is "splu", or "gmres" if any row fell back from "bicgstab"."""
        if not np.all(np.isfinite(b)):
            raise ConvergenceError("non-finite right-hand side", 0, float("nan"))
        if self.lu is not None:
            x = np.ascontiguousarray(self.lu.solve(b.T).T)
            y = (self.lhs @ x.T).T
            iters, method = 0, "splu"
        else:
            x, y, iters, method = self._krylov(b)
        r = y - b
        rn2 = np.bincount(datum, np.einsum("ij,ij->i", r, r))
        bn2 = np.bincount(datum, np.einsum("ij,ij->i", b, b))
        # a NaN norm must reach the gate, which fails on it
        ratio = np.divide(rn2, bn2, out=np.zeros(rn2.shape), where=bn2 != 0)
        residual = float(np.sqrt(np.max(ratio, initial=0.0)))
        if not residual <= 10.0 * self.solver.tol:
            raise ConvergenceError("residual above tolerance after solve",
                                   iters, residual)
        return x, StepStats(method, iters, residual)


def _real_rows(u: np.ndarray):
    """The nonzero real and imaginary parts of the complex (n, k) block
    ``u`` as C-contiguous real rows, and the index 2j + c of each: part c
    (0 real, 1 imaginary) of datum j."""
    parts = np.stack([u.real.T, u.imag.T], axis=1).reshape(-1, u.shape[0])
    part = np.flatnonzero(parts.any(axis=1))
    return parts[part], part


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
    (k, n_snapshots, n_nodes), and each step's stats cover all k data.

    The state is held as real rows, one for each nonzero real or imaginary
    part of each datum, in datum order and real part first; a real L_h
    never makes a zero part nonzero, so the rows are chosen once.
    ``on_step``, if given, is called after every step with that step's
    (rows, n_nodes) solve output x and the datum index of each row: x is
    u^(n+1) for backward Euler, the midpoint u^(n+1/2) for Crank-Nicolson.
    """
    single = isinstance(data, GridFunction)
    fs = (data,) if single else tuple(data)
    if any(f.grid != op.grid for f in fs):
        raise DomainError("initial datum does not live on the operator's grid")
    stepper = _LinearStep(op, timegrid.dt, timegrid.scheme, solver)
    snap_steps = timegrid.snapshot_steps()
    out = np.zeros((len(fs), len(snap_steps), op.n), dtype=np.complex128)
    out[:, 0] = [f.flat for f in fs]
    u, part = _real_rows(out[:, 0].T)
    datum = part // 2
    targets = [(out.real, out.imag)[c % 2][c // 2] for c in part]
    stats: list[StepStats] = []
    pos = 1
    for k in range(1, timegrid.n_steps + 1):
        x, st = stepper.advance_rows(u, datum)
        u = 2.0 * x - u if stepper.midpoint else x
        stats.append(st)
        if on_step is not None:
            on_step(x, datum)
        if pos < len(snap_steps) and k == snap_steps[pos]:
            for target, row in zip(targets, u):
                target[pos] = row
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
