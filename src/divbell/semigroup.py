"""Time evolution u(t) = exp(-t L_h) f by implicit schemes.

Both schemes solve (I + theta dt L_h) x = u per step: backward Euler
(theta = 1) steps to u' = x, Crank-Nicolson (theta = 1/2) to u' = 2x - u,
so its x is the midpoint (u + u')/2.  Each solve output x is where its
scheme's energy identity (Crank-Nicolson) or inequality (backward Euler)
holds, and ``evolve`` can hand it to a per-step hook.  ``evolve`` advances
one datum or a tuple of data under one operator as one block, so P_t f
and P_t g share every step.  It also advances a batch of operators that
share one time grid and one solver configuration as one block-diagonal
system in one time loop; one operator is a batch of one.  The state is a
set of real rows over the batch's unknowns, each holding on an
operator's segment one nonzero real or imaginary part of one of its data
(or zeros), so no product upcasts the real matrices to complex.  When
every operator is within ``DIRECT_LIMIT`` unknowns (``DIRECT_LIMIT_3D``
in 3D), the block-diagonal left-hand matrix is factored once by SuperLU
and each step solves all rows in one call.  If any operator is above its
limit, every operator goes Krylov: each of its row segments is solved on
its own, with its matrix and Jacobi diagonal, by BiCGStab, whose
breakdown test is relative to the residual norms and so blind to the
scale of the data, with a restarted GMRES fallback on breakdown or
non-convergence; so each operator's iterations are those of its single
evolution.  Each Krylov solve starts from the polynomial extrapolation of
that row's last solve outputs (``EXTRAPOLATION``, degree 4 once five
exist), and takes its initial residual from the same combination of the
products of those outputs that the residual gate computed, so a solve
costs its iterations' matvecs plus the gate's one.  Both paths refuse a
non-finite right-hand side before solving and gate the per-step residual
of every (operator, datum) on a freshly computed product, from segment
sums over the operators' offsets, so a small operator's residual never
hides behind a large one's norm; each operator gets its own step stats.
A dense scaling-and-squaring exponential is provided as a test oracle for
small systems.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DomainError
from .grids import GridFunction
from .operators import DiscreteOperator


# A step passes its residual gate when every (operator, datum) relative
# residual is at most RESIDUAL_GATE * tol.
RESIDUAL_GATE = 10.0


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
    # (n_snapshots, n_nodes), or (k, n_snapshots, n_nodes) for k data;
    # complex only if some datum has a nonzero imaginary part, else float64
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


class _KrylovBlock:
    """The Krylov solves of one operator of a batch: its left-hand matrix,
    its Jacobi diagonal, and the last ``len(EXTRAPOLATION)`` solve outputs
    of each of its rows with their products, from which the next solve of
    that row starts."""

    def __init__(self, lhs: sp.csr_matrix, solver: SolverConfig):
        self.lhs = lhs
        self.solver = solver
        d = lhs.diagonal()
        self.inv_diag = 1.0 / d if np.all(d != 0.0) else np.ones(lhs.shape[0])
        # (x, lhs @ x) of the last solve outputs of the (rows, n) block,
        # output i in slot i mod len(EXTRAPOLATION); ``stored`` counts them
        self.history: np.ndarray | None = None
        self.stored = 0

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

    def solve(self, b: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Solve each row of ``b`` into that row of ``x``, and write its
        product with the left-hand matrix into ``y``; return the summed
        iterations and the method.

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
        return iters, method


class _LinearStep:
    """One implicit step of a batch of operators, the block-diagonal system
    diag(I + theta dt L_b), with the factor or the preconditioners built
    once.  Operator b's unknowns are the segment ``bounds[b]:bounds[b + 1]``
    of every row."""

    def __init__(self, ops, dt: float, scheme: Scheme, solver: SolverConfig):
        self.solver = solver
        self.midpoint = scheme is Scheme.CRANK_NICOLSON
        theta = 0.5 if self.midpoint else 1.0
        lhs = [op.step_matrix(theta * dt) for op in ops]
        self.bounds = np.cumsum([0] + [op.n for op in ops])
        self.lu = None
        if all(op.n <= (DIRECT_LIMIT_3D if op.grid.dim == 3 else DIRECT_LIMIT) for op in ops):
            self.matrix = sp.block_diag(lhs, format="csr")
            self.lu = spla.splu(self.matrix.tocsc())
        else:
            self.krylov = [_KrylovBlock(block, solver) for block in lhs]

    def advance_rows(self, b: np.ndarray, datum: np.ndarray) -> tuple[np.ndarray, list[StepStats]]:
        """Solve the batch's system for the C-contiguous real (r, N) rows
        ``b``: ``datum[i, k]`` is the datum whose part row i holds on
        operator k's segment, or -1 where that segment is zero.  A zero
        segment must lie below every nonzero one of its operator.

        Each operator's stats give its summed iterations and its worst
        datum's relative residual, from a product of each output computed
        afresh, so no datum's residual is measured against another's norm;
        the method is "splu", or "gmres" if any of its rows fell back from
        "bicgstab"."""
        if not np.all(np.isfinite(b)):
            raise ConvergenceError("non-finite right-hand side", 0, float("nan"))
        n_ops = datum.shape[1]
        if self.lu is not None:
            x = np.ascontiguousarray(self.lu.solve(b.T).T)
            y = (self.matrix @ x.T).T
            solves = [(0, "splu")] * n_ops
        else:
            x, y = np.empty_like(b), np.empty_like(b)
            solves = []
            for k, (block, lo, hi) in enumerate(zip(self.krylov, self.bounds, self.bounds[1:])):
                rows = np.count_nonzero(datum[:, k] >= 0)
                solves.append(block.solve(np.ascontiguousarray(b[:rows, lo:hi]),
                                          x[:rows, lo:hi], y[:rows, lo:hi]))
                x[rows:, lo:hi] = y[rows:, lo:hi] = 0.0   # its zero segments
        # squared norms of every (row, operator) segment, summed per
        # (operator, datum); a zero segment adds 0 to its operator's datum 0
        width = int(datum.max(initial=0)) + 1
        pair = (np.maximum(datum, 0) + width * np.arange(n_ops)).ravel()
        rn2, bn2 = (np.bincount(pair, np.add.reduceat(a * a, self.bounds[:-1], axis=1).ravel(),
                                minlength=width * n_ops).reshape(n_ops, width)
                    for a in (y - b, b))
        # a NaN norm must reach the gate, which fails on it
        ratio = np.divide(rn2, bn2, out=np.zeros(rn2.shape), where=bn2 != 0)
        stats = []
        for (iters, method), residual in zip(solves, np.sqrt(ratio.max(axis=1)).tolist()):
            if not residual <= RESIDUAL_GATE * self.solver.tol:
                raise ConvergenceError("residual above tolerance after solve",
                                       iters, residual)
            stats.append(StepStats(method, iters, residual))
        return x, stats


def _real_rows(u: np.ndarray):
    """The nonzero real and imaginary parts of the (n, k) block ``u`` as
    C-contiguous real rows, and the index 2j + c of each: part c (0 real,
    1 imaginary) of datum j.  No other code decides which parts are zero."""
    parts = np.stack([u.real.T, u.imag.T], axis=1).reshape(-1, u.shape[0])
    part = np.flatnonzero(parts.any(axis=1))
    return parts[part], part


class Trajectories(tuple):
    """The trajectories of a batch, one per operator, in batch order."""

    @property
    def stats(self) -> list[StepStats]:
        """Every operator's step stats, operator after operator, so a batch
        counts the steps and iterations of its single evolutions, as
        ``perfbench/spans.py`` reads them from what ``evolve`` returns."""
        return [st for traj in self for st in traj.stats]


def evolve(op: DiscreteOperator | Sequence[DiscreteOperator],
           data: GridFunction | tuple[GridFunction, ...] | Sequence,
           timegrid: TimeGrid, solver: SolverConfig = SolverConfig(),
           on_step=None) -> Trajectory | Trajectories:
    """Compose steps up to the horizon, recording the requested snapshots.

    ``data`` is one initial datum or a tuple of k of them, advanced together
    as one block.  For a tuple, ``values`` has a leading data axis,
    (k, n_snapshots, n_nodes), and each step's stats cover all k data.

    ``op`` may also be a sequence of operators, a batch advanced as one
    block-diagonal system in one time loop: ``data`` then holds each
    operator's datum or tuple of data, ``on_step`` is None or holds each
    operator's hook (or None), and the result is a ``Trajectories`` holding
    each operator's trajectory, with the dtype, values and stats of its
    single evolution.

    The state is held as real rows, one for each nonzero real or imaginary
    part of each datum, in datum order and real part first; a real L_h
    never makes a zero part nonzero, so the rows are chosen once.  Every
    snapshot, t = 0 included, is written from the rows, as float64 unless
    some row is an imaginary part, so real data give a real trajectory.
    ``on_step``, if given, is called after every step with that step's
    (rows, n_nodes) solve output x and the datum index of each row: x is
    u^(n+1) for backward Euler, the midpoint u^(n+1/2) for Crank-Nicolson.
    """
    batch = not isinstance(op, DiscreteOperator)
    ops, data = (tuple(op), tuple(data)) if batch else ((op,), (data,))
    hooks = tuple(on_step) if batch and on_step is not None else (on_step,) * len(ops)
    if not ops or len(data) != len(ops) or len(hooks) != len(ops):
        raise DomainError(f"a batch of {len(ops)} operators needs as many data and hooks, "
                          f"got {len(data)} and {len(hooks)}")
    fss = [(d,) if isinstance(d, GridFunction) else tuple(d) for d in data]
    if any(f.grid != o.grid for o, fs in zip(ops, fss) for f in fs):
        raise DomainError("initial datum does not live on the operator's grid")
    stepper = _LinearStep(ops, timegrid.dt, timegrid.scheme, solver)
    snap_steps = timegrid.snapshot_steps()
    parts = [_real_rows(np.stack([f.flat for f in fs], axis=1)) for fs in fss]
    u = np.zeros((max(len(part) for _, part in parts), stepper.bounds[-1]))
    datum = np.full(u.shape[:1] + (len(ops),), -1)
    # (snapshot array, row, segment) of every row, and (hook, rows, segment,
    # datum of each row) of every operator with a hook
    outs, targets, calls = [], [], []
    for k, (o, fs, (rows, part), hook) in enumerate(zip(ops, fss, parts, hooks)):
        segment = slice(*stepper.bounds[k:k + 2])
        u[:len(part), segment] = rows
        datum[:len(part), k] = part // 2
        out = np.zeros((len(fs), len(snap_steps), o.n),
                       dtype=np.complex128 if np.any(part % 2) else np.float64)
        outs.append(out)
        targets += [((out.imag if c % 2 else out.real)[c // 2], i, segment)
                    for i, c in enumerate(part)]
        if hook is not None:
            calls.append((hook, slice(len(part)), segment, part // 2))
    stats: list[list[StepStats]] = []
    pos = 0
    for n in range(timegrid.n_steps + 1):
        if n:
            x, step_stats = stepper.advance_rows(u, datum)
            u = 2.0 * x - u if stepper.midpoint else x
            stats.append(step_stats)
            for hook, rows, segment, hook_datum in calls:
                hook(x[rows, segment], hook_datum)
        if pos < len(snap_steps) and n == snap_steps[pos]:
            for target, i, segment in targets:
                target[pos] = u[i, segment]
            pos += 1
    trajs = Trajectories(
        Trajectory(grid=o.grid, times=snap_steps * timegrid.dt,
                   values=out[0] if isinstance(d, GridFunction) else out, stats=list(st))
        for o, d, out, st in zip(ops, data, outs, zip(*stats)))
    return trajs if batch else trajs[0]


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
