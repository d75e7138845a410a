"""Executable checks for every link of the embedding inequality's proof
chain: the composed field b, the parabolic operator L' = d/dt + L, the
chain-rule identity, the pointwise lower bound, the bilinear embedding,
the cutoff integration by parts, and off-diagonal decay fits.

Space-time fields are stored as (n_snapshots, n_nodes) arrays attached to
a trajectory's times, and the checks walk them in blocks of snapshots.
Checks over nodes, times, radii and scenarios only read immutable inputs
and can run concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import (ZERO_MODULUS, BellmanParams, bilinear_forms, cap_mollify_scale,
                      form_coeffs_and_drift, mollified_form_coeffs, q_values)
from .errors import AccuracyError, DomainError, GeometryError
from .grids import Grid, GridFunction
from .operators import (CoefficientField, DiscreteOperator, PotentialField,
                        _gradient, assemble, grad_sq_at_nodes, matrix_sqrt_spd,
                        node_coefficients)
from .reports import passes
from .semigroup import Scheme, SolverConfig, TimeGrid, Trajectory, evolve

# Pointwise-check tolerance eps_h = C1*h + C2*dt^2.  The constants were
# calibrated on the identity preset (A = I, V = 0, 1D and 2D ladders) and
# are frozen; see tests/test_acceptance.py for the ladder they must survive.
EPS_SLACK_C1 = 0.05
EPS_SLACK_C2 = 1.0

# The factored and a_ij double-sum arrangements of the chain rule are equal
# by the symmetry of the second form; a larger relative gap is an error.
ARRANGEMENT_TOL = 1e-10

# Mollified Bellman derivatives are used only within this relative distance
# of the interface (scaled by the local gradient of u^p - v^q), and only at
# nodes whose moduli are not negligibly small.
MOLLIFY_SCALE_FLOOR = 1e-3

FLOAT_FLOOR = 1e-12  # off-diagonal ratios at or below this are excluded
OFFDIAG_STEPS = 64   # backward Euler steps to each off-diagonal time t
SUPPORT_MARGIN_FRAC = 0.25  # data supports keep this fraction of each box width
IDENTITY_T_MIN_FRAC = 0.25  # the chain-rule identity is read on t >= this * T
TIGHT_SOLVER = SolverConfig(tol=1e-12)  # off-diagonal solves


def slack_tolerance(h: float, dt: float) -> float:
    return EPS_SLACK_C1 * h + EPS_SLACK_C2 * dt * dt


class _Verdict:
    """A report whose ``margins`` map each summary-line name to its margin,
    in summary order; it passes when every margin does."""

    margins: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(map(passes, self.margins.values()))


# ---------------------------------------------------------------------------
# scenario container
# ---------------------------------------------------------------------------

@dataclass
class ScenarioSpec:
    """Everything needed to run one verification scenario."""

    name: str
    grid: Grid
    coefficients: CoefficientField
    potential: PotentialField
    f: GridFunction
    g: GridFunction
    params: BellmanParams
    timegrid: TimeGrid
    solver: SolverConfig = field(default_factory=SolverConfig)
    cutoff_radii: tuple[float, ...] = ()

    def __post_init__(self):
        for name, gf in (("f", self.f), ("g", self.g)):
            _check_support_margin(self.grid, gf, name)


def _check_support_margin(grid: Grid, gf: GridFunction, name: str) -> None:
    mask = np.abs(gf.values) > 0.0
    if not mask.any():
        return
    coords = grid.node_coords()
    for a in range(grid.dim):
        xs = coords[a][mask]
        width = grid.hi[a] - grid.lo[a]
        margin = min(xs.min() - grid.lo[a], grid.hi[a] - xs.max())
        if margin < SUPPORT_MARGIN_FRAC * width - 1e-12:
            raise DomainError(
                f"support of {name} too close to the boundary on axis {a}: "
                f"margin {margin:.3g} < {SUPPORT_MARGIN_FRAC} * width {width:.3g}")


@dataclass
class EvolvedScenario:
    spec: ScenarioSpec
    op: DiscreteOperator
    traj_f: Trajectory
    traj_g: Trajectory
    # per-step sums dt w sum_x |x_f|_* |x_g|_* of the pair's solve outputs
    step_products: np.ndarray | None = field(default=None, repr=False)


# Node values per block of snapshots (or of solve outputs) that the
# embedding hook, ``chain_rule_rhs``, ``pointwise_check`` and
# ``ibp_upper_check`` process together, so their temporaries are O(block)
# whatever the snapshot count.
# Over 200 steps of the hook on random rows (best of 5, one BLAS thread,
# 2 vCPUs): 0.13 s at 24^3 in blocks of one step against 0.23 s in blocks
# of 16; 2.3 ms at 16^2 in blocks of 32 steps and 2.0-2.2 ms in blocks of
# 64.
SNAPSHOT_BLOCK_VALUES = 2 ** 14


def _snapshot_blocks(nt: int, n_values: int):
    """Slices of an axis of nt entries of ``n_values`` values each, holding
    about ``SNAPSHOT_BLOCK_VALUES`` values per slice (at least one entry)."""
    steps = max(1, SNAPSHOT_BLOCK_VALUES // n_values)
    return [slice(lo, min(lo + steps, nt)) for lo in range(0, nt, steps)]


def run_scenarios(specs, embedding: bool = True) -> list[EvolvedScenario]:
    """Assemble each spec's L_h and evolve every spec's f and g in one batch
    (``semigroup.evolve``), one time loop for all of them; the specs must
    share one ``TimeGrid`` and one ``SolverConfig``.  With ``embedding``
    each result carries the per-step sums dt w sum_x |x_f|_* |x_g|_* of its
    solve outputs x, which ``embedding_check`` reads; without it no star
    norm is taken and ``step_products`` is None."""
    specs = list(specs)
    if not specs or any((s.timegrid, s.solver) != (specs[0].timegrid, specs[0].solver)
                        for s in specs):
        raise DomainError("a batch needs one or more scenarios sharing one TimeGrid "
                          "and one SolverConfig")
    ops = [assemble(s.grid, s.coefficients, s.potential) for s in specs]
    hooks = [_embedding_hook(s) if embedding else (None, None) for s in specs]
    trajs = evolve(ops, [(s.f, s.g) for s in specs], specs[0].timegrid, specs[0].solver,
                   on_step=[add_step for _, add_step in hooks])
    return [EvolvedScenario(spec, op, *(Trajectory(op.grid, traj.times, values, traj.stats)
                                        for values in traj.values), products)
            for spec, op, traj, (products, _) in zip(specs, ops, trajs, hooks)]


def run_scenario(spec: ScenarioSpec, embedding: bool = True) -> EvolvedScenario:
    """``run_scenarios`` for one spec: f and g evolved as one block."""
    return run_scenarios([spec], embedding)[0]


def _embedding_hook(spec: ScenarioSpec):
    """The per-step products array and the ``evolve`` hook that fills it.

    The hook gathers the real solve-output rows of about
    ``SNAPSHOT_BLOCK_VALUES`` / 2 node values per datum, adds up each
    datum's squared star norm over its rows, and writes one product per
    step."""
    grid = spec.grid
    V = spec.potential.values.reshape(-1)
    products = np.empty(spec.timegrid.n_steps)
    steps = max(1, SNAPSHOT_BLOCK_VALUES // (2 * grid.n_nodes))
    pending = []
    done = 0

    def add_step(x, datum):
        nonlocal done
        pending.append(x)
        done += 1
        if len(pending) < steps and done < len(products):
            return
        rows = np.stack(pending).reshape(-1, grid.n_nodes)
        sq = _star_sq(grid, V, rows).reshape(len(pending), len(datum), grid.n_nodes)
        # the rows are in datum order, f's before g's: one sum over each
        # datum's run of rows, which is 0 for a datum without rows
        split = np.searchsorted(datum, 1)
        star_f, star_g = (np.sqrt(sq[:, run].sum(axis=1))
                          for run in (slice(None, split), slice(split, None)))
        products[done - len(pending):done] = (
            spec.timegrid.dt * grid.cell_volume * np.sum(star_f * star_g, axis=1))
        pending.clear()

    return products, add_step


# ---------------------------------------------------------------------------
# composed field and parabolic operator
# ---------------------------------------------------------------------------

def compose_b(params: BellmanParams, traj_f: Trajectory, traj_g: Trajectory,
              snapshots=slice(None)) -> np.ndarray:
    """b(x, t) = Q(P_t f(x), P_t g(x)) as an (n_times, n_nodes) real array,
    on the snapshots that the index ``snapshots`` selects (all by default)."""
    if traj_f.grid != traj_g.grid or not np.array_equal(traj_f.times, traj_g.times):
        raise DomainError("trajectories must share grid and snapshot times")
    return q_values(params, traj_f.values[snapshots], traj_g.values[snapshots])


def time_derivative(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """d/dt of an (n_times, ...) series along its first axis: centered
    differences, second-order one-sided at the endpoints.  The snapshots
    must be at least 3 and uniformly spaced."""
    if len(series) < 3:
        raise DomainError("need at least 3 snapshots for the time derivative")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise DomainError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    ddt = np.empty_like(series)
    ddt[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    ddt[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * dt)
    ddt[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * dt)
    return ddt


def time_stencil_defect(series: np.ndarray) -> np.ndarray:
    """trapezoid(time_derivative(series)) - (series[-1] - series[0]) on
    uniform snapshots, as it telescopes: a fourth of the last three
    snapshots' second difference minus the first three's, which does not
    cancel (and is exactly 0 on 3 snapshots)."""
    return 0.25 * (np.diff(series[-3:], 2, axis=0)[0] - np.diff(series[:3], 2, axis=0)[0])


def lprime(op: DiscreteOperator, fld: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(d/dt + L_h) applied to an (n_times, n_nodes) space-time field:
    ``time_derivative`` plus the sparse operator."""
    fld = np.asarray(fld)
    if fld.ndim != 2:
        raise DomainError("a space-time field is an (n_times, n_nodes) array")
    return time_derivative(fld, times) + (op.matrix @ fld.T).T


# ---------------------------------------------------------------------------
# fourth-order node gradients (Bellman-side stencil)
# ---------------------------------------------------------------------------

def grad4(grid: Grid, fld: np.ndarray) -> np.ndarray:
    """Fourth-order centered node gradient of a (..., n_nodes) field, such
    as (nt, n_nodes) snapshots, returned as (dim, ..., n_nodes); zero
    extension outside Dirichlet boxes."""
    lead = fld.shape[:-1]
    fld = fld.reshape(-1, grid.n_nodes)
    nt = fld.shape[0]
    n = grid.node_shape
    mode = "wrap" if grid.periodic else "constant"
    padded = np.pad(fld.reshape((nt,) + n), [(0, 0)] + [(2, 2)] * grid.dim, mode=mode)
    out = np.empty((grid.dim,) + fld.shape, dtype=fld.dtype)
    for a in range(grid.dim):
        def shift(k):
            """The field at x + k h e_a."""
            idx = [slice(None)] + [slice(2, 2 + m) for m in n]
            idx[a + 1] = slice(2 + k, 2 + k + n[a])
            return padded[tuple(idx)]

        d = (-shift(2) + 8.0 * shift(1) - 8.0 * shift(-1) + shift(-2)) / (12.0 * grid.spacing[a])
        out[a] = d.reshape(nt, -1)
    return out.reshape((grid.dim,) + lead + (grid.n_nodes,))


def _star_sq(grid: Grid, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared nodal star norms |grad_h u|^2 + V u^2 of the real (k, n_nodes)
    rows u, against the flat potential V; a complex field's squared star
    norm is the sum of those of its real and imaginary parts."""
    return grad_sq_at_nodes(grid, rows.T).T + V * rows ** 2


# ---------------------------------------------------------------------------
# chain-rule right-hand side
# ---------------------------------------------------------------------------

def _mollify_scale(u, v, h: float) -> np.ndarray:
    """Mollification scale eps = 2 sqrt(h) * |point|, capped by
    ``cap_mollify_scale``."""
    return cap_mollify_scale(u, v, 2.0 * np.sqrt(h) * np.maximum(u, v))


def _interface_margin_mask(params: BellmanParams, u, v, eps, scale: float) -> np.ndarray:
    """Nodes close enough to the interface, at mollification scale eps, that
    exact second derivatives are replaced by mollified ones.  ``scale`` is
    the largest modulus of the whole trajectory (``_modulus_scale``); nodes
    below ``MOLLIFY_SCALE_FLOOR`` times it, the negligible far field, stay
    on the exact branch.

    A node whose scale is 0 stays exact too: there eps * slope = 0 would
    admit every node where u^p and v^q both underflow to 0.

    For p = 2 the two branches of phi coincide identically, so there is no
    interface kink and nothing to mollify.
    """
    p, q = params.p, params.q
    if p == 2.0:
        return np.zeros(np.shape(u), dtype=bool)
    slope = np.sqrt((p * u ** (p - 1.0)) ** 2 + (q * v ** (q - 1.0)) ** 2)
    near = (np.abs(u ** p - v ** q) <= eps * slope) & (eps > 0.0)
    return near & (np.maximum(u, v) >= MOLLIFY_SCALE_FLOOR * scale)


def _modulus_scale(f: np.ndarray, g: np.ndarray) -> float:
    """max(|f|, |g|) over every node and snapshot (at least 1e-300), taken
    block by block: the one scale that the negligible-node rule and the
    mollification floor of every snapshot block compare against."""
    blocks = _snapshot_blocks(*f.shape)
    return max(float(np.max([np.abs(x[blk]).max(initial=0.0)
                             for x in (f, g) for blk in blocks])), 1e-300)


def _stored_parts(f: np.ndarray, g: np.ndarray) -> tuple:
    """The parts of the pair (f, g) that the chain rule works on: the real
    part, and the imaginary part only if f or g is stored complex, which
    ``semigroup.evolve`` does only for a nonzero imaginary part."""
    return (np.real, np.imag) if np.iscomplexobj(f) or np.iscomplexobj(g) else (np.real,)


def _node_matvec(M: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(M g)_i = sum_j M[i, j] g_j as d^2 real multiply-adds: node-last
    coefficients M (d, d, n) against gradients g (d, ..., n)."""
    out = np.empty(g.shape)
    for i in range(len(g)):
        np.multiply(M[i, 0], g[0], out=out[i])
        for j in range(1, len(g)):
            out[i] += M[i, j] * g[j]
    return out


def _arrangements(form, grads, S, A):
    """Both arrangements of sum_ij a_ij form(g_i, g_j), d calls of the
    symmetric bilinear ``form(a1, a2, b1, b2)`` each: (factored, double) with
    factored = sum_k form(theta_k, theta_k), theta = S g, and double =
    sum_i form(g_i, (A g)_i).  ``grads`` holds the real gradients of both
    fields as (d, 2, P, ..., n), P parts each; S = (sym A)^(1/2) and A are
    node-last (d, d, n) and broadcast over the parts and snapshot axes."""
    th, ag = _node_matvec(S, grads), _node_matvec(A, grads)
    factored = sum(form(*th[k], *th[k]) for k in range(len(grads)))
    double = sum(form(*grads[i], *ag[i]) for i in range(len(grads)))
    return factored, double


@dataclass
class ChainRuleField:
    """L'b evaluated through the chain rule, with both arrangements."""

    rhs: np.ndarray                 # (nt, n) total: factored A-part + V-part
    rhs_aij: np.ndarray             # same field via the a_ij double sum
    arrangement_gap: float
    n_mollified: int


def chain_rule_rhs(params: BellmanParams, op: DiscreteOperator,
                   traj_f: Trajectory, traj_g: Trajectory) -> ChainRuleField:
    """Evaluate L'b(x,t) = sum_ij a_ij <-d2Q(v) d_i v, d_j v> + V [Q - dQ v].

    The primary value is computed in the factored arrangement, summing the
    quadratic form over the root-weighted gradients (sym A)^(1/2) grad v_k
    per axis; the a_ij double sum is evaluated as well, and their largest
    relative gap is returned for the caller to hold against
    ``ARRANGEMENT_TOL``.  Near the interface the exact radial coefficients
    are replaced by the mollified ones of ``mollified_form_coeffs``, which
    take the same form and the same arrangements.  Spatial gradients use
    the fourth-order centered stencil so the Bellman-side discretization
    error stays below the operator-side signal.  All of it is real
    arithmetic on the parts that the trajectories hold: a real trajectory
    is one part, a complex one its real and imaginary parts.

    Every quantity is local in time, so the snapshots are walked in blocks
    of about ``SNAPSHOT_BLOCK_VALUES`` node values: apart from the two
    (nt, n) outputs, memory is O(block).
    """
    if traj_f.grid != traj_g.grid or not np.array_equal(traj_f.times, traj_g.times):
        raise DomainError("trajectories must share grid and snapshot times")
    grid = op.grid
    f, g = traj_f.values, traj_g.values                  # (nt, n)
    parts = _stored_parts(f, g)
    A = node_coefficients(op.coefficients)              # (n, d, d)
    S = matrix_sqrt_spd(0.5 * (A + np.swapaxes(A, -1, -2)))
    A, S = (np.ascontiguousarray(np.moveaxis(M, 0, -1)) for M in (A, S))  # (d, d, n)
    scale = _modulus_scale(f, g)
    h = min(grid.spacing)
    rhs = np.empty(f.shape)
    rhs_aij = np.empty(f.shape)
    gap = 0.0
    n_mollified = 0
    for blk in _snapshot_blocks(*f.shape):
        v1, v2 = f[blk], g[blk]
        u, v = np.abs(v1), np.abs(v2)
        x = np.array([[part(w) for part in parts] for w in (v1, v2)])  # (2, P, block, n)
        # phases x * (1/|x|), rounded as complex division by a real rounds
        ph = x * (1.0 / np.maximum(np.stack([u, v]), ZERO_MODULUS))[:, None]
        coeffs, drift = form_coeffs_and_drift(params, u, v)
        grads = grad4(grid, x)                           # (d, 2, P, block, n)
        exact = functools.partial(bilinear_forms, *coeffs, *ph)
        a_part, aij_part = _arrangements(exact, grads, S, A)

        # nodes where both fields are negligibly small contribute nothing in
        # the continuum; evaluating v^(q-2)-type tables against stencil
        # leakage at the support edge would produce pure artifacts there
        negligible = np.maximum(u, v) < 1e-14 * scale
        a_part[negligible] = 0.0
        aij_part[negligible] = 0.0

        eps = _mollify_scale(u, v, h)
        ti, ni = np.nonzero(_interface_margin_mask(params, u, v, eps, scale))
        if ti.size:
            mollified = mollified_form_coeffs(params, u[ti, ni], v[ti, ni], eps[ti, ni])
            a_part[ti, ni], aij_part[ti, ni] = _arrangements(
                functools.partial(bilinear_forms, *mollified, *ph[..., ti, ni]),
                grads[..., ti, ni], S[..., ni], A[..., ni])

        v_part = op.potential * drift
        # np.maximum, unlike Python's max, keeps a NaN gap
        gap = float(np.maximum(gap, np.max(np.abs(a_part - aij_part)
                                           / np.maximum(1.0, np.abs(a_part)))))
        n_mollified += ti.size
        rhs[blk] = a_part + v_part
        rhs_aij[blk] = aij_part + v_part
    return ChainRuleField(rhs=rhs, rhs_aij=rhs_aij, arrangement_gap=gap,
                          n_mollified=n_mollified)


def chain_rule_identity_error(ev: EvolvedScenario, cr: ChainRuleField) -> float:
    """sup |L'b - cr.rhs| over snapshots with t >= IDENTITY_T_MIN_FRAC * T,
    for the chain-rule field ``cr`` of ``chain_rule_rhs`` on ``ev``.

    The early-time window is excluded: at t = 0 the compactly supported
    data vanish to infinite order at their support edge, where discrete
    difference quotients of b are pre-asymptotic artifacts rather than
    approximations of the (vanishing) continuum values.
    """
    b = compose_b(ev.spec.params, ev.traj_f, ev.traj_g)
    times = ev.traj_f.times
    lp = lprime(ev.op, b, times)
    keep = times >= IDENTITY_T_MIN_FRAC * times[-1] - 1e-12
    return float(np.abs(lp[keep] - cr.rhs[keep]).max())


# ---------------------------------------------------------------------------
# pointwise lower bound
# ---------------------------------------------------------------------------

@dataclass
class PointwiseReport(_Verdict):
    worst_slack: float
    eps_h: float
    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    slack: np.ndarray = field(repr=False)
    n_mollified: int = 0
    arrangement_gap: float = 0.0

    @property
    def margins(self) -> dict[str, float]:
        """The slack floor against -eps_h, and the chain rule's two
        arrangements against ``ARRANGEMENT_TOL``."""
        return {"pointwise-lower-bound": self.worst_slack + self.eps_h,
                "chain-rule-arrangements": ARRANGEMENT_TOL - self.arrangement_gap}


def pointwise_check(ev: EvolvedScenario) -> PointwiseReport:
    """Slack of L'b >= 2 delta min(1, gamma) |f~|_* |g~|_* over all nodes
    and snapshot times; acceptance requires worst slack > -eps_h."""
    spec = ev.spec
    params = spec.params
    cr = chain_rule_rhs(params, ev.op, ev.traj_f, ev.traj_g)
    f, g = ev.traj_f.values, ev.traj_g.values
    parts = _stored_parts(f, g)
    c = 2.0 * params.delta * min(1.0, ev.op.coefficients.gamma)
    rhs = np.empty(f.shape)
    for blk in _snapshot_blocks(*f.shape):
        star_f, star_g = (np.sqrt(sum(_star_sq(spec.grid, ev.op.potential, part(x[blk]))
                                      for part in parts)) for x in (f, g))
        rhs[blk] = c * star_f * star_g
    slack = cr.rhs - rhs
    eps_h = slack_tolerance(min(spec.grid.spacing), spec.timegrid.dt)
    return PointwiseReport(worst_slack=float(slack.min()), eps_h=eps_h,
                           lhs=cr.rhs, rhs=rhs, slack=slack,
                           n_mollified=cr.n_mollified,
                           arrangement_gap=cr.arrangement_gap)


# ---------------------------------------------------------------------------
# bilinear embedding
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingReport(_Verdict):
    E_T: float
    tail: float
    norm_f_p: float
    norm_g_q: float
    gamma: float
    sum_bound: float
    sum_margin: float
    lambda_star: float | None
    product_bound: float
    product_margin: float
    ratio_empirical: float
    energy_bound: float
    energy_margin: float
    quad_error_est: float

    @property
    def margins(self) -> dict[str, float]:
        """The two closed forms must beat the floating-point tolerance; the
        energy form may fall short of its bound by at most that much."""
        return {"embedding-sum-form": self.sum_margin - self.quad_error_est,
                "embedding-product-form": self.product_margin - self.quad_error_est,
                "embedding-energy-bound": self.energy_margin + self.quad_error_est}


def embedding_check(ev: EvolvedScenario) -> EmbeddingReport:
    """The two closed forms of the embedding bound, and the p = 2 theorem of
    the scheme.

    Sum form: E_T + tail <= max(1, 1/gamma)/(2 delta) (||f||_p^p + ||g||_q^q).
    Product form: the same constant times
    ((q/p)^(1/q) + (p/q)^(1/p)) ||f||_p ||g||_q, from optimizing the scaling
    (f, g) -> (lam f, g/lam).
    Energy form, for every p: E_T + tail <= ||f||_2 ||g||_2 / (2 min(1, gamma)),
    from the energy identity of the step and the exact discrete accretivity.

    E_T = sum_n dt sum_x w |x_f^n|_* |x_g^n|_* over every step's solve output
    x^n (``semigroup.evolve``), and the energy tail
    ||P_T f||_2 ||P_T g||_2 / (2 min(1, gamma)) bounds the integral over
    (T, inf).  Only the last snapshots are read.  A scenario evolved without
    the per-step products raises DomainError rather than read 0.
    """
    spec = ev.spec
    params = spec.params
    p, q, delta = params.p, params.q, params.delta
    gamma = ev.op.coefficients.gamma
    tf, tg = ev.traj_f, ev.traj_g
    if ev.step_products is None:
        raise DomainError("the scenario carries no per-step products; evolve f "
                          "and g together with run_scenario(embedding=True)")
    E_T = float(np.sum(ev.step_products))
    tail = float(spec.grid.cell_volume * np.linalg.norm(tf.values[-1])
                 * np.linalg.norm(tg.values[-1]) / (2.0 * min(1.0, gamma)))
    nf = spec.f.norm(p)
    ng = spec.g.norm(q)
    cgam = max(1.0, 1.0 / gamma) / (2.0 * delta)
    a = nf ** p
    b = ng ** q
    sum_bound = cgam * (a + b)
    # the minimizer of lam^p a + lam^(-q) b over lam > 0, in logarithms: a underflows
    lambda_star = (math.exp((math.log(q) + q * math.log(ng) - math.log(p) - p * math.log(nf))
                            / (p + q)) if nf > 0.0 and ng > 0.0 else None)
    product_bound = cgam * ((q / p) ** (1.0 / q) + (p / q) ** (1.0 / p)) * nf * ng
    energy_bound = spec.f.norm(2.0) * spec.g.norm(2.0) / (2.0 * min(1.0, gamma))
    total = E_T + tail
    # floating-point tolerance: a step whose solve leaves relative residual
    # rho moves E_T + tail against energy_bound by at most 4 rho of it; rho
    # is below the 10 tol gate plus one rounding unit
    rho = 10.0 * spec.solver.tol + np.finfo(float).eps
    quad_err = 4.0 * len(ev.step_products) * rho * energy_bound
    ratio = total / (p * nf * ng) if nf * ng > 0 else 0.0
    return EmbeddingReport(
        E_T=E_T, tail=tail, norm_f_p=nf, norm_g_q=ng, gamma=gamma,
        sum_bound=sum_bound, sum_margin=sum_bound - total,
        lambda_star=lambda_star, product_bound=product_bound,
        product_margin=product_bound - total, ratio_empirical=ratio,
        energy_bound=energy_bound, energy_margin=energy_bound - total,
        quad_error_est=quad_err)


# ---------------------------------------------------------------------------
# cutoff integration by parts
# ---------------------------------------------------------------------------

def cutoff_values(grid: Grid, R: float) -> np.ndarray:
    """Radial cutoff psi_R about the box centre at the nodes: 1 on |x| <= R,
    0 on |x| >= 2R, quintic smoothstep in between, so ||grad psi_R||_inf =
    (15/8)/R."""
    center = 0.5 * (np.asarray(grid.lo) + np.asarray(grid.hi))
    r = np.zeros(grid.node_shape)
    for x, c in zip(grid.node_coords(), center):
        r = r + (x - c) ** 2
    r = np.sqrt(r)
    t = np.clip((r - R) / R, 0.0, 1.0)
    s = 6.0 * t ** 5 - 15.0 * t ** 4 + 10.0 * t ** 3
    return 1.0 - s


@dataclass
class IbpRow:
    R: float
    I_RT: float
    bound: float
    eps_R: float
    time_term_quad: float
    time_term_exact: float
    flux_term: float
    potential_term: float


@dataclass
class IbpReport(_Verdict):
    rows: list[IbpRow]
    # min over nodes of (|f|^p + |g|^q - (-b(0))) / (|f|^p + |g|^q), with tolerances
    nodewise_initial_margin: float
    final_nonpositive_margin: float  # 1e-300 - max b(T)

    @property
    def margins(self) -> dict[str, float]:
        """I_RT <= bound + eps_R for every R; eps_R does not grow with R, up
        to rounding (inf for one R); the flux through the largest cutoff
        annulus is at most half the flux through the smallest; and the
        nodewise bounds on b at t = 0 and t = T."""
        eps = np.array([r.eps_R for r in self.rows])
        first, last = self.rows[0], self.rows[-1]
        margins = {}
        for r in self.rows:  # radii that print alike share one line, their worst
            name = f"ibp-upper-bound(R={r.R:g})"
            margins[name] = float(np.minimum(margins.get(name, np.inf),
                                             r.bound + r.eps_R - r.I_RT))
        margins["ibp-eps-nonincreasing"] = float(
            np.min(1e-10 + 1e-6 * np.abs(eps[:-1]) - np.diff(eps), initial=np.inf))
        margins["ibp-flux-decay"] = abs(first.flux_term) - 2.0 * abs(last.flux_term)
        margins["ibp-initial-nodewise-bound"] = self.nodewise_initial_margin
        margins["ibp-final-nonpositive"] = self.final_nonpositive_margin
        return margins


def ibp_upper_check(ev: EvolvedScenario, radii=None) -> IbpReport:
    """I_{R,T} = int_0^T int psi_R L'b against ||f||_p^p + ||g||_q^q.

    Summation by parts splits sum_x psi_R L_h b into the flux through the
    cutoff annulus, sum_x b (L_h^T - V) psi_R, which vanishes where psi_R
    is locally constant, and the nonpositive term sum_x V psi_R b, so every
    term is a sum of b against a node vector.  One walk over the snapshot
    blocks takes those sums, and I_RT is the time term (``time_derivative``
    of the psi_R sums, by the trapezoid) plus the flux and potential
    trapezoids.  The time term is also reduced exactly to sum_x psi_R (b(T)
    - b(0)), and the discarded flux and potential terms are reported per R.
    eps_R is |flux| plus |quadrature time term - exact one|, the latter
    taken from ``time_stencil_defect``.
    """
    spec = ev.spec
    grid = spec.grid
    params = spec.params
    radii = tuple(radii if radii is not None else spec.cutoff_radii)
    if not radii:
        raise DomainError("no cutoff radii given")
    half_width = 0.5 * min(b - a for a, b in zip(grid.lo, grid.hi))
    for R in radii:
        if 2.0 * R > half_width + 1e-12:
            raise GeometryError(f"cutoff 2R = {2 * R} exceeds the box half-width {half_width}")
    op = ev.op
    psi = np.stack([cutoff_values(grid, R).ravel() for R in radii], axis=1)
    v_psi = op.potential[:, None] * psi
    kernels = np.hstack([psi, op.matrix.T @ psi - v_psi, v_psi])    # (n, 3 len(radii))
    times = ev.traj_f.times
    sums = np.empty((len(times), kernels.shape[1]))
    for blk in _snapshot_blocks(*ev.traj_f.values.shape):
        sums[blk] = grid.cell_volume * (compose_b(params, ev.traj_f, ev.traj_g, blk) @ kernels)
    mass, flux, pot = np.split(sums, 3, axis=1)
    t_quad = np.trapezoid(time_derivative(mass, times), times, axis=0)
    t_exact = mass[-1] - mass[0]
    defect = time_stencil_defect(mass)
    flux, pot = np.trapezoid(flux, times, axis=0), np.trapezoid(pot, times, axis=0)
    bound = spec.f.norm(params.p) ** params.p + spec.g.norm(params.q) ** params.q
    rows = [IbpRow(R=R, I_RT=float(t_quad[k] + flux[k] + pot[k]), bound=bound,
                   eps_R=float(abs(flux[k]) + abs(defect[k])),
                   time_term_quad=float(t_quad[k]), time_term_exact=float(t_exact[k]),
                   flux_term=float(flux[k]), potential_term=float(pot[k]))
            for k, R in enumerate(radii)]
    # nodewise: -b(x,0) = phi(|f|,|g|)/2 <= |f|^p + |g|^q by the range bound,
    # read as the slack relative to the right-hand side
    b_0, b_T = compose_b(params, ev.traj_f, ev.traj_g, [0, -1])
    rhs0 = np.abs(spec.f.flat) ** params.p + np.abs(spec.g.flat) ** params.q
    initial = (rhs0 * (1 + 1e-12) + 1e-300 + b_0) / np.maximum(rhs0, 1e-300)
    return IbpReport(rows=rows, nodewise_initial_margin=float(np.min(initial)),
                     final_nonpositive_margin=float(1e-300 - np.max(b_T)))


# ---------------------------------------------------------------------------
# off-diagonal decay
# ---------------------------------------------------------------------------

@dataclass
class OffdiagSample:
    t: float
    distance: float
    ratio: float
    excluded: bool


# The operators T_t whose off-diagonal decay ``offdiag_check`` fits, in the
# order of its reports: P_t, t L P_t and sqrt(t) grad P_t.
OFFDIAG_OPERATORS = ("P", "tLP", "sqrt-t-grad-P")


@dataclass
class OffdiagReport(_Verdict):
    operator: str
    samples: list[OffdiagSample]
    slope: float
    intercept: float
    r_squared: float
    n_excluded: int

    @property
    def fitted_C(self) -> float:
        return math.exp(self.intercept)

    @property
    def fitted_c(self) -> float:
        return -self.slope

    @property
    def margins(self) -> dict[str, float]:
        """A decaying fit: negative slope, and R^2 above 0.9."""
        return {f"offdiag-decay({self.operator})":
                float(np.min([self.r_squared - 0.9, -self.slope]))}


def _l2_over_mask(grid: Grid, vals: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(np.abs(vals.ravel()[mask.ravel()]) ** 2)))


def offdiag_check(op: DiscreteOperator, h_datum: GridFunction,
                  e_center, e_radius: float, distances, band_width: float,
                  ts) -> tuple[OffdiagReport, ...]:
    """Fit log(||T_t h||_{L2(F)} / ||h||_{L2(E)}) against d(E,F)^2 / t for
    each T_t of ``OFFDIAG_OPERATORS``, in that order, from one evolution of
    h to each t.

    Far sets F are the annuli dist(x, E) in [d, d + band_width].  Samples
    whose ratio sits at the floating-point floor are excluded from the fit
    and counted.
    """
    grid = op.grid
    center = np.atleast_1d(np.asarray(e_center, dtype=float))
    coords = grid.node_coords()
    r_node = np.sqrt(sum((x - c) ** 2 for x, c in zip(coords, center)))
    dist_node = np.maximum(r_node - e_radius, 0.0)
    e_mask = (dist_node == 0.0)
    h_norm = _l2_over_mask(grid, h_datum.values, e_mask)
    outside = np.abs(h_datum.values)[~e_mask]
    if outside.size and outside.max() > 0:
        raise DomainError("datum must be supported inside the near set E")
    r_face = [np.sqrt(sum((x - c) ** 2 for x, c in zip(grid.face_midpoints(a), center))).ravel()
              for a in range(grid.dim)]
    dist_face = np.maximum(np.concatenate(r_face) - e_radius, 0.0)    # in G's row order
    samples = {which: [] for which in OFFDIAG_OPERATORS}
    for t in ts:
        tg = TimeGrid(dt=t / OFFDIAG_STEPS, T=t, scheme=Scheme.BACKWARD_EULER,
                      snapshot_stride=OFFDIAG_STEPS)
        u_t = evolve(op, h_datum, tg, TIGHT_SOLVER).values[-1]
        lu_t = t * (op.matrix @ u_t)
        grad_u = _gradient(grid) @ u_t
        for d0 in distances:
            f_mask = (dist_node >= d0) & (dist_node <= d0 + band_width)
            fm = (dist_face >= d0) & (dist_face <= d0 + band_width)
            norms = (_l2_over_mask(grid, u_t, f_mask), _l2_over_mask(grid, lu_t, f_mask),
                     _l2_over_mask(grid, grad_u, fm) * math.sqrt(t))
            for which, norm_f in zip(OFFDIAG_OPERATORS, norms):
                ratio = norm_f / h_norm
                samples[which].append(OffdiagSample(t=float(t), distance=float(d0),
                                                    ratio=float(ratio),
                                                    excluded=bool(ratio <= FLOAT_FLOOR)))
    return tuple(_offdiag_fit(which, samples[which]) for which in OFFDIAG_OPERATORS)


def _offdiag_fit(operator: str, samples: list[OffdiagSample]) -> OffdiagReport:
    """Least-squares line through (d^2 / t, log ratio) of the samples above
    the floor."""
    xs = np.array([s.distance ** 2 / s.t for s in samples if not s.excluded])
    ys = np.array([math.log(s.ratio) for s in samples if not s.excluded])
    if len(xs) < 3:
        raise AccuracyError("too few off-diagonal samples above the floor to fit")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return OffdiagReport(operator=operator, samples=samples, slope=float(slope),
                         intercept=float(intercept), r_squared=r2,
                         n_excluded=sum(s.excluded for s in samples))
