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
from .semigroup import RESIDUAL_GATE, Scheme, SolverConfig, TimeGrid, Trajectory, evolve

# Pointwise-check tolerance eps_h = C1*h + C2*dt^2.  The constants were
# calibrated on the identity preset (A = I, V = 0, 1D and 2D ladders) and
# are frozen; see tests/test_acceptance.py for the ladder they must survive.
EPS_SLACK_C1 = 0.05
EPS_SLACK_C2 = 1.0

# The factored arrangement of the chain rule equals the a_ij double sum,
# by the symmetry of the second form, when S^T S = sym A for the root
# S = (sym A)^(1/2); a larger relative error of S^T S is an error.
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

def compose_b(ev: EvolvedScenario, params: BellmanParams,
              snapshots=slice(None)) -> np.ndarray:
    """b(x, t) = Q(P_t f(x), P_t g(x)) at exponent ``params`` as an
    (n_times, n_nodes) real array, on the snapshots of ``ev`` that the index
    ``snapshots`` selects (all by default)."""
    return q_values(params, ev.traj_f.values[snapshots], ev.traj_g.values[snapshots])


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


def _factored(coeffs, ph, th) -> np.ndarray:
    """sum_k B(theta_k, theta_k) in d calls of ``bilinear_forms``, for the
    form B of the radial coefficients ``coeffs`` (crr, ctt, drr, dtt, m) and
    the phases ``ph`` (2, P, ..., n).  ``th`` holds theta = S g, for the
    real gradients g of both fields and S = (sym A)^(1/2), as (d, 2, P, ...,
    n), P parts each."""
    return sum(bilinear_forms(*coeffs, *ph, *t, *t) for t in th)


@dataclass
class ChainRuleField:
    """L'b evaluated through the chain rule, and the relative error of the
    root S that its factored gradient term rests on."""

    rhs: np.ndarray                 # (nt, n) total: factored A-part + V-part
    arrangement_gap: float          # max |S^T S - sym A| / max(1, |sym A|)
    n_mollified: int


def chain_rule_rhs(ev: EvolvedScenario, ps) -> list[ChainRuleField]:
    """Evaluate L'b(x,t) = sum_ij a_ij <-d2Q(v) d_i v, d_j v> + V [Q - dQ v]
    on the trajectories of ``ev``, one field per ``BellmanParams`` of ``ps``.

    The gradient term is computed in the factored arrangement, summing the
    quadratic form B over the root-weighted gradients theta = S grad v,
    S = (sym A)^(1/2).  B is symmetric, so this differs from the a_ij
    double sum by exactly sum_ij (S^T S - sym A)_ij B(d_i v, d_j v); the
    largest relative entry of S^T S - sym A, which does not depend on p,
    is returned as ``arrangement_gap`` for the caller to hold against
    ``ARRANGEMENT_TOL``.  Near the interface the exact radial coefficients
    are replaced by the mollified ones of ``mollified_form_coeffs``, which
    take the same form.  Spatial gradients use the fourth-order centered
    stencil so the Bellman-side discretization error stays below the
    operator-side signal.  All of it is real arithmetic on the parts that
    the trajectories hold: a real trajectory is one part, a complex one
    its real and imaginary parts.

    Every quantity is local in time, so the snapshots are walked in blocks
    of about ``SNAPSHOT_BLOCK_VALUES`` node values: apart from the (nt, n)
    outputs, memory is O(block).  Each block computes what does not depend
    on p once (the parts, phases, gradients, S grad, the negligible nodes
    and the mollification scale); only the forms, the interface mask, the
    mollified coefficients and the V term run per p.
    """
    op, grid = ev.op, ev.op.grid
    f, g = ev.traj_f.values, ev.traj_g.values            # (nt, n)
    parts = _stored_parts(f, g)
    A = node_coefficients(op.coefficients)              # (n, d, d)
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    S = matrix_sqrt_spd(sym)
    gap = float(np.max(np.abs(np.swapaxes(S, -1, -2) @ S - sym) / np.maximum(1.0, np.abs(sym))))
    S = np.ascontiguousarray(np.moveaxis(S, 0, -1))      # (d, d, n)
    scale = _modulus_scale(f, g)
    h = min(grid.spacing)
    fields = [ChainRuleField(np.empty(f.shape), gap, 0) for _ in ps]
    for blk in _snapshot_blocks(*f.shape):
        v1, v2 = f[blk], g[blk]
        u, v = np.abs(v1), np.abs(v2)
        x = np.array([[part(w) for part in parts] for w in (v1, v2)])  # (2, P, block, n)
        # phases x * (1/|x|), rounded as complex division by a real rounds
        ph = x * (1.0 / np.maximum(np.stack([u, v]), ZERO_MODULUS))[:, None]
        th = _node_matvec(S, grad4(grid, x))              # (d, 2, P, block, n)
        # nodes where both fields are negligibly small contribute nothing in
        # the continuum; evaluating v^(q-2)-type tables against stencil
        # leakage at the support edge would produce pure artifacts there
        negligible = np.maximum(u, v) < 1e-14 * scale
        eps = _mollify_scale(u, v, h)
        for params, cr in zip(ps, fields):
            coeffs, drift = form_coeffs_and_drift(params, u, v)
            a_part = _factored(coeffs, ph, th)
            a_part[negligible] = 0.0
            ti, ni = np.nonzero(_interface_margin_mask(params, u, v, eps, scale))
            if ti.size:
                mollified = mollified_form_coeffs(params, u[ti, ni], v[ti, ni], eps[ti, ni])
                a_part[ti, ni] = _factored(mollified, ph[..., ti, ni], th[..., ti, ni])
            cr.n_mollified += ti.size
            cr.rhs[blk] = a_part + op.potential * drift
    return fields


def chain_rule_identity_error(ev: EvolvedScenario, params: BellmanParams,
                              cr: ChainRuleField) -> float:
    """sup |L'b - cr.rhs| over snapshots with t >= IDENTITY_T_MIN_FRAC * T,
    for the chain-rule field ``cr`` of ``chain_rule_rhs`` on ``ev`` at
    exponent ``params``.

    The early-time window is excluded: at t = 0 the compactly supported
    data vanish to infinite order at their support edge, where discrete
    difference quotients of b are pre-asymptotic artifacts rather than
    approximations of the (vanishing) continuum values.
    """
    times = ev.traj_f.times
    lp = lprime(ev.op, compose_b(ev, params), times)
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
        """The slack floor against -eps_h, and the chain rule's root error
        against ``ARRANGEMENT_TOL``."""
        return {"pointwise-lower-bound": self.worst_slack + self.eps_h,
                "chain-rule-arrangements": ARRANGEMENT_TOL - self.arrangement_gap}


class PointwiseReports(tuple):
    """The ``PointwiseReport`` of each p, in the order the p were given."""

    @property
    def n_mollified(self) -> int:
        """The mollified nodes of every p, summed, as ``perfbench/spans.py``
        counts them."""
        return sum(rep.n_mollified for rep in self)


def pointwise_check(ev: EvolvedScenario, ps) -> PointwiseReports:
    """Slack of L'b >= 2 delta min(1, gamma) |f~|_* |g~|_* over all nodes
    and snapshot times, for each ``BellmanParams`` of ``ps``; acceptance
    requires worst slack > -eps_h.  The star norms do not depend on p, so
    each snapshot block takes them once for every p."""
    grid = ev.spec.grid
    crs = chain_rule_rhs(ev, ps)
    f, g = ev.traj_f.values, ev.traj_g.values
    parts = _stored_parts(f, g)
    cs = [2.0 * params.delta * min(1.0, ev.op.coefficients.gamma) for params in ps]
    rhss = [np.empty(f.shape) for _ in ps]
    for blk in _snapshot_blocks(*f.shape):
        star_f, star_g = (np.sqrt(sum(_star_sq(grid, ev.op.potential, part(x[blk]))
                                      for part in parts)) for x in (f, g))
        for c, rhs in zip(cs, rhss):
            rhs[blk] = c * star_f * star_g
    eps_h = slack_tolerance(min(grid.spacing), ev.spec.timegrid.dt)
    slacks = [cr.rhs - rhs for cr, rhs in zip(crs, rhss)]
    return PointwiseReports(
        PointwiseReport(worst_slack=float(slack.min()), eps_h=eps_h, lhs=cr.rhs, rhs=rhs,
                        slack=slack, n_mollified=cr.n_mollified,
                        arrangement_gap=cr.arrangement_gap)
        for cr, rhs, slack in zip(crs, rhss, slacks))


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


def embedding_check(ev: EvolvedScenario, params: BellmanParams) -> EmbeddingReport:
    """The two closed forms of the embedding bound at exponent ``params``,
    and the p = 2 theorem of the scheme.

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
    # is below the residual gate plus one rounding unit
    rho = RESIDUAL_GATE * spec.solver.tol + np.finfo(float).eps
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
    """One cutoff radius R: I_RT, its bound ||f||_p^p + ||g||_q^q and
    allowance eps_R = |flux_term|, and the three terms that I_RT totals."""

    R: float
    I_RT: float
    bound: float
    eps_R: float
    time_term: float
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


def ibp_upper_check(ev: EvolvedScenario, params: BellmanParams) -> IbpReport:
    """I_{R,T} = int_0^T int psi_R L'b against ||f||_p^p + ||g||_q^q at
    exponent ``params``, for the scenario's two or more distinct cutoff
    radii R, taken in ascending order.

    The time term integrates d/dt b exactly: it is the cell volume times
    sum_x psi_R (b(T) - b(0)), read from the end snapshots.  Summation by
    parts splits sum_x psi_R L_h b into the flux through the cutoff
    annulus, sum_x b (L_h^T - V) psi_R, which vanishes where psi_R is
    locally constant, and the nonpositive term sum_x V psi_R b.  One walk
    over the snapshot blocks takes both sums for every R, and each is
    integrated by the trapezoid.  I_RT is the total of the three terms,
    and eps_R is |flux|.
    """
    spec = ev.spec
    grid = spec.grid
    radii = sorted(spec.cutoff_radii)
    half_width = 0.5 * min(b - a for a, b in zip(grid.lo, grid.hi))
    for R in radii:
        if 2.0 * R > half_width + 1e-12:
            raise GeometryError(f"cutoff 2R = {2 * R} exceeds the box half-width {half_width}")
    if len(set(radii)) < 2:
        raise DomainError(f"need two or more distinct cutoff radii, got {radii}")
    op = ev.op
    psi = np.stack([cutoff_values(grid, R).ravel() for R in radii], axis=1)
    v_psi = op.potential[:, None] * psi
    kernels = np.hstack([op.matrix.T @ psi - v_psi, v_psi])    # (n, 2 len(radii))
    times = ev.traj_f.times
    sums = np.empty((len(times), kernels.shape[1]))
    for blk in _snapshot_blocks(*ev.traj_f.values.shape):
        sums[blk] = grid.cell_volume * (compose_b(ev, params, blk) @ kernels)
    flux, pot = np.split(np.trapezoid(sums, times, axis=0), 2)
    b_0, b_T = compose_b(ev, params, [0, -1])
    time_term = grid.cell_volume * (psi.T @ (b_T - b_0))
    bound = spec.f.norm(params.p) ** params.p + spec.g.norm(params.q) ** params.q
    rows = [IbpRow(R=R, I_RT=float(time_term[k] + flux[k] + pot[k]), bound=bound,
                   eps_R=float(abs(flux[k])), time_term=float(time_term[k]),
                   flux_term=float(flux[k]), potential_term=float(pot[k]))
            for k, R in enumerate(radii)]
    # nodewise: -b(x,0) = phi(|f|,|g|)/2 <= |f|^p + |g|^q by the range bound,
    # read as the slack relative to the right-hand side
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
