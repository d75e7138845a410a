"""Executable checks for every link of the embedding inequality's proof
chain: the composed field b, the parabolic operator L' = d/dt + L, the
chain-rule identity, the pointwise lower bound, the cutoff integration by
parts, off-diagonal decay fits, the square function, polarization, and the
final bilinear embedding.

Space-time fields are stored as (n_snapshots, n_nodes) complex arrays
attached to a trajectory's times.  Checks over nodes, times, radii and
scenarios only read immutable inputs and can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import (BellmanParams, _phases, bilinear_forms, cap_mollify_scale,
                      form_coeffs_and_drift, form_sum_over_axes, mollified_neg_hess,
                      q_values)
from .errors import AccuracyError, DomainError, GeometryError
from .grids import Grid, GridFunction
from .operators import (CoefficientField, DiscreteOperator, PotentialField,
                        _grid_maps, assemble, grad_sq_at_nodes, matrix_sqrt_spd,
                        node_coefficients)
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


def slack_tolerance(h: float, dt: float) -> float:
    return EPS_SLACK_C1 * h + EPS_SLACK_C2 * dt * dt


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


def _check_support_margin(grid: Grid, gf: GridFunction, name: str,
                          margin_frac: float = 0.25) -> None:
    mask = np.abs(gf.values) > 0.0
    if not mask.any():
        return
    coords = grid.node_coords()
    for a in range(grid.dim):
        xs = coords[a][mask]
        width = grid.hi[a] - grid.lo[a]
        margin = min(xs.min() - grid.lo[a], grid.hi[a] - xs.max())
        if margin < margin_frac * width - 1e-12:
            raise DomainError(
                f"support of {name} too close to the boundary on axis {a}: "
                f"margin {margin:.3g} < {margin_frac} * width {width:.3g}")


@dataclass
class EvolvedScenario:
    spec: ScenarioSpec
    op: DiscreteOperator
    traj_f: Trajectory
    traj_g: Trajectory


def run_scenario(spec: ScenarioSpec) -> EvolvedScenario:
    op = assemble(spec.grid, spec.coefficients, spec.potential)
    traj_f = evolve(op, spec.f, spec.timegrid, spec.solver)
    traj_g = evolve(op, spec.g, spec.timegrid, spec.solver)
    return EvolvedScenario(spec, op, traj_f, traj_g)


# ---------------------------------------------------------------------------
# composed field and parabolic operator
# ---------------------------------------------------------------------------

def compose_b(params: BellmanParams, traj_f: Trajectory, traj_g: Trajectory) -> np.ndarray:
    """b(x, t) = Q(P_t f(x), P_t g(x)) as an (n_times, n_nodes) real array."""
    if traj_f.grid != traj_g.grid or not np.array_equal(traj_f.times, traj_g.times):
        raise DomainError("trajectories must share grid and snapshot times")
    return q_values(params, traj_f.values, traj_g.values)


def lprime(op: DiscreteOperator, fld: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(d/dt + L_h) applied to a space-time field: centered differences in t
    (second-order one-sided at the endpoints) plus the sparse operator."""
    fld = np.asarray(fld)
    if fld.ndim != 2 or fld.shape[0] < 3:
        raise DomainError("need at least 3 snapshots for the time derivative")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise DomainError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    ddt = np.empty_like(fld)
    ddt[1:-1] = (fld[2:] - fld[:-2]) / (2.0 * dt)
    ddt[0] = (-3.0 * fld[0] + 4.0 * fld[1] - fld[2]) / (2.0 * dt)
    ddt[-1] = (3.0 * fld[-1] - 4.0 * fld[-2] + fld[-3]) / (2.0 * dt)
    return ddt + (op.matrix @ fld.T).T


# ---------------------------------------------------------------------------
# fourth-order node gradients (Bellman-side stencil)
# ---------------------------------------------------------------------------

def _shift(a: np.ndarray, axis: int, k: int, periodic: bool) -> np.ndarray:
    """a(x + k*h*e_axis) with wraparound or zero extension."""
    if periodic:
        return np.roll(a, -k, axis=axis)
    out = np.zeros_like(a)
    n = a.shape[axis]
    if abs(k) >= n:
        return out
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if k > 0:
        src[axis] = slice(k, n)
        dst[axis] = slice(0, n - k)
    elif k < 0:
        src[axis] = slice(0, n + k)
        dst[axis] = slice(-k, n)
    else:
        return a.copy()
    out[tuple(dst)] = a[tuple(src)]
    return out


def grad4(grid: Grid, fld: np.ndarray) -> np.ndarray:
    """Fourth-order centered node gradient of an (nt, n_nodes) field,
    returned as (nt, dim, n_nodes); zero extension outside Dirichlet boxes."""
    nt = fld.shape[0]
    shaped = fld.reshape((nt,) + grid.node_shape)
    per = grid.periodic
    out = np.empty((nt, grid.dim, fld.shape[1]), dtype=fld.dtype)
    for a in range(grid.dim):
        h = grid.spacing[a]
        ax = a + 1
        d = (-_shift(shaped, ax, 2, per) + 8.0 * _shift(shaped, ax, 1, per)
             - 8.0 * _shift(shaped, ax, -1, per) + _shift(shaped, ax, -2, per)) / (12.0 * h)
        out[:, a, :] = d.reshape(nt, -1)
    return out


def star_norm_field(grid: Grid, fld: np.ndarray, V: PotentialField) -> np.ndarray:
    """Nodal star norm sqrt(|grad_h u|^2 + V |u|^2) of each snapshot of an
    (nt, n_nodes) field."""
    return np.sqrt(grad_sq_at_nodes(grid, fld) + V.values.ravel()[None, :] * np.abs(fld) ** 2)


# ---------------------------------------------------------------------------
# chain-rule right-hand side
# ---------------------------------------------------------------------------

def _mollify_scale(u, v, h: float) -> np.ndarray:
    """Mollification scale eps = 2 sqrt(h) * |point|, capped by
    ``cap_mollify_scale``."""
    return cap_mollify_scale(u, v, 2.0 * np.sqrt(h) * np.maximum(u, v))


def _interface_margin_mask(params: BellmanParams, u, v, eps) -> np.ndarray:
    """Nodes close enough to the interface, at mollification scale eps, that
    exact second derivatives are replaced by mollified ones (scale floor
    keeps the negligible far field on the exact branch).

    For p = 2 the two branches of phi coincide identically, so there is no
    interface kink and nothing to mollify.
    """
    p, q = params.p, params.q
    if p == 2.0:
        return np.zeros(np.shape(u), dtype=bool)
    scale = max(float(np.max(u, initial=0.0)), float(np.max(v, initial=0.0)), 1e-30)
    slope = np.sqrt((p * u ** (p - 1.0)) ** 2 + (q * v ** (q - 1.0)) ** 2)
    near = np.abs(u ** p - v ** q) <= eps * slope
    return near & (np.maximum(u, v) >= MOLLIFY_SCALE_FLOOR * scale)


def _pairs_to_real(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """(..., 4) real vectors from two complex arrays."""
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


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
    per axis; the a_ij double sum is evaluated as well and the two must
    agree to ``ARRANGEMENT_TOL``, else AccuracyError.  Near the interface
    the exact second derivatives are replaced by mollified ones.  Spatial
    gradients use the fourth-order centered stencil so the Bellman-side
    discretization error stays below the operator-side signal.
    """
    if traj_f.grid != traj_g.grid or not np.array_equal(traj_f.times, traj_g.times):
        raise DomainError("trajectories must share grid and snapshot times")
    grid = op.grid
    nt, n = traj_f.values.shape
    v1 = traj_f.values
    v2 = traj_g.values
    u, v, ph1, ph2 = _phases(v1, v2)
    (crr, ctt, drr, dtt, m), drift = form_coeffs_and_drift(params, u, v)

    g1 = grad4(grid, v1)  # (nt, d, n)
    g2 = grad4(grid, v2)
    d = grid.dim
    Anode = node_coefficients(op.coefficients)          # (n, d, d)
    S = matrix_sqrt_spd(0.5 * (Anode + np.swapaxes(Anode, -1, -2)))
    th1 = np.einsum("nij,tjn->tni", S, g1).reshape(nt * n, d)
    th2 = np.einsum("nij,tjn->tni", S, g2).reshape(nt * n, d)

    a_part = form_sum_over_axes(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2)

    # a_ij double sum over the raw (possibly nonsymmetric) coefficients
    aij_part = np.zeros(nt * n)
    for i in range(d):
        for j in range(d):
            aij = np.tile(Anode[:, i, j], nt)
            form = bilinear_forms(crr, ctt, drr, dtt, m, ph1, ph2,
                                  g1[:, i, :].ravel(), g2[:, i, :].ravel(),
                                  g1[:, j, :].ravel(), g2[:, j, :].ravel())
            aij_part += aij * form

    # nodes where both fields are negligibly small contribute nothing in the
    # continuum; evaluating v^(q-2)-type tables against stencil leakage at
    # the support edge would produce pure artifacts there
    scale = max(float(u.max(initial=0.0)), float(v.max(initial=0.0)), 1e-300)
    negligible = np.maximum(u, v) < 1e-14 * scale
    if negligible.any():
        a_part[negligible] = 0.0
        aij_part[negligible] = 0.0

    eps = _mollify_scale(u, v, min(grid.spacing))
    idx = np.flatnonzero(_interface_margin_mask(params, u, v, eps))
    if idx.size:
        mats = mollified_neg_hess(params, v1.ravel()[idx], v2.ravel()[idx], eps[idx])
        t1 = _pairs_to_real(th1[idx], th2[idx])            # (k, d, 4)
        a_part[idx] = np.einsum("kdi,kij,kdj->k", t1, mats, t1)
        ti, ni = np.divmod(idx, n)
        gv = _pairs_to_real(g1[ti, :, ni], g2[ti, :, ni])  # (k, d, 4)
        aij_part[idx] = np.einsum("kij,kia,kab,kjb->k", Anode[ni], gv, mats, gv)

    vpot = np.tile(op.potential, nt)
    v_part = vpot * drift
    rhs = (a_part + v_part).reshape(nt, n)
    rhs_aij = (aij_part + v_part).reshape(nt, n)
    gap = float(np.max(np.abs(a_part - aij_part)
                       / np.maximum(1.0, np.abs(a_part))))
    if gap > ARRANGEMENT_TOL:
        raise AccuracyError(
            f"factored and double-sum arrangements disagree: gap {gap:.3e}")
    return ChainRuleField(rhs=rhs, rhs_aij=rhs_aij, arrangement_gap=gap,
                          n_mollified=int(idx.size))


def chain_rule_identity_error(ev: EvolvedScenario, t_min_frac: float = 0.25) -> float:
    """sup |L'b - chain-rule right-hand side| over snapshots with
    t >= t_min_frac * T.

    The early-time window is excluded: at t = 0 the compactly supported
    data vanish to infinite order at their support edge, where discrete
    difference quotients of b are pre-asymptotic artifacts rather than
    approximations of the (vanishing) continuum values.
    """
    params = ev.spec.params
    b = compose_b(params, ev.traj_f, ev.traj_g)
    lp = lprime(ev.op, b, ev.traj_f.times)
    cr = chain_rule_rhs(params, ev.op, ev.traj_f, ev.traj_g)
    times = ev.traj_f.times
    keep = times >= t_min_frac * times[-1] - 1e-12
    return float(np.abs(lp[keep] - cr.rhs[keep]).max())


# ---------------------------------------------------------------------------
# pointwise lower bound
# ---------------------------------------------------------------------------

@dataclass
class PointwiseReport:
    worst_slack: float
    eps_h: float
    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    slack: np.ndarray = field(repr=False)
    n_mollified: int = 0
    arrangement_gap: float = 0.0

    @property
    def ok(self) -> bool:
        return self.worst_slack >= -self.eps_h


def pointwise_check(ev: EvolvedScenario) -> PointwiseReport:
    """Slack of L'b >= 2 delta min(1, gamma) |f~|_* |g~|_* over all nodes
    and snapshot times; acceptance requires worst slack >= -eps_h."""
    spec = ev.spec
    params = spec.params
    cr = chain_rule_rhs(params, ev.op, ev.traj_f, ev.traj_g)
    sf = star_norm_field(spec.grid, ev.traj_f.values, spec.potential)
    sg = star_norm_field(spec.grid, ev.traj_g.values, spec.potential)
    gamma = min(1.0, ev.op.gamma)
    rhs = 2.0 * params.delta * gamma * sf * sg
    slack = cr.rhs - rhs
    eps_h = slack_tolerance(min(spec.grid.spacing), spec.timegrid.dt)
    return PointwiseReport(worst_slack=float(slack.min()), eps_h=eps_h,
                           lhs=cr.rhs, rhs=rhs, slack=slack,
                           n_mollified=cr.n_mollified,
                           arrangement_gap=cr.arrangement_gap)


# ---------------------------------------------------------------------------
# bilinear functional, polarization, embedding
# ---------------------------------------------------------------------------

@dataclass
class BilinearReport:
    E_T: float
    tail: float
    mu: float
    tail_reliable: bool
    integrand: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)


def bilinear_functional(ev: EvolvedScenario) -> BilinearReport:
    """Space-time quadrature of |f~|_* |g~|_* over [0, T] plus a tail bound
    for (T, inf) from the fitted exponential decay of ||f~||_2 ||g~||_2."""
    spec = ev.spec
    w = spec.grid.cell_volume
    sf = star_norm_field(spec.grid, ev.traj_f.values, spec.potential)
    sg = star_norm_field(spec.grid, ev.traj_g.values, spec.potential)
    S = w * np.sum(sf * sg, axis=1)
    times = ev.traj_f.times
    E_T = float(np.trapezoid(S, times))
    wf = np.linalg.norm(ev.traj_f.values, axis=1)
    wg = np.linalg.norm(ev.traj_g.values, axis=1)
    prod = wf * wg
    k = max(len(times) // 4, 3)
    tt, yy = times[-k:], prod[-k:]
    reliable = bool(np.all(yy > 0.0))
    mu = float("nan")
    tail = float("inf")
    if reliable:
        slope, _ = np.polyfit(tt, np.log(yy), 1)
        mu = float(-slope)
        if mu > 0.0 and np.isfinite(mu):
            tail = float(S[-1] / mu)
        else:
            reliable = False
    return BilinearReport(E_T=E_T, tail=tail, mu=mu, tail_reliable=reliable,
                          integrand=S, times=times)


@dataclass
class PolarizeResult:
    lambda_star: float | None
    value: float
    degenerate: bool = False


def polarize(a: float, b: float, p: float) -> PolarizeResult:
    """Minimize lambda^p a + lambda^(-q) b over lambda > 0.

    For a = ||f||_p^p and b = ||g||_q^q the optimum equals
    ||f||_p ||g||_q ((q/p)^(1/q) + (p/q)^(1/p)).
    """
    if p < 2.0:
        raise DomainError("exponent p must be >= 2")
    q = p / (p - 1.0)
    if a <= 0.0 or b <= 0.0:
        return PolarizeResult(lambda_star=None, value=0.0, degenerate=True)
    lam = (q * b / (p * a)) ** (1.0 / (p + q))
    return PolarizeResult(lambda_star=float(lam),
                          value=float(lam ** p * a + lam ** (-q) * b))


@dataclass
class EmbeddingReport:
    E_T: float
    tail: float
    tail_reliable: bool
    norm_f_p: float
    norm_g_q: float
    gamma: float
    sum_bound: float
    sum_margin: float
    lambda_star: float | None
    product_bound: float
    product_margin: float
    ratio_empirical: float
    quad_error_est: float

    @property
    def sum_form_ok(self) -> bool:
        return self.sum_margin > self.quad_error_est

    @property
    def product_form_ok(self) -> bool:
        return self.product_margin > self.quad_error_est

    @property
    def ok(self) -> bool:
        return self.tail_reliable and self.sum_form_ok and self.product_form_ok


def embedding_check(ev: EvolvedScenario) -> EmbeddingReport:
    """The two closed forms of the embedding bound.

    Sum form: E_T + tail <= max(1, 1/gamma)/(2 delta) (||f||_p^p + ||g||_q^q).
    Product form: the same constant times
    ((q/p)^(1/q) + (p/q)^(1/p)) ||f||_p ||g||_q, from optimizing the scaling
    (f, g) -> (lam f, g/lam).
    """
    spec = ev.spec
    params = spec.params
    p, q, delta = params.p, params.q, params.delta
    rep = bilinear_functional(ev)
    nf = spec.f.norm(p)
    ng = spec.g.norm(q)
    cgam = max(1.0, 1.0 / ev.op.gamma) / (2.0 * delta)
    a = nf ** p
    b = ng ** q
    sum_bound = cgam * (a + b)
    pol = polarize(a, b, p)
    product_bound = cgam * ((q / p) ** (1.0 / q) + (p / q) ** (1.0 / p)) * nf * ng
    total = rep.E_T + (rep.tail if rep.tail_reliable else 0.0)
    # quadrature error estimate: Richardson on the time trapezoid, plus the
    # whole tail when its fit is unreliable
    S, times = rep.integrand, rep.times
    coarse = float(np.trapezoid(S[::2], times[::2]))
    quad_err = abs(rep.E_T - coarse) / 3.0
    if not rep.tail_reliable:
        quad_err = float("inf")
    ratio = total / (p * nf * ng) if nf * ng > 0 else 0.0
    return EmbeddingReport(
        E_T=rep.E_T, tail=rep.tail, tail_reliable=rep.tail_reliable,
        norm_f_p=nf, norm_g_q=ng, gamma=ev.op.gamma,
        sum_bound=sum_bound, sum_margin=sum_bound - total,
        lambda_star=pol.lambda_star, product_bound=product_bound,
        product_margin=product_bound - total,
        ratio_empirical=ratio, quad_error_est=quad_err)


# ---------------------------------------------------------------------------
# cutoff integration by parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff psi_R: 1 on |x| <= R, 0 on |x| >= 2R, quintic smoothstep
    in between, so ||grad psi_R||_inf = (15/8)/R."""

    R: float

    def values_at(self, grid: Grid) -> np.ndarray:
        center = 0.5 * (np.asarray(grid.lo) + np.asarray(grid.hi))
        r = np.zeros(grid.node_shape)
        for x, c in zip(grid.node_coords(), center):
            r = r + (x - c) ** 2
        r = np.sqrt(r)
        t = np.clip((r - self.R) / self.R, 0.0, 1.0)
        s = 6.0 * t ** 5 - 15.0 * t ** 4 + 10.0 * t ** 3
        return 1.0 - s

    @property
    def grad_bound(self) -> float:
        return 1.875 / self.R


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

    @property
    def ok(self) -> bool:
        return self.I_RT <= self.bound + self.eps_R


@dataclass
class IbpReport:
    rows: list[IbpRow]
    nodewise_initial_ok: bool
    final_nonpositive_ok: bool

    @property
    def eps_nonincreasing(self) -> bool:
        """eps_R does not grow with R, up to rounding."""
        eps = [r.eps_R for r in self.rows]
        return all(e1 - e0 <= 1e-10 + 1e-6 * abs(e0) for e0, e1 in zip(eps, eps[1:]))

    @property
    def flux_decays(self) -> bool:
        """The flux through the largest cutoff annulus is at most half the
        flux through the smallest."""
        return abs(self.rows[0].flux_term) >= 2.0 * abs(self.rows[-1].flux_term)

    @property
    def ok(self) -> bool:
        return (all(r.ok for r in self.rows) and self.eps_nonincreasing
                and self.flux_decays
                and self.nodewise_initial_ok and self.final_nonpositive_ok)


def ibp_upper_check(ev: EvolvedScenario, radii=None) -> IbpReport:
    """I_{R,T} = int_0^T int psi_R L'b against ||f||_p^p + ||g||_q^q.

    The parabolic term is also reduced exactly to int psi_R (b(T) - b(0)),
    and the discarded pieces of the integration by parts (the flux through
    the cutoff annulus and the nonpositive V b term) are reported per R.
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
    w = grid.cell_volume
    b_field = compose_b(params, ev.traj_f, ev.traj_g)
    times = ev.traj_f.times
    lp = lprime(ev.op, b_field, times)
    # split L'b into d/dt b and L b for the reported reduction
    Lb = (ev.op.matrix @ b_field.T).T.real
    ddt = lp - Lb
    G = ev.op.gradient
    Ah = ev.op.face_action
    rows = []
    nf = spec.f.norm(params.p)
    ng = spec.g.norm(params.q)
    bound = nf ** params.p + ng ** params.q
    for R in radii:
        psi = CutoffSpec(R).values_at(grid).ravel()
        I_RT = float(np.trapezoid(w * (lp * psi[None, :]).sum(axis=1), times))
        t_quad = float(np.trapezoid(w * (ddt * psi[None, :]).sum(axis=1), times))
        t_exact = float(w * np.dot(psi, b_field[-1] - b_field[0]))
        gpsi = G @ psi
        flux = float(np.trapezoid(
            w * np.array([np.dot(gpsi, Ah @ (G @ b_field[k])) for k in range(len(times))]),
            times))
        pot = float(np.trapezoid(
            w * ((ev.op.potential[None, :] * b_field) * psi[None, :]).sum(axis=1), times))
        eps_R = abs(flux) + abs(t_quad - t_exact)
        rows.append(IbpRow(R=R, I_RT=I_RT, bound=bound, eps_R=eps_R,
                           time_term_quad=t_quad, time_term_exact=t_exact,
                           flux_term=flux, potential_term=pot))
    # nodewise: -b(x,0) = phi(|f|,|g|)/2 <= |f|^p + |g|^q by the range bound
    lhs0 = -b_field[0]
    rhs0 = np.abs(spec.f.flat) ** params.p + np.abs(spec.g.flat) ** params.q
    nodewise_ok = bool(np.all(lhs0 <= rhs0 * (1 + 1e-12) + 1e-300))
    final_ok = bool(np.all(b_field[-1] <= 1e-300))
    return IbpReport(rows=rows, nodewise_initial_ok=nodewise_ok,
                     final_nonpositive_ok=final_ok)


# ---------------------------------------------------------------------------
# off-diagonal decay
# ---------------------------------------------------------------------------

@dataclass
class OffdiagSample:
    t: float
    distance: float
    ratio: float
    excluded: bool


@dataclass
class OffdiagReport:
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
    def ok(self) -> bool:
        return self.slope < 0.0 and self.r_squared >= 0.9


def _l2_over_mask(grid: Grid, vals: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(np.abs(vals.ravel()[mask.ravel()]) ** 2)))


def offdiag_check(op: DiscreteOperator, h_datum: GridFunction,
                  e_center, e_radius: float, distances, band_width: float,
                  ts, operator: str = "P", steps: int = 64,
                  solver: SolverConfig | None = None,
                  floor: float = FLOAT_FLOOR) -> OffdiagReport:
    """Fit log(||T_t h||_{L2(F)} / ||h||_{L2(E)}) against d(E,F)^2 / t.

    ``operator`` selects T_t from {"P", "tLP", "sqrt-t-grad-P"}.  Far sets F
    are the annuli dist(x, E) in [d, d + band_width].  Samples whose ratio
    sits at the floating-point floor are excluded from the fit and counted.
    """
    if operator not in ("P", "tLP", "sqrt-t-grad-P"):
        raise DomainError(f"unknown operator choice {operator!r}")
    grid = op.grid
    solver = solver or SolverConfig(tol=1e-12)
    center = np.atleast_1d(np.asarray(e_center, dtype=float))
    coords = grid.node_coords()
    r_node = np.sqrt(sum((x - c) ** 2 for x, c in zip(coords, center)))
    dist_node = np.maximum(r_node - e_radius, 0.0)
    e_mask = (dist_node == 0.0)
    h_norm = _l2_over_mask(grid, h_datum.values, e_mask)
    outside = np.abs(h_datum.values)[~e_mask]
    if outside.size and outside.max() > 0:
        raise DomainError("datum must be supported inside the near set E")
    grads, _, _ = _grid_maps(grid)
    samples = []
    for t in ts:
        tg = TimeGrid(dt=t / steps, T=t, scheme=Scheme.BACKWARD_EULER,
                      snapshot_stride=steps)
        traj = evolve(op, h_datum, tg, solver)
        u_t = traj.values[-1]
        if operator == "tLP":
            vals = t * (op.matrix @ u_t)
        else:
            vals = u_t
        for d0 in distances:
            if operator == "sqrt-t-grad-P":
                total = 0.0
                for a in range(grid.dim):
                    mids = grid.face_midpoints(a)
                    rf = np.sqrt(sum((x - c) ** 2 for x, c in zip(mids, center)))
                    df = np.maximum(rf - e_radius, 0.0)
                    fm = (df >= d0) & (df <= d0 + band_width)
                    w = grads[a] @ u_t
                    total += np.sum(np.abs(w.ravel()[fm.ravel()]) ** 2)
                norm_f = math.sqrt(grid.cell_volume * total) * math.sqrt(t)
            else:
                f_mask = (dist_node >= d0) & (dist_node <= d0 + band_width)
                norm_f = _l2_over_mask(grid, vals, f_mask)
            ratio = norm_f / h_norm
            samples.append(OffdiagSample(t=float(t), distance=float(d0),
                                         ratio=float(ratio),
                                         excluded=bool(ratio <= floor)))
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


# ---------------------------------------------------------------------------
# square function
# ---------------------------------------------------------------------------

@dataclass
class SquareFunctionResult:
    values: GridFunction
    tail_fraction: float
    mu: float


def square_function(op: DiscreteOperator, u: GridFunction, T: float, dt: float,
                    solver: SolverConfig | None = None,
                    scheme: Scheme = Scheme.CRANK_NICOLSON) -> SquareFunctionResult:
    """G u(x) = (int_0^inf |grad P_t u(x)|^2 dt)^(1/2), by trapezoid over
    [0, T] plus a per-node exponential tail estimate fitted from the decay
    of the integrated gradient energy."""
    solver = solver or SolverConfig(tol=1e-12)
    tg = TimeGrid(dt=dt, T=T, scheme=scheme)
    traj = evolve(op, u, tg, solver)
    nt = len(traj.times)
    g2 = grad_sq_at_nodes(op.grid, traj.values)
    integral = np.trapezoid(g2, traj.times, axis=0)
    energy = g2.sum(axis=1)
    kfit = max(nt // 4, 3)
    mu = float("nan")
    tail = np.zeros(op.n)
    pos = energy[-kfit:] > 0
    if pos.all():
        slope, _ = np.polyfit(traj.times[-kfit:], np.log(energy[-kfit:]), 1)
        mu = float(-slope)
        if mu > 0:
            tail = g2[-1] / mu
    total = integral + tail
    frac = float(tail.sum() / max(total.sum(), 1e-300))
    return SquareFunctionResult(values=GridFunction(op.grid, np.sqrt(total)),
                                tail_fraction=frac, mu=mu)
