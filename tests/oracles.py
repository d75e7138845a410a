"""Reference implementations shared by the test modules.

The scalar Bellman functions here are independent of the batched code in
``divbell.bellman``: they classify one point at a time, evaluate one branch
formula per call, and raise where a second derivative does not exist.
Tests compare the batched tables, forms and certificates against them.
"""

import enum
import math
from functools import reduce
from itertools import repeat
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

import divbell.bellman as bl
import divbell.semigroup as sg
from divbell.bellman import BellmanParams, _form_coeffs, _phases
from divbell.errors import AccuracyError, DomainError, SingularityError
from divbell.grids import GridFunction

# Relative threshold on |u^p - v^q| below which a point is classified as
# lying on the interface.
INTERFACE_REL_THRESHOLD = 1e-9


class RegionLabel(enum.Enum):
    REGION1 = "region1"
    REGION2 = "region2"
    INTERFACE = "interface"


class ComplexPair(NamedTuple):
    """A point xi = (zeta, eta) in C^2."""

    zeta: complex
    eta: complex


def _check_nonneg(u: float, v: float) -> tuple[float, float]:
    u = float(u)
    v = float(v)
    if not (math.isfinite(u) and math.isfinite(v)) or u < 0.0 or v < 0.0:
        raise DomainError(f"moduli must be finite and nonnegative, got ({u}, {v})")
    return u, v


def classify(params: BellmanParams, u: float, v: float,
             threshold: float = INTERFACE_REL_THRESHOLD) -> RegionLabel:
    """Total classification of (u, v) into region 1, region 2 or interface."""
    u, v = _check_nonneg(u, v)
    t1 = u ** params.p
    t2 = v ** params.q
    if abs(t1 - t2) <= threshold * max(t1, t2, 1.0):
        return RegionLabel.INTERFACE
    return RegionLabel.REGION1 if t1 < t2 else RegionLabel.REGION2


def _phi_branch(params: BellmanParams, u: float, v: float, region1: bool) -> float:
    p, q, delta = params.p, params.q, params.delta
    base = u ** p + v ** q
    if region1:
        return base + delta * (u * u) * v ** (2.0 - q)
    return base + delta * ((2.0 / p) * u ** p + (2.0 / q - 1.0) * v ** q)


def eval_phi(params: BellmanParams, u: float, v: float) -> float:
    """Piecewise value of phi; on the interface band both branches are
    evaluated, averaged, and checked against the band's mismatch bound
    (AccuracyError when they differ by more)."""
    u, v = _check_nonneg(u, v)
    label = classify(params, u, v)
    if label is RegionLabel.INTERFACE:
        b1 = _phi_branch(params, u, v, True)
        b2 = _phi_branch(params, u, v, False)
        # b2 - b1 = delta*(AM - GM) of (u^p, v^q) with weights (2/p, 1-2/p),
        # which is at most delta*|u^p - v^q|: the band's width.  Near the
        # origin the band's floor of 1 makes this absolute, not relative.
        t1 = u ** params.p
        t2 = v ** params.q
        tol = (params.delta * INTERFACE_REL_THRESHOLD * max(t1, t2, 1.0)
               + 1e-15 * max(abs(b1), abs(b2)))
        if abs(b1 - b2) > tol:
            raise AccuracyError(f"interface branch mismatch at ({u}, {v}): "
                                f"{b1} vs {b2} (> {tol:.3e})")
        return 0.5 * (b1 + b2)
    return _phi_branch(params, u, v, label is RegionLabel.REGION1)


def eval_Q(params: BellmanParams, xi: ComplexPair) -> float:
    """Q(zeta, eta) = -phi(|zeta|, |eta|)/2, always nonpositive."""
    return -0.5 * eval_phi(params, abs(complex(xi[0])), abs(complex(xi[1])))


def grad_phi(params: BellmanParams, u: float, v: float,
             region: RegionLabel | None = None) -> tuple[float, float]:
    """Closed-form (phi_u, phi_v).

    ``region`` forces one branch (interface points may be evaluated by
    either).  Requesting the region-1 formula on the ray v = 0 with u > 0 is
    a singularity error since that branch contains v^(1-q).
    """
    u, v = _check_nonneg(u, v)
    p, q, delta = params.p, params.q, params.delta
    if region is None:
        label = classify(params, u, v)
        region1 = label is not RegionLabel.REGION2
    else:
        region1 = region is not RegionLabel.REGION2
    if region1:
        if v == 0.0 and u > 0.0:
            raise SingularityError("eta-zero-ray",
                                   "region-1 gradient formula is singular on v = 0")
        du = p * u ** (p - 1.0) + 2.0 * delta * u * v ** (2.0 - q)
        if u == 0.0 and v == 0.0:
            dv = 0.0
        else:
            dv = q * v ** (q - 1.0) + delta * (2.0 - q) * u * u * v ** (1.0 - q)
    else:
        du = (p + 2.0 * delta) * u ** (p - 1.0)
        dv = (q + delta * (2.0 - q)) * v ** (q - 1.0)
    return du, dv


def _guard_second_order(params: BellmanParams, u: float, v: float,
                        interface_margin: float, modulus_floor: float) -> None:
    if u <= modulus_floor:
        raise SingularityError("zeta-zero-ray",
                               f"|zeta| = {u} is within the modulus floor {modulus_floor}")
    if v <= modulus_floor:
        raise SingularityError("eta-zero-ray",
                               f"|eta| = {v} is within the modulus floor {modulus_floor}")
    t1 = u ** params.p
    t2 = v ** params.q
    if abs(t1 - t2) <= interface_margin * max(t1, t2, 1.0):
        raise SingularityError("interface",
                               f"({u}, {v}) is within the interface margin {interface_margin}")


def neg_hess_matrix(params: BellmanParams, xi: ComplexPair, *,
                    interface_margin: float = INTERFACE_REL_THRESHOLD,
                    modulus_floor: float = 1e-12) -> np.ndarray:
    """-d2Q(xi) as a real symmetric 4x4 matrix in the coordinates
    (Re zeta, Im zeta, Re eta, Im eta)."""
    zeta = complex(xi[0])
    eta = complex(xi[1])
    _guard_second_order(params, abs(zeta), abs(eta), interface_margin, modulus_floor)
    u, v, ph1, ph2 = _phases([zeta], [eta])
    crr, ctt, drr, dtt, m = _form_coeffs(params, u, v)
    return _assemble_neg_hess(crr, ctt, drr, dtt, m, ph1, ph2)[0]


def _assemble_neg_hess(crr, ctt, drr, dtt, m, ph1, ph2) -> np.ndarray:
    """(n, 4, 4) stack of -d2Q matrices from radial coefficients."""
    n = crr.size
    r1 = np.stack([ph1.real, ph1.imag], axis=1)
    r2 = np.stack([ph2.real, ph2.imag], axis=1)
    out = np.zeros((n, 4, 4))
    eye = np.eye(2)
    p11 = r1[:, :, None] * r1[:, None, :]
    p22 = r2[:, :, None] * r2[:, None, :]
    p12 = r1[:, :, None] * r2[:, None, :]
    out[:, :2, :2] = ctt[:, None, None] * eye + (crr - ctt)[:, None, None] * p11
    out[:, 2:, 2:] = dtt[:, None, None] * eye + (drr - dtt)[:, None, None] * p22
    out[:, :2, 2:] = m[:, None, None] * p12
    out[:, 2:, :2] = np.swapaxes(out[:, :2, 2:], 1, 2)
    return out


def second_order_ref(p, q, delta, u, v, r1=None, vpow=None):
    """Reference for ``bellman.second_order``, in its signature so that it
    can stand in for it: each of the five tables as a select between its
    two branch formulas, with every power of v its own ``**``, the negative
    ones on v clamped to ``MOD_FLOOR``.  ``vpow`` is ignored."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if r1 is None:
        r1 = u ** p <= v ** q
    vc = np.maximum(v, bl.MOD_FLOOR)
    up2 = u ** (p - 2.0)
    v2q = v ** (2.0 - q)
    v1q = vc ** (1.0 - q)
    vq2 = vc ** (q - 2.0)
    vmq = vc ** (-q)
    u2 = u * u
    c2p = p + 2.0 * delta
    c2q = q + delta * (2.0 - q)
    phi_uu = np.where(r1, p * (p - 1.0) * up2 + 2.0 * delta * v2q, c2p * (p - 1.0) * up2)
    phi_uv = np.where(r1, 2.0 * delta * (2.0 - q) * u * v1q, 0.0)
    phi_vv = np.where(r1, q * (q - 1.0) * vq2 + delta * (2.0 - q) * (1.0 - q) * u2 * vmq,
                      c2q * (q - 1.0) * vq2)
    phi_u_over_u = np.where(r1, p * up2 + 2.0 * delta * v2q, c2p * up2)
    phi_v_over_v = np.where(r1, q * vq2 + delta * (2.0 - q) * u2 * vmq, c2q * vq2)
    return phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v


def pair_to_real4(sigma: ComplexPair) -> np.ndarray:
    return np.array([complex(sigma[0]).real, complex(sigma[0]).imag,
                     complex(sigma[1]).real, complex(sigma[1]).imag])


def stack_mollified_neg_hess(params, zeta, eta, eps, order=bl.MOLLIFIER_ORDER, *,
                             phase_frame=True):
    """The mollified -d2Q at the scales given as the full (k, nq, 4, 4)
    stack of per-quadrature-point -d2Q matrices, averaged with the weights
    of a freshly built order-``order`` rule, with no use of symmetry.  The
    quadrature nodes sit in each point's phase frame,
    (zeta, eta) - eps (ph1 (y0 + i y1), ph2 (y2 + i y3)), or with
    ``phase_frame=False`` in the data's frame, without the phases."""
    mol = bl.Mollifier(order)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    eps = np.broadcast_to(np.asarray(eps, dtype=float), zeta.shape)
    _, _, ph1, ph2 = bl._phases(zeta, eta) if phase_frame else (None, None, 1.0, 1.0)
    y = mol.nodes
    zs = zeta[:, None] - (eps * ph1)[:, None] * (y[None, :, 0] + 1j * y[None, :, 1])
    es = eta[:, None] - (eps * ph2)[:, None] * (y[None, :, 2] + 1j * y[None, :, 3])
    u, v, ph1, ph2 = bl._phases(zs.ravel(), es.ravel())
    coeffs = bl._form_coeffs(params, np.maximum(u, bl.ZERO_MODULUS),
                             np.maximum(v, bl.ZERO_MODULUS))
    mats = _assemble_neg_hess(*coeffs, ph1, ph2).reshape(zeta.size, mol.weights.size, 4, 4)
    return np.einsum("q,kqij->kij", mol.weights, mats)


def stack_mollified_form_coeffs(params, u, v, eps):
    """Oracle for ``bellman.mollified_form_coeffs``: the entries (0, 0),
    (1, 1), (2, 2), (3, 3) and (0, 2) of ``stack_mollified_neg_hess`` at the
    points (u, v) on the positive real axes, at the capped scales, in the
    order (crr, ctt, drr, dtt, m)."""
    u, v = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (u, v))
    mats = stack_mollified_neg_hess(params, u, v, bl.cap_mollify_scale(u, v, eps))
    return mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2], mats[:, 3, 3], mats[:, 0, 2]


def mollified_matrix(params, zeta, eta, eps) -> np.ndarray:
    """The (k, 4, 4) stack of mollified -d2Q matrices that
    ``bellman.mollified_form_coeffs`` gives at the moduli of the points,
    assembled with the points' phases."""
    u, v, ph1, ph2 = bl._phases(np.atleast_1d(zeta), np.atleast_1d(eta))
    return _assemble_neg_hess(*bl.mollified_form_coeffs(params, u, v, eps), ph1, ph2)


def smooth_random_full(coords, grid, rng: np.random.Generator, modes: int = 2) -> np.ndarray:
    """``presets._smooth_random`` evaluated on the full coordinate arrays
    ``coords``: every mode's cosine product is formed point by point."""
    out = np.zeros_like(coords[0])
    for _ in range(modes * grid.dim + 1):
        ks = rng.integers(1, modes + 1, size=grid.dim)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.dim)
        c = rng.normal(0.0, 1.0)
        term = np.ones_like(coords[0]) * c
        for a, x in enumerate(coords):
            L = grid.hi[a] - grid.lo[a]
            term = term * np.cos(2.0 * np.pi * ks[a] * (x - grid.lo[a]) / L + phases[a])
        out = out + term
    return out / np.sqrt(modes * grid.dim + 1)


def _axis_maps(grid, axis):
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


def grid_maps(grid):
    """Per-axis gradient G_a and vertex-to-face average T_a, each a kron of
    its axis's map with the identity (for G_a) or the vertex-to-node
    selection (for T_a) across the other axes."""
    d = grid.dim
    diffs, avgs, selects = zip(*(_axis_maps(grid, a) for a in range(d)))
    eye_nodes = [sp.identity(m, format="csr") for m in grid.node_shape]

    def per_axis(along, across):
        return [reduce(lambda x, y: sp.kron(x, y, format="csr"),
                       [along[b] if b == a else across[b] for b in range(d)])
                for a in range(d)]

    return per_axis(diffs, eye_nodes), per_axis(avgs, selects)


def face_action(grid, A) -> sp.csr_matrix:
    """The face matrix A_h on the concatenated face space: a_aa averaged
    onto each a-face from its two vertices, and each cross entry a_ab
    (a != b) coupling an a-face to the b-faces sharing one of its vertices
    with weight a_ab(shared vertex)/4, through both averaging maps."""
    d = grid.dim
    t_maps = grid_maps(grid)[1]
    blocks = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            coeff = A.values[..., a, b].ravel()
            if a == b:
                blocks[a][b] = sp.diags(t_maps[a] @ coeff)
            else:
                blocks[a][b] = t_maps[a] @ sp.diags(coeff) @ t_maps[b].T
    return sp.bmat(blocks, format="csr")


def flux_form_matrix(grid, A, V) -> sp.csr_matrix:
    """Reference for ``operators.assemble``: G^T A_h G + diag(V) by sparse
    products, G the stacked per-axis gradients."""
    G = sp.vstack(grid_maps(grid)[0], format="csr")
    return (G.T @ face_action(grid, A) @ G + sp.diags(V.values.ravel())).tocsr()


def grad_sq_at_nodes_maps(grid, u) -> np.ndarray:
    """Reference for ``operators.grad_sq_at_nodes`` on an (n_nodes, k)
    array: per axis a, the face differences G_a u by the sparse gradient,
    squared and averaged onto the nodes by the face-to-node map
    |G_a|^T h_a / 2, both applied as complex matrices."""
    u = np.asarray(u, dtype=np.complex128)
    out = np.zeros(u.shape)
    for G, h in zip(grid_maps(grid)[0], grid.spacing):
        w = G.astype(np.complex128) @ u
        out += (abs(G).T * (h / 2)) @ (w.real ** 2 + w.imag ** 2)
    return out


def advance_complex(stepper, u: np.ndarray):
    """One ``_LinearStep.advance_rows`` solve for the complex (n, k) block
    ``u`` of k data, on a stepper of one operator; returns the complex
    (n, k) outputs and the stats."""
    rows, part = sg._real_rows(u)
    x_rows, (st,) = stepper.advance_rows(rows, (part // 2)[:, None])
    x = np.zeros((2 * u.shape[1], u.shape[0]))
    x[part] = x_rows
    return (x[0::2] + 1j * x[1::2]).T, st


def parts(z) -> np.ndarray:
    """The (2, ...) real stack (Re z, Im z) of a complex array: the parts
    layout of ``bellman.bilinear_forms`` and ``harness._arrangements``."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag])


def _from_parts(x) -> np.ndarray:
    """The complex array of a (P, ...) real parts stack."""
    out = np.array(x[0], dtype=complex)
    if len(x) == 2:
        out.imag = x[1]
    return out


def bilinear_forms_complex(crr, ctt, drr, dtt, m, ph1, ph2, a1, a2, b1, b2):
    """Reference for ``bellman.bilinear_forms``, in its signature so that it
    can stand in for it: the parts stacks become complex arrays again and
    the form is taken in complex arithmetic."""
    ph1, ph2, a1, a2, b1, b2 = map(_from_parts, (ph1, ph2, a1, a2, b1, b2))
    xa1 = np.real(np.conj(ph1) * a1)
    xa2 = np.real(np.conj(ph2) * a2)
    xb1 = np.real(np.conj(ph1) * b1)
    xb2 = np.real(np.conj(ph2) * b2)
    dot1 = np.real(a1 * np.conj(b1))
    dot2 = np.real(a2 * np.conj(b2))
    return (ctt * dot1 + (crr - ctt) * xa1 * xb1 + (m * xa1 * xb2 + m * xb1 * xa2)
            + dtt * dot2 + (drr - dtt) * xa2 * xb2)


def arrangements_complex(form, grads, S, A):
    """Reference for ``harness._arrangements``, in its signature so that it
    can stand in for it: the gradients become complex (d, ...) fields, S
    and A (..., d, d) stacks, S g and A g one complex einsum each, and the
    form receives (2, ...) parts stacks."""
    g1, g2 = np.moveaxis(_from_parts(np.moveaxis(grads, 2, 0)), 1, 0)
    S, A = (np.moveaxis(M, (0, 1), (-2, -1)) for M in (S, A))
    th1, th2, ag1, ag2 = (np.einsum("...ij,j...->i...", M, g)
                          for M in (S, A) for g in (g1, g2))
    factored = sum(form(parts(th1[k]), parts(th2[k]), parts(th1[k]), parts(th2[k]))
                   for k in range(len(g1)))
    double = sum(form(parts(g1[i]), parts(g2[i]), parts(ag1[i]), parts(ag2[i]))
                 for i in range(len(g1)))
    return factored, double


def star_norm_field(grid, fld, V) -> np.ndarray:
    """Reference for the star norms of ``harness._star_sq``: the nodal star
    norm sqrt(|grad_h u|^2 + V |u|^2) of each snapshot of an (nt, n_nodes)
    complex field, with the gradient of the complex transpose taken at
    once by the sparse maps and the potential against the squared modulus."""
    u = np.asarray(fld, dtype=np.complex128).T
    mod2 = u.real ** 2 + u.imag ** 2
    return np.sqrt(grad_sq_at_nodes_maps(grid, u) + V.values.reshape(-1, 1) * mod2).T


class PolarizeResult(NamedTuple):
    lambda_star: float | None
    value: float
    degenerate: bool = False


def polarize(a: float, b: float, p: float) -> PolarizeResult:
    """Minimize lambda^p a + lambda^(-q) b over lambda > 0: the closed-form
    minimizer, against which ``harness.embedding_check``'s ``lambda_star``
    is read.  For a = ||f||_p^p and b = ||g||_q^q the optimum equals
    ||f||_p ||g||_q ((q/p)^(1/q) + (p/q)^(1/p))."""
    if p < 2.0:
        raise DomainError("exponent p must be >= 2")
    q = p / (p - 1.0)
    if a <= 0.0 or b <= 0.0:
        return PolarizeResult(lambda_star=None, value=0.0, degenerate=True)
    lam = (q * b / (p * a)) ** (1.0 / (p + q))
    return PolarizeResult(lambda_star=float(lam),
                          value=float(lam ** p * a + lam ** (-q) * b))


class SquareFunctionResult(NamedTuple):
    values: GridFunction
    tail_fraction: float
    mu: float


def square_function(op, u, T: float, dt: float) -> SquareFunctionResult:
    """G u(x) = (int_0^inf |grad P_t u(x)|^2 dt)^(1/2), by trapezoid over
    [0, T] plus a per-node exponential tail estimate fitted from the decay
    of the integrated gradient energy, on Crank-Nicolson steps."""
    traj = sg.evolve(op, u, sg.TimeGrid(dt=dt, T=T, scheme=sg.Scheme.CRANK_NICOLSON),
                     sg.SolverConfig(tol=1e-12))
    nt = len(traj.times)
    g2 = grad_sq_at_nodes_maps(op.grid, traj.values.T).T
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


def field_rows(rows):
    """Reference rendering of a ``reports.FieldRows``: its rows
    ``(*coords, t, *values)`` as tuples of Python floats, snapshot-major,
    which ``lines`` must format as ``fmt`` formats each value."""
    coords = [c.tolist() for c in rows.coords]
    for t, *vals in zip(rows.times.tolist(), *rows.fields):
        yield from zip(*coords, repeat(t), *(v.tolist() for v in vals))
