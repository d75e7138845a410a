"""The two-variable Bellman function, its derivative tables, the forms of
-d2Q, the mollified -d2Q, and the batched tau certificate.

The central objects are

    phi(u, v) = u^p + v^q + delta * { u^2 v^(2-q)              if u^p <= v^q
                                    { (2/p) u^p + (2/q-1) v^q  if u^p >= v^q

for p >= 2, q = p/(p-1), delta = q(q-1)/8, and

    Q(zeta, eta) = -phi(|zeta|, |eta|) / 2

on C x C.  phi is C^1 everywhere and C^2 away from the interface
``u^p = v^q`` and the ray ``v = 0``; second-order quantities near those sets
are handled by mollification.

Every function here works on arrays of points; the scalar reference
implementations that tests compare against live in ``tests/oracles.py``.

Conventions of the vectorized tables and forms:

* ``u, v`` are the moduli ``|zeta|, |eta|`` (nonnegative floats).
* Region 1 is ``u**p <= v**q``, region 2 the complement.  Tie points go to
  region 1; the two branches agree in value and first derivatives there.
* Negative powers of ``v`` are evaluated with ``v`` clamped to ``MOD_FLOOR``
  so tables stay finite; callers are responsible for staying off the
  singular rays when the unclamped value matters.
* The quadratic form ``H(s) = <-d2Q(xi) s, s>`` for ``s=(s1,s2)`` in C^2 is

      H = ctt*|s1|^2 + (crr-ctt)*x1^2 + 2*m*x1*x2
        + dtt*|s2|^2 + (drr-dtt)*x2^2,

  with ``x1 = Re(s1 * conj(zeta/u))``, ``x2 = Re(s2 * conj(eta/v))`` and
  radial coefficients crr = phi_uu/2, ctt = (phi_u/u)/2, drr = phi_vv/2,
  dtt = (phi_v/v)/2, m = phi_uv/2.

Everything here is a pure function of its arguments and safe to call from
any number of threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

# Moduli below this are treated as exactly zero for certification purposes.
ZERO_MODULUS = 1e-300

# Floor applied to moduli before raising them to negative powers.
MOD_FLOOR = 1e-150


@dataclass(frozen=True)
class BellmanParams:
    """Exponent pair (p, q) and the convexity weight delta = q(q-1)/8.

    Construct with the single exponent: ``BellmanParams(3.0)``.  If q or
    delta are passed explicitly they are validated against the derived
    values to machine precision.
    """

    p: float
    q: float | None = None
    delta: float | None = None

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or p < 2.0:
            raise DomainError(f"exponent p must be finite and >= 2, got {p}")
        q = p / (p - 1.0)
        delta = q * (q - 1.0) / 8.0
        if self.q is not None and abs(self.q - q) > 4e-16 * q:
            raise DomainError(f"q={self.q} is not conjugate to p={p}")
        if self.delta is not None and abs(self.delta - delta) > 4e-16 * delta:
            raise DomainError(f"delta={self.delta} does not equal q(q-1)/8")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "delta", delta)


# ---------------------------------------------------------------------------
# vectorized derivative tables and forms of -d2Q
# ---------------------------------------------------------------------------

def second_order(p, q, delta, u, v, r1=None):
    """Second-order radial derivatives of phi, vectorized.

    Returns (phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v) as flat
    arrays.  r1 is the region-1 mask; it is computed when not given.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if r1 is None:
        r1 = u ** p <= v ** q
    vc = np.maximum(v, MOD_FLOOR)
    up2 = u ** (p - 2.0)
    v2q = v ** (2.0 - q)      # exponent in [0, 1)
    v1q = vc ** (1.0 - q)     # negative exponent, clamped
    vq2 = vc ** (q - 2.0)
    vmq = vc ** (-q)
    u2 = u * u
    c2p = p + 2.0 * delta
    c2q = q + delta * (2.0 - q)

    phi_uu = np.where(r1, p * (p - 1.0) * up2 + 2.0 * delta * v2q, c2p * (p - 1.0) * up2)
    phi_uv = np.where(r1, 2.0 * delta * (2.0 - q) * u * v1q, 0.0)
    phi_vv = np.where(
        r1,
        q * (q - 1.0) * vq2 + delta * (2.0 - q) * (1.0 - q) * u2 * vmq,
        c2q * (q - 1.0) * vq2,
    )
    phi_u_over_u = np.where(r1, p * up2 + 2.0 * delta * v2q, c2p * up2)
    phi_v_over_v = np.where(r1, q * vq2 + delta * (2.0 - q) * u2 * vmq, c2q * vq2)
    return phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v


def bellman_tables(p, q, delta, u, v):
    """Region mask plus phi and its radial derivatives, vectorized.

    Returns (r1, phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv, phi_u_over_u,
    phi_v_over_v) as flat arrays; r1 is a boolean region-1 mask.  The last
    five come from ``second_order``.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    up = u ** p
    vq = v ** q
    r1 = up <= vq
    vc = np.maximum(v, MOD_FLOOR)

    up1 = u ** (p - 1.0)
    vq1 = v ** (q - 1.0)
    v2q = v ** (2.0 - q)
    v1q = vc ** (1.0 - q)
    u2 = u * u

    c2p = p + 2.0 * delta
    c2q = q + delta * (2.0 - q)

    phi = up + vq + delta * np.where(r1, u2 * v2q, (2.0 / p) * up + (2.0 / q - 1.0) * vq)
    phi_u = np.where(r1, p * up1 + 2.0 * delta * u * v2q, c2p * up1)
    phi_v = np.where(r1, q * vq1 + delta * (2.0 - q) * u2 * v1q, c2q * vq1)
    return (r1, phi, phi_u, phi_v) + second_order(p, q, delta, u, v, r1)


def prop_i_slack(p, q, delta, u, v):
    """Slack of the range bound (1+delta)(u^p+v^q) - phi, in a form that is
    a sum/product of nonnegative terms so the result is >= 0 in floating
    point as well."""
    shape = np.shape(u)
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    up = u ** p
    vq = v ** q
    r1 = up <= vq
    vq1 = v ** (q - 1.0)
    v2q = v ** (2.0 - q)
    s1 = delta * (up + v2q * (vq1 - u) * (vq1 + u))
    s2 = delta * ((1.0 - 2.0 / p) * up + (2.0 - 2.0 / q) * vq)
    return np.where(r1, s1, s2).reshape(shape)


def _radial_coeffs(phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the -d2Q form from
    the five second-order tables, in ``second_order``'s order."""
    return (0.5 * phi_uu, 0.5 * phi_u_over_u, 0.5 * phi_vv, 0.5 * phi_v_over_v, 0.5 * phi_uv)


def form_coeffs_and_drift(params: BellmanParams, u, v):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the -d2Q form and the
    drift base Q(xi) - dQ(xi) xi = (u phi_u + v phi_v - phi)/2, from one
    ``bellman_tables`` call.  Moduli are clamped to ZERO_MODULUS."""
    u = np.maximum(np.asarray(u, dtype=np.float64).ravel(), ZERO_MODULUS)
    v = np.maximum(np.asarray(v, dtype=np.float64).ravel(), ZERO_MODULUS)
    t = bellman_tables(params.p, params.q, params.delta, u, v)
    return _radial_coeffs(*t[4:]), 0.5 * (u * t[2] + v * t[3] - t[1])


def bilinear_forms(crr, ctt, drr, dtt, m, ph1, ph2, a1, a2, b1, b2):
    """<-d2Q (a1,a2), (b1,b2)> elementwise over points."""
    xa1 = np.real(np.conj(ph1) * a1)
    xa2 = np.real(np.conj(ph2) * a2)
    xb1 = np.real(np.conj(ph1) * b1)
    xb2 = np.real(np.conj(ph2) * b2)
    dot1 = np.real(a1 * np.conj(b1))
    dot2 = np.real(a2 * np.conj(b2))
    return (
        ctt * dot1
        + (crr - ctt) * xa1 * xb1
        + m * (xa1 * xb2 + xa2 * xb1)
        + dtt * dot2
        + (drr - dtt) * xa2 * xb2
    )


def form_sum_over_axes(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2):
    """sum_j <-d2Q (th1[:,j], th2[:,j]), same> over the spatial index j.

    th1, th2 have shape (npoints, dim); the return value has shape (npoints,).
    """
    x1 = np.real(np.conj(ph1)[:, None] * th1)
    x2 = np.real(np.conj(ph2)[:, None] * th2)
    a1 = th1.real * th1.real + th1.imag * th1.imag
    a2 = th2.real * th2.real + th2.imag * th2.imag
    terms = (
        ctt[:, None] * a1
        + (crr - ctt)[:, None] * x1 * x1
        + 2.0 * m[:, None] * x1 * x2
        + dtt[:, None] * a2
        + (drr - dtt)[:, None] * x2 * x2
    )
    return terms.sum(axis=1)


def phi_values(params: BellmanParams, u, v) -> np.ndarray:
    """Vectorized phi over arrays of nonnegative moduli."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise DomainError("moduli must be nonnegative")
    shape = u.shape
    t = bellman_tables(params.p, params.q, params.delta, u.ravel(), v.ravel())
    return np.asarray(t[1]).reshape(shape)


def q_values(params: BellmanParams, zeta, eta) -> np.ndarray:
    return -0.5 * phi_values(params, np.abs(zeta), np.abs(eta))


def _form_coeffs(params: BellmanParams, u, v):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the -d2Q form from the
    second-order tables alone (``form_coeffs_and_drift`` also evaluates phi
    and its first derivatives)."""
    return _radial_coeffs(*second_order(params.p, params.q, params.delta, u, v))


def _phases(zeta, eta):
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128)).ravel()
    eta = np.atleast_1d(np.asarray(eta, dtype=np.complex128)).ravel()
    u = np.abs(zeta)
    v = np.abs(eta)
    ph1 = zeta / np.maximum(u, ZERO_MODULUS)
    ph2 = eta / np.maximum(v, ZERO_MODULUS)
    return u, v, ph1, ph2


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per axis of the mollifier quadrature (176 of the
# 6^4 tensor nodes fall inside the unit ball).
MOLLIFIER_ORDER = 6


class Mollifier:
    """Radial bump c * exp(-1/(1-|x|^2)) on the unit ball of R^4, sampled on
    a tensor-product Gauss-Legendre grid and normalized so the discrete
    weights sum to exactly one.

    ``order`` is the node count per axis; nodes falling outside the unit
    ball carry zero weight and are dropped.
    """

    def __init__(self, order: int = MOLLIFIER_ORDER):
        if order < 2:
            raise DomainError("mollifier quadrature order must be >= 2")
        self.order = int(order)
        x, w = np.polynomial.legendre.leggauss(self.order)
        nodes = np.stack(np.meshgrid(x, x, x, x, indexing="ij"), axis=-1).reshape(-1, 4)
        weights = (w[:, None, None, None] * w[None, :, None, None]
                   * w[None, None, :, None] * w[None, None, None, :]).ravel()
        r2 = np.sum(nodes * nodes, axis=1)
        inside = r2 < 1.0
        bump = np.zeros_like(r2)
        bump[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        weights = weights * bump
        keep = weights > 0.0
        self.nodes = nodes[keep]
        self.weights = weights[keep] / weights[keep].sum()


@functools.cache
def _mollifier() -> Mollifier:
    """The ``MOLLIFIER_ORDER`` rule, built on first use."""
    return Mollifier()


def cap_mollify_scale(u, v, eps):
    """Mollification scale eps capped at 0.45 * min(u, v), so the
    quadrature ball around a point with moduli (u, v) stays clear of the
    zero rays, where the almost-everywhere Hessian is not integrable by the
    quadrature."""
    return np.minimum(eps, 0.45 * np.minimum(u, v))


# Nodes per block of ``mollified_neg_hess``: one block's quadrature
# temporaries are a few (block * quadrature points) arrays, whatever the
# node count.
_MOLLIFY_BLOCK = 128

# Positions of the 10 independent entries of a symmetric 4x4 -d2Q: the
# three of each diagonal 2x2 block, then the off-diagonal block.
_SYM_ROWS = np.array([0, 0, 1, 2, 2, 3, 0, 0, 1, 1])
_SYM_COLS = np.array([0, 1, 1, 2, 3, 3, 2, 3, 2, 3])


def mollified_neg_hess(params: BellmanParams, zeta, eta, eps) -> np.ndarray:
    """Mollified -d2Q at k points as a (k, 4, 4) stack, in the coordinates
    (Re zeta, Im zeta, Re eta, Im eta).

    Point i is smoothed at scale eps[i] (eps may also be one scalar),
    capped by ``cap_mollify_scale``, with the ``MOLLIFIER_ORDER`` rule.
    Both moduli must be positive (SingularityError naming the zero ray
    otherwise): the cap would shrink the scale to zero there.
    Nodes are walked in blocks of ``_MOLLIFY_BLOCK``.  Per block only the
    five radial coefficients and the phases are evaluated at the quadrature
    points, and the weighted average of the 10 independent matrix entries
    is one (10, block, nq) @ weights product, so no per-quadrature-point
    4x4 matrix is ever formed.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128)).ravel()
    eta = np.atleast_1d(np.asarray(eta, dtype=np.complex128)).ravel()
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), zeta.shape)
    if not np.all(eps > 0.0):
        raise DomainError("mollification scales must be positive")
    u0 = np.abs(zeta)
    v0 = np.abs(eta)
    bad = np.flatnonzero(np.minimum(u0, v0) <= ZERO_MODULUS)
    if bad.size:
        i = bad[0]
        raise SingularityError("zeta-zero-ray" if u0[i] <= v0[i] else "eta-zero-ray",
                               f"mollified -d2Q needs both moduli positive, "
                               f"got ({u0[i]}, {v0[i]}) at point {i}")
    eps = cap_mollify_scale(u0, v0, eps)
    mol = _mollifier()
    y1 = mol.nodes[:, 0] + 1j * mol.nodes[:, 1]
    y2 = mol.nodes[:, 2] + 1j * mol.nodes[:, 3]
    nq = y1.size
    out = np.empty((zeta.size, 4, 4))
    for lo in range(0, zeta.size, _MOLLIFY_BLOCK):
        blk = slice(lo, lo + _MOLLIFY_BLOCK)
        zs = (zeta[blk, None] - eps[blk, None] * y1).ravel()
        es = (eta[blk, None] - eps[blk, None] * y2).ravel()
        u = np.maximum(np.abs(zs), ZERO_MODULUS)
        v = np.maximum(np.abs(es), ZERO_MODULUS)
        c1, s1 = zs.real / u, zs.imag / u
        c2, s2 = es.real / v, es.imag / v
        crr, ctt, drr, dtt, m = _form_coeffs(params, u, v)
        a = crr - ctt
        b = drr - dtt
        ent = np.stack([
            ctt + a * (c1 * c1), a * (c1 * s1), ctt + a * (s1 * s1),
            dtt + b * (c2 * c2), b * (c2 * s2), dtt + b * (s2 * s2),
            m * (c1 * c2), m * (c1 * s2), m * (s1 * c2), m * (s1 * s2),
        ])
        avg = (ent.reshape(10, -1, nq) @ mol.weights).T     # (block, 10)
        out[blk, _SYM_ROWS, _SYM_COLS] = avg
        out[blk, _SYM_COLS, _SYM_ROWS] = avg
    return out


# ---------------------------------------------------------------------------
# tau certification
# ---------------------------------------------------------------------------

# Kronecker (R3) low-discrepancy sequence on [0,1)^3; the generator is the
# plastic constant's inverse powers.
_R3_ALPHA = np.array([0.7548776662466927, 0.5698402909980532, 0.4301597090019468])


def unit_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sweep of n low-discrepancy unit directions in C^2, with
    the four coordinate directions prepended.  The certificate itself is
    exact; tests use this sweep as an oracle that bounds its margin from
    above.

    Returns two complex arrays (s1, s2) of length n + 4.
    """
    if n < 0:
        raise DomainError("direction count must be nonnegative")
    i = np.arange(1, n + 1)[:, None]
    pts = np.mod(0.5 + i * _R3_ALPHA[None, :], 1.0)
    s = pts[:, 0]
    th1 = 2.0 * np.pi * pts[:, 1]
    th2 = 2.0 * np.pi * pts[:, 2]
    s1 = np.sqrt(1.0 - s) * np.exp(1j * th1)
    s2 = np.sqrt(s) * np.exp(1j * th2)
    coord1 = np.array([1.0, 1.0j, 0.0, 0.0], dtype=np.complex128)
    coord2 = np.array([0.0, 0.0, 1.0, 1.0j], dtype=np.complex128)
    return np.concatenate([coord1, s1]), np.concatenate([coord2, s2])


def _quadratic_window(a, b, c):
    """Roots lo <= hi of -a t^2 + b t - c (a, b, c > 0) as 2c/s and s/(2a)
    with s = b + sqrt(b^2 - 4ac), neither of which cancels.  A negative
    discriminant is clamped to 0, leaving lo = 2c/b > b/(2a) = hi."""
    s = b + np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    return 2.0 * c / s, s / (2.0 * a)


def tau_interval(params: BellmanParams, u, v):
    """Arrays (tau_lo, tau_hi) of the weights tau for which
    -d2Q >= delta*diag(tau, tau, 1/tau, 1/tau) and the drift bound hold;
    tau_lo > tau_hi means that no tau does.

    ctt/delta and crr/delta bound tau from above, delta/dtt and delta/drr
    from below, and tau lies between the roots of the radial determinant
    -delta*drr*tau^2 + (crr*drr - m^2 + delta^2)*tau - delta*crr and of the
    drift -delta*u^2*tau^2 + D*tau - delta*v^2.  The roots are taken at the
    point rescaled by homogeneity to max(u^p, v^q) = 1, in logs so that
    nothing underflows, and tau scales back by kappa = S^(1-2/p) with
    S = max(u^p, v^q).  Moduli are clamped to ZERO_MODULUS.
    """
    p, q, delta = params.p, params.q, params.delta
    lu = np.log(np.maximum(np.asarray(u, dtype=np.float64).ravel(), ZERO_MODULUS))
    lv = np.log(np.maximum(np.asarray(v, dtype=np.float64).ravel(), ZERO_MODULUS))
    ls = np.maximum(p * lu, q * lv)
    u, v = np.exp(lu - ls / p), np.exp(lv - ls / q)
    (crr, ctt, drr, dtt, m), drift = form_coeffs_and_drift(params, u, v)
    det_lo, det_hi = _quadratic_window(delta * drr, crr * drr - m * m + delta * delta,
                                       delta * crr)
    # the drift's upper root divides by u^2; flooring u keeps it finite and
    # can only narrow the window
    uc = np.maximum(u, MOD_FLOOR)
    drift_lo, drift_hi = _quadratic_window(delta * uc * uc, drift, delta * v * v)
    lo = np.maximum.reduce([delta / dtt, delta / drr, det_lo, drift_lo])
    hi = np.minimum.reduce([ctt / delta, crr / delta, det_hi, drift_hi])
    kappa = np.exp((1.0 - 2.0 / p) * ls)
    return kappa * lo, kappa * hi


def _margin_parts(coeffs, delta: float, tau) -> np.ndarray:
    """The eigenvalues of -d2Q - delta*diag(tau, tau, 1/tau, 1/tau) that can
    be the smallest, from the radial coefficients (crr, ctt, drr, dtt, m).

    In phase-aligned coordinates (the radial and tangential parts of s1 and
    s2) the form splits into the tangential scalars ctt - delta*tau and
    dtt - delta/tau and the radial block [[a, m], [m, b]] with
    a = crr - delta*tau, b = drr - delta/tau.  Returns a (3, n) array: the
    block's smallest eigenvalue, then the two scalars.  The block eigenvalue
    (a+b)/2 - hypot((a-b)/2, m) is evaluated as
    min(a, b) - m^2/(hypot((a-b)/2, m) + |a-b|/2), which does not cancel when
    a and b differ by many orders of magnitude (near the v = 0 ray).
    """
    crr, ctt, drr, dtt, m = coeffs
    a = crr - delta * tau
    b = drr - delta / tau
    half = 0.5 * np.abs(a - b)
    r = np.hypot(half, m)
    gap = np.divide(m * m, r + half, out=np.zeros_like(r), where=r > 0.0)
    return np.stack([np.minimum(a, b) - gap, ctt - delta * tau, dtt - delta / tau])


def _worst_direction(coeffs, delta: float, tau, parts, ph1, ph2):
    """Unit eigenvectors (s1, s2) of the smallest entry of ``parts``."""
    crr, _, drr, _, m = coeffs
    # the block's top eigenvector is (cos theta, sin theta), so the bottom
    # one is (-sin theta, cos theta)
    theta = 0.5 * np.arctan2(2.0 * m, (crr - delta * tau) - (drr - delta / tau))
    k = parts.argmin(axis=0)
    s1 = np.select([k == 0, k == 1], [-np.sin(theta) * ph1, 1j * ph1], 0.0)
    s2 = np.select([k == 0, k == 2], [np.cos(theta) * ph2, 1j * ph2], 0.0)
    return s1, s2


def certify_batch(params: BellmanParams, zetas, etas) -> dict:
    """Certify the range bound, the convexity bound and the drift bound at
    arrays of points.

    Per point, tau is the geometric midpoint of ``tau_interval``.  The
    Hessian margin is the smallest eigenvalue of
    -d2Q - delta*diag(tau, tau, 1/tau, 1/tau), i.e. the minimum of
    <-d2Q s, s> - delta(tau|s1|^2 + |s2|^2/tau) over all unit s in C^2; the
    drift margin is Q - dQ(xi) xi - delta(tau|zeta|^2 + |eta|^2/tau).  Both
    are >= 0 exactly when tau lies in the interval, so an empty interval
    shows as a negative margin; margins are reported, not raised.

    Points are evaluated with the exact branch formulas; the caller is
    responsible for excluding interface margins (see
    ``sample_certification_points``).  A vanishing modulus is clamped to
    ZERO_MODULUS and given phase 1: its block of -d2Q becomes isotropic in
    the radial limit, and the blowup of the eta block on the v = 0 ray only
    strengthens the convexity inequality.  At the origin, where both moduli
    are at most ZERO_MODULUS, Q and its derivatives vanish, and the
    certificate is the trivial one: tau = 1 and both margins 0.

    Returns a dict of flat arrays; ``worst_direction`` has shape (n, 2) and
    holds the unit eigenvectors (s1, s2) attaining ``margin_hessian``.
    """
    u, v, ph1, ph2 = _phases(zetas, etas)
    slack_i = prop_i_slack(params.p, params.q, params.delta, u, v)
    ph1 = np.where(u > ZERO_MODULUS, ph1, 1.0)
    ph2 = np.where(v > ZERO_MODULUS, ph2, 1.0)
    coeffs, drift = form_coeffs_and_drift(params, u, v)
    delta = params.delta
    tau_lo, tau_hi = tau_interval(params, u, v)
    tau = np.sqrt(tau_lo) * np.sqrt(tau_hi)
    parts = _margin_parts(coeffs, delta, tau)
    s1, s2 = _worst_direction(coeffs, delta, tau, parts, ph1, ph2)
    mdir = parts.min(axis=0)
    mdrift = drift - delta * (tau * u * u + v * v / tau)
    origin = (u <= ZERO_MODULUS) & (v <= ZERO_MODULUS)
    tau = np.where(origin, 1.0, tau)
    mdir = np.where(origin, 0.0, mdir)
    mdrift = np.where(origin, 0.0, mdrift)
    valid = (slack_i >= 0.0) & (mdir >= -1e-10) & (mdrift >= -1e-10)
    return {
        "prop_i_slack": slack_i,
        "tau": tau,
        "margin_hessian": mdir,
        "margin_drift": mdrift,
        "worst_direction": np.stack([s1, s2], axis=1),
        "valid": valid,
    }


def sample_certification_points(params: BellmanParams, n: int,
                                rng: np.random.Generator,
                                modulus_range: tuple[float, float] = (1e-3, 10.0),
                                margin_rel: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Seeded sample of n points with log-uniform moduli in modulus_range
    and uniform phases, resampled until clear of the interface margin."""
    lo, hi = modulus_range
    llo, lhi = math.log(lo), math.log(hi)
    zetas = np.empty(n, dtype=np.complex128)
    etas = np.empty(n, dtype=np.complex128)
    need = np.ones(n, dtype=bool)
    while need.any():
        k = int(need.sum())
        u = np.exp(rng.uniform(llo, lhi, size=k))
        v = np.exp(rng.uniform(llo, lhi, size=k))
        a = rng.uniform(0.0, 2.0 * np.pi, size=k)
        b = rng.uniform(0.0, 2.0 * np.pi, size=k)
        t1 = u ** params.p
        t2 = v ** params.q
        good = np.abs(t1 - t2) > margin_rel * np.maximum(np.maximum(t1, t2), 1.0)
        idx = np.flatnonzero(need)[:k][good]
        zetas[idx] = u[good] * np.exp(1j * a[good])
        etas[idx] = v[good] * np.exp(1j * b[good])
        need[idx] = False
    return zetas, etas
