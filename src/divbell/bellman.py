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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError

# Moduli below this are treated as exactly zero for certification purposes.
ZERO_MODULUS = 1e-300

# Floor applied to moduli before raising them to negative powers.
MOD_FLOOR = 1e-150


@dataclass(frozen=True)
class BellmanParams:
    """Exponent pair (p, q) and the convexity weight delta = q(q-1)/8.

    Construct with the single exponent: ``BellmanParams(3.0)``; q and delta
    are derived from it.
    """

    p: float
    q: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or p < 2.0:
            raise DomainError(f"exponent p must be finite and >= 2, got {p}")
        q = p / (p - 1.0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        # q - 1 = 1/(p - 1); q * (q - 1) would cancel as q nears 1, and be 0 from p ~ 1e16
        object.__setattr__(self, "delta", q / (8.0 * (p - 1.0)))


# ---------------------------------------------------------------------------
# vectorized derivative tables and forms of -d2Q
# ---------------------------------------------------------------------------

def _v_powers(q, v):
    """(w, v2q, v1q): w = vc^(2-q) on the clamped modulus
    vc = max(v, MOD_FLOOR), the unclamped v^(2-q), and vc^(1-q) = w/vc.
    w is the one power of vc; every negative power of v divides it."""
    vc = np.maximum(v, MOD_FLOOR)
    w = vc ** (2.0 - q)       # exponent in [0, 1)
    low = v < MOD_FLOOR
    v2q = np.where(low, v ** (2.0 - q), w) if low.any() else w
    return w, v2q, w / vc


def second_order(p, q, delta, u, v, r1=None, vpow=None):
    """Second-order radial derivatives of phi, vectorized.

    Returns (phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v) in the
    shape of u and v.  r1 is the region-1 mask and vpow the powers of v
    from ``_v_powers``; each is computed when not given.

    Both branch formulas are evaluated at every point and summed with the
    weights r (1 on region 1, else 0) and 1 - r; a select is several times
    slower on the interleaved masks of the mollifier quadrature.  The
    region-1 v terms use s = u vc^(1-q) and u^2 vc^(-q) = s^2 vc^(q-2), so
    they are (q -/+ c s^2) vc^(q-2) with c = delta(2-q), and phi_uv is
    2c s.  The weight multiplies u first, so no region-1 overflow reaches
    region 2.  Underflow loses nothing the select formulas kept: s is never
    smaller than phi_uv, and s^2 only ever adds to q.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if r1 is None:
        r1 = u ** p <= v ** q
    w, v2q, v1q = _v_powers(q, v) if vpow is None else vpow
    r = r1.astype(np.float64)
    r2 = 1.0 - r
    c = delta * (2.0 - q)

    tu = (p + (2.0 * delta) * r2) * (u ** (p - 2.0))     # p or p + 2 delta
    au = ((2.0 * delta) * v2q) * r
    rs = (r * u) * v1q
    cs2 = c * (rs * rs)
    kv = q + c * r2                                      # q or q + c
    vq2 = 1.0 / w
    phi_uu = (p - 1.0) * tu + au
    phi_uv = (2.0 * c) * rs
    phi_vv = (q - 1.0) * ((kv - cs2) * vq2)
    phi_u_over_u = tu + au
    phi_v_over_v = (kv + cs2) * vq2
    return phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v


def _phi(p, q, delta, up, vq, u2, v2q, r1):
    """phi from the powers u^p, v^q, u^2 and v^(2-q) and the region-1 mask."""
    return up + vq + delta * np.where(r1, u2 * v2q, (2.0 / p) * up + (2.0 / q - 1.0) * vq)


def bellman_tables(p, q, delta, u, v):
    """Region mask plus phi and its radial derivatives, vectorized.

    Returns (r1, phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv, phi_u_over_u,
    phi_v_over_v) in the shape of u and v; r1 is a boolean region-1 mask.
    The last five come from ``second_order``.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    up = u ** p
    vq = v ** q
    r1 = up <= vq
    vpow = _v_powers(q, v)
    _, v2q, v1q = vpow

    up1 = u ** (p - 1.0)
    vq1 = v ** (q - 1.0)
    u2 = u * u

    c2p = p + 2.0 * delta
    c2q = q + delta * (2.0 - q)

    phi = _phi(p, q, delta, up, vq, u2, v2q, r1)
    phi_u = np.where(r1, p * up1 + 2.0 * delta * u * v2q, c2p * up1)
    phi_v = np.where(r1, q * vq1 + delta * (2.0 - q) * u2 * v1q, c2q * vq1)
    return (r1, phi, phi_u, phi_v) + second_order(p, q, delta, u, v, r1, vpow)


def prop_i_slack(p, q, delta, u, v):
    """Slack of the range bound (1+delta)(u^p+v^q) - phi, in a form that is
    a sum/product of nonnegative terms so the result is >= 0 in floating
    point as well."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    up = u ** p
    vq = v ** q
    r1 = up <= vq
    vq1 = v ** (q - 1.0)
    v2q = v ** (2.0 - q)
    s1 = delta * (up + v2q * (vq1 - u) * (vq1 + u))
    s2 = delta * ((1.0 - 2.0 / p) * up + (2.0 - 2.0 / q) * vq)
    return np.where(r1, s1, s2)


def _radial_coeffs(phi_uu, phi_uv, phi_vv, phi_u_over_u, phi_v_over_v):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the -d2Q form from
    the five second-order tables, in ``second_order``'s order."""
    return (0.5 * phi_uu, 0.5 * phi_u_over_u, 0.5 * phi_vv, 0.5 * phi_v_over_v, 0.5 * phi_uv)


def form_coeffs_and_drift(params: BellmanParams, u, v):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the -d2Q form and the
    drift base Q(xi) - dQ(xi) xi = (u phi_u + v phi_v - phi)/2, from one
    ``bellman_tables`` call.  Moduli are clamped to ZERO_MODULUS."""
    u = np.maximum(np.asarray(u, dtype=np.float64), ZERO_MODULUS)
    v = np.maximum(np.asarray(v, dtype=np.float64), ZERO_MODULUS)
    t = bellman_tables(params.p, params.q, params.delta, u, v)
    return _radial_coeffs(*t[4:]), 0.5 * (u * t[2] + v * t[3] - t[1])


def _part_dot(x, y):
    """sum_c x[c] y[c] over the leading parts axis."""
    return sum((x[c] * y[c] for c in range(1, len(x))), x[0] * y[0])


def bilinear_forms(crr, ctt, drr, dtt, m, ph1, ph2, a1, a2, b1, b2):
    """<-d2Q (a1,a2), (b1,b2)> elementwise over points.  The phases and the
    vectors are real (P, ...) stacks of the parts of complex numbers, the
    real part and, for P = 2, the imaginary part, so xa1 = sum_c ph1_c a1_c
    = Re(conj(ph1) a1) and dot1 = sum_c a1_c b1_c = Re(a1 conj(b1)).  The
    cross term is grouped so that for a = b it rounds as 2 (m x1) x2."""
    xa1, xa2, xb1, xb2, dot1, dot2 = (_part_dot(x, y) for x, y in (
        (ph1, a1), (ph2, a2), (ph1, b1), (ph2, b2), (a1, b1), (a2, b2)))
    return (
        ctt * dot1
        + (crr - ctt) * xa1 * xb1
        + (m * xa1 * xb2 + m * xb1 * xa2)
        + dtt * dot2
        + (drr - dtt) * xa2 * xb2
    )


def phi_values(params: BellmanParams, u, v) -> np.ndarray:
    """Vectorized phi over arrays of nonnegative moduli."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise DomainError("moduli must be nonnegative")
    p, q = params.p, params.q
    up = u ** p
    vq = v ** q
    return _phi(p, q, params.delta, up, vq, u * u, v ** (2.0 - q), up <= vq)


def q_values(params: BellmanParams, zeta, eta) -> np.ndarray:
    return -0.5 * phi_values(params, np.abs(zeta), np.abs(eta))


def _form_coeffs(params: BellmanParams, u, v):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the -d2Q form from the
    second-order tables alone (``form_coeffs_and_drift`` also evaluates phi
    and its first derivatives)."""
    return _radial_coeffs(*second_order(params.p, params.q, params.delta, u, v))


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
def _folded_rule() -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the ``MOLLIFIER_ORDER`` rule folded by the
    reflections y1 -> -y1 and y3 -> -y3, built on first use: the nodes
    (y0, |y1|, y2, |y3|) with the summed weights of the nodes that fold onto
    them, 44 of 176 at order 6.  Both rules average an even function alike."""
    mol = Mollifier()
    nodes = mol.nodes.copy()
    nodes[:, 1::2] = np.abs(nodes[:, 1::2])
    folded, inverse = np.unique(nodes, axis=0, return_inverse=True)
    return folded, np.bincount(inverse.ravel(), weights=mol.weights)


def cap_mollify_scale(u, v, eps):
    """Mollification scale eps capped at 0.45 * min(u, v), so the
    quadrature ball around a point with moduli (u, v) stays clear of the
    zero rays, where the almost-everywhere Hessian is not integrable by the
    quadrature."""
    return np.minimum(eps, 0.45 * np.minimum(u, v))


# Nodes per block of ``mollified_form_coeffs``, whose temporaries are a few
# (block * 44) arrays.  In the 15 calls (11,211 nodes) of `sweep --p 4
# --seed 1`, one BLAS thread, 2 vCPUs, median of 5 runs: blocks of 96-128
# took 0.060 s, 64 0.066 s, 32 0.080 s, 256 0.076 s, 512 0.095 s.
_MOLLIFY_BLOCK = 128


def mollified_form_coeffs(params: BellmanParams, u, v, eps):
    """Radial coefficients (crr, ctt, drr, dtt, m) of the mollified -d2Q at
    k points with moduli u and v, as five (k,) arrays.

    Q depends on the moduli alone and the mollifier is radial, so in each
    point's phase-aligned frame, where it is (u, 0, v, 0), the mollified
    -d2Q has the exact one's radial form: crr and ctt average the diagonal
    entries (crr - ctt) x0^2 / |x_zeta|^2 + ctt and the same with x1^2 over
    the quadrature points x, drr and dtt their eta analogues, and m averages
    m x0 x2 / (|x_zeta| |x_eta|).  These are even in y1 and y3, and the
    other entries odd, so they are averaged on ``_folded_rule``.

    Point i is smoothed at scale eps[i] (or one scalar eps), capped by
    ``cap_mollify_scale``; both moduli must be positive (SingularityError
    naming the zero ray otherwise), or the cap would vanish.  Per block of
    ``_MOLLIFY_BLOCK`` nodes the quadrature points are in units of their
    node's moduli, so their squared moduli lie in [0.55^2, 1.45^2].
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64)).ravel()
    v = np.atleast_1d(np.asarray(v, dtype=np.float64)).ravel()
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), u.shape)
    if not np.all(eps > 0.0):
        raise DomainError("mollification scales must be positive")
    bad = np.flatnonzero(np.minimum(u, v) <= ZERO_MODULUS)
    if bad.size:
        i = bad[0]
        raise SingularityError("zeta-zero-ray" if u[i] <= v[i] else "eta-zero-ray",
                               f"mollified -d2Q needs both moduli positive, "
                               f"got ({u[i]}, {v[i]}) at point {i}")
    eps = cap_mollify_scale(u, v, eps)
    y, w = _folded_rule()
    y_re, y_im = (y[:, c::2].T[:, None] for c in (0, 1))        # (2, 1, nq)
    # rows crr, drr, ctt, dtt, m: the entries (0, 0), (2, 2), (1, 1), (3, 3)
    # and (0, 2) at each quadrature point, averaged by one product with w
    out = np.empty((5, u.size))
    ent_buf = np.empty((5, min(u.size, _MOLLIFY_BLOCK), w.size))
    for lo in range(0, u.size, _MOLLIFY_BLOCK):
        blk = slice(lo, lo + _MOLLIFY_BLOCK)
        ent = ent_buf[:, :min(_MOLLIFY_BLOCK, u.size - lo)]
        mods = np.stack([u[blk], v[blk]])[:, :, None]            # (2, block, 1)
        scale = eps[blk, None] / mods
        # quadrature point (zeta, eta) = (u, v) - eps (y0 + i y1, y2 + i y3)
        # over the moduli: (x_re, x_im)[0] for zeta, [1] for eta
        x_re = 1.0 - scale * y_re                                 # (2, block, nq)
        x_im = scale * y_im
        sq_re, sq_im = x_re * x_re, x_im * x_im
        mod2 = sq_re + sq_im
        root = np.sqrt(mod2)
        crr, ctt, drr, dtt, m = _form_coeffs(
            params, *np.maximum(root * mods, ZERO_MODULUS))
        g = np.stack([crr - ctt, drr - dtt])
        g /= mod2
        np.multiply(sq_re, g, out=ent[0:2])
        np.multiply(sq_im, g, out=ent[2:4])
        ent[0:4:2] += ctt
        ent[1:4:2] += dtt
        np.divide(m * x_re[0] * x_re[1], root[0] * root[1], out=ent[4])
        np.matmul(ent, w, out=out[:, blk])
    return out[0], out[2], out[1], out[3], out[4]


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
    ZERO_MODULUS: its block of -d2Q becomes isotropic in the radial limit,
    and the blowup of the eta block on the v = 0 ray only strengthens the
    convexity inequality.  At the origin, where both moduli are at most
    ZERO_MODULUS, Q and its derivatives vanish, and the certificate is the
    trivial one: tau = 1 and both margins 0.

    Returns a dict of flat arrays.
    """
    u, v = (np.abs(np.asarray(x, dtype=np.complex128)).ravel() for x in (zetas, etas))
    slack_i = prop_i_slack(params.p, params.q, params.delta, u, v)
    coeffs, drift = form_coeffs_and_drift(params, u, v)
    delta = params.delta
    tau_lo, tau_hi = tau_interval(params, u, v)
    tau = np.sqrt(tau_lo) * np.sqrt(tau_hi)
    mdir = _margin_parts(coeffs, delta, tau).min(axis=0)
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
        "valid": valid,
    }


# Certification points: moduli log-uniform in SAMPLE_MODULI, and |u^p - v^q|
# above SAMPLE_INTERFACE_MARGIN relative to max(u^p, v^q, 1).
SAMPLE_MODULI = (1e-3, 10.0)
SAMPLE_INTERFACE_MARGIN = 1e-6


def sample_certification_points(params: BellmanParams, n: int,
                                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded sample of n points with log-uniform moduli in SAMPLE_MODULI
    and uniform phases, resampled until clear of the interface margin."""
    llo, lhi = (math.log(m) for m in SAMPLE_MODULI)
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
        good = np.abs(t1 - t2) > SAMPLE_INTERFACE_MARGIN * np.maximum(np.maximum(t1, t2), 1.0)
        idx = np.flatnonzero(need)[:k][good]
        zetas[idx] = u[good] * np.exp(1j * a[good])
        etas[idx] = v[good] * np.exp(1j * b[good])
        need[idx] = False
    return zetas, etas
