"""The two-variable Bellman function, its differential forms, mollified
variants, and numerical convexity certificates.

The central objects are

    phi(u, v) = u^p + v^q + delta * { u^2 v^(2-q)              if u^p <= v^q
                                    { (2/p) u^p + (2/q-1) v^q  if u^p >= v^q

for p >= 2, q = p/(p-1), delta = q(q-1)/8, and

    Q(zeta, eta) = -phi(|zeta|, |eta|) / 2

on C x C.  phi is C^1 everywhere and C^2 away from the interface
``u^p = v^q`` and the ray ``v = 0``; second-order quantities near those sets
are handled by mollification.

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

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, SingularityError

# Relative threshold on |u^p - v^q| below which a point is classified as
# lying on the interface.
INTERFACE_REL_THRESHOLD = 1e-9

# Moduli below this are treated as exactly zero for certification purposes.
ZERO_MODULUS = 1e-300

# Floor applied to moduli before raising them to negative powers.
MOD_FLOOR = 1e-150


class RegionLabel(enum.Enum):
    REGION1 = "region1"
    REGION2 = "region2"
    INTERFACE = "interface"


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


class ComplexPair(NamedTuple):
    """A point xi = (zeta, eta) in C^2."""

    zeta: complex
    eta: complex


class WirtingerGradient(NamedTuple):
    """The four first-order Wirtinger derivatives of Q."""

    d_zeta: complex
    d_zeta_bar: complex
    d_eta: complex
    d_eta_bar: complex


@dataclass(frozen=True)
class TauCertificate:
    """A numerically found weight tau > 0 witnessing the convexity and drift
    inequalities at one point, with the worst observed slacks."""

    tau: float
    margin_hessian: float
    margin_drift: float
    worst_direction: ComplexPair | None = None
    trivial: bool = False

    def valid(self, tol: float = 0.0) -> bool:
        return self.margin_hessian >= -tol and self.margin_drift >= -tol


@dataclass(frozen=True)
class BejazReport:
    """Joint report for the range bound (i), the convexity certificate (ii)
    and the drift bound (iii) at one point."""

    xi: ComplexPair
    prop_i_slack: float
    prop_ii: TauCertificate
    prop_iii_slack: float

    @property
    def prop_i_ok(self) -> bool:
        return self.prop_i_slack >= 0.0

    def valid(self, tol: float = 0.0) -> bool:
        return self.prop_i_ok and self.prop_ii.valid(tol)


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


# ---------------------------------------------------------------------------
# classification and scalar evaluation
# ---------------------------------------------------------------------------

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


def phi_values(params: BellmanParams, u, v) -> np.ndarray:
    """Vectorized phi over arrays of nonnegative moduli."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise DomainError("moduli must be nonnegative")
    shape = u.shape
    t = bellman_tables(params.p, params.q, params.delta, u.ravel(), v.ravel())
    return np.asarray(t[1]).reshape(shape)


def eval_Q(params: BellmanParams, xi: ComplexPair) -> float:
    """Q(zeta, eta) = -phi(|zeta|, |eta|)/2, always nonpositive."""
    return -0.5 * eval_phi(params, abs(complex(xi[0])), abs(complex(xi[1])))


def q_values(params: BellmanParams, zeta, eta) -> np.ndarray:
    return -0.5 * phi_values(params, np.abs(zeta), np.abs(eta))


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


def grad_Q(params: BellmanParams, xi: ComplexPair) -> WirtingerGradient:
    """First Wirtinger derivatives of Q via the radial chain rule.

    d_zeta Q = -(phi_u) conj(zeta) / (4 |zeta|), and analogously in eta;
    both moduli must be strictly positive.
    """
    zeta = complex(xi[0])
    eta = complex(xi[1])
    u = abs(zeta)
    v = abs(eta)
    if u == 0.0:
        raise SingularityError("zeta-zero-ray", "grad_Q undefined at |zeta| = 0")
    if v == 0.0:
        raise SingularityError("eta-zero-ray", "grad_Q undefined at |eta| = 0")
    du, dv = grad_phi(params, u, v)
    dz = -du * zeta.conjugate() / (4.0 * u)
    de = -dv * eta.conjugate() / (4.0 * v)
    return WirtingerGradient(dz, dz.conjugate(), de, de.conjugate())


def first_form(params: BellmanParams, xi: ComplexPair, sigma: ComplexPair) -> float:
    """dQ(xi) sigma, the real-valued first differential form."""
    g = grad_Q(params, xi)
    val = 2.0 * (g.d_zeta * complex(sigma[0])).real + 2.0 * (g.d_eta * complex(sigma[1])).real
    return val


# ---------------------------------------------------------------------------
# second-order forms
# ---------------------------------------------------------------------------

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


def second_form(params: BellmanParams, xi: ComplexPair, sigma: ComplexPair,
                varsigma: ComplexPair, *,
                interface_margin: float = INTERFACE_REL_THRESHOLD,
                modulus_floor: float = 1e-12) -> float:
    """<d2Q(xi) sigma, varsigma>: real, symmetric in (sigma, varsigma).

    Only defined strictly inside region 1 or 2: the point must sit farther
    than ``interface_margin`` (relative) from the interface and farther than
    ``modulus_floor`` from the zero rays, otherwise a SingularityError names
    the offending set.  Use the mollified variant near those sets.
    """
    zeta = complex(xi[0])
    eta = complex(xi[1])
    _guard_second_order(params, abs(zeta), abs(eta), interface_margin, modulus_floor)
    u, v, ph1, ph2 = _phases([zeta], [eta])
    crr, ctt, drr, dtt, m = _form_coeffs(params, u, v)
    val = bilinear_forms(
        crr, ctt, drr, dtt, m, ph1, ph2,
        np.array([complex(sigma[0])]), np.array([complex(sigma[1])]),
        np.array([complex(varsigma[0])]), np.array([complex(varsigma[1])]),
    )
    # kernels evaluate <-d2Q s, w>
    return -float(val[0])


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


def pair_to_real4(sigma: ComplexPair) -> np.ndarray:
    return np.array([complex(sigma[0]).real, complex(sigma[0]).imag,
                     complex(sigma[1]).real, complex(sigma[1]).imag])


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

class Mollifier:
    """Radial bump c * exp(-1/(1-|x|^2)) on the unit ball of R^4, sampled on
    a tensor-product Gauss-Legendre grid and normalized so the discrete
    weights sum to exactly one.

    ``order`` is the node count per axis; nodes falling outside the unit
    ball carry zero weight and are dropped.
    """

    def __init__(self, order: int = 8):
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

    def shifted_points(self, xi: ComplexPair, eps: float):
        """All quadrature points xi - eps*y as (zeta_array, eta_array)."""
        zeta = complex(xi[0])
        eta = complex(xi[1])
        y = self.nodes * eps
        zs = zeta - (y[:, 0] + 1j * y[:, 1])
        es = eta - (y[:, 2] + 1j * y[:, 3])
        return zs, es


_MOLLIFIER_CACHE: dict[int, Mollifier] = {}


def _mollifier(order: int) -> Mollifier:
    if order not in _MOLLIFIER_CACHE:
        _MOLLIFIER_CACHE[order] = Mollifier(order)
    return _MOLLIFIER_CACHE[order]


def mollified_Q(params: BellmanParams, eps: float, xi: ComplexPair,
                order: int = 8, check_tol: float | None = None) -> float:
    """Q smoothed by the mollifier at scale eps > 0.

    With ``check_tol`` set, the quadrature is repeated at order+4 nodes per
    axis and an AccuracyError is raised when the two results differ by more
    than the tolerance.
    """
    if not eps > 0.0:
        raise DomainError(f"mollification scale must be positive, got {eps}")
    val = _mollified_Q_once(params, eps, xi, order)
    if check_tol is not None:
        ref = _mollified_Q_once(params, eps, xi, order + 4)
        if abs(val - ref) > check_tol:
            raise AccuracyError(
                f"mollifier quadrature at order {order} is off by {abs(val - ref):.3e}"
                f" (> {check_tol:.3e})")
    return val


def _mollified_Q_once(params, eps, xi, order):
    mol = _mollifier(order)
    zs, es = mol.shifted_points(xi, eps)
    vals = q_values(params, zs, es)
    return float(np.dot(mol.weights, vals))


def mollified_grad_Q(params: BellmanParams, eps: float, xi: ComplexPair,
                     order: int = 8) -> WirtingerGradient:
    """Mollified first Wirtinger derivatives (the gradient is continuous, so
    this is the mollification of the almost-everywhere classical gradient)."""
    if not eps > 0.0:
        raise DomainError(f"mollification scale must be positive, got {eps}")
    mol = _mollifier(order)
    zs, es = mol.shifted_points(xi, eps)
    u = np.maximum(np.abs(zs), ZERO_MODULUS)
    v = np.maximum(np.abs(es), ZERO_MODULUS)
    t = bellman_tables(params.p, params.q, params.delta, u, v)
    phi_u, phi_v = t[2], t[3]
    dz = np.dot(mol.weights, -phi_u * np.conj(zs) / (4.0 * u))
    de = np.dot(mol.weights, -phi_v * np.conj(es) / (4.0 * v))
    return WirtingerGradient(dz, np.conj(dz), de, np.conj(de))


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


def mollified_neg_hess(params: BellmanParams, zeta, eta, eps, order: int = 8) -> np.ndarray:
    """Mollified -d2Q at k points as a (k, 4, 4) stack, in the coordinates
    (Re zeta, Im zeta, Re eta, Im eta).

    Point i is smoothed at scale eps[i] (eps may also be one scalar),
    capped by ``cap_mollify_scale``; both moduli must be positive.
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
    eps = cap_mollify_scale(np.abs(zeta), np.abs(eta), eps)
    mol = _mollifier(order)
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


def mollified_neg_hess_matrix(params: BellmanParams, eps: float, xi: ComplexPair,
                              order: int = 8) -> np.ndarray:
    """Mollified -d2Q as a 4x4 matrix, at scale eps capped by
    ``cap_mollify_scale``."""
    if not eps > 0.0:
        raise DomainError(f"mollification scale must be positive, got {eps}")
    u0 = abs(complex(xi[0]))
    v0 = abs(complex(xi[1]))
    if min(u0, v0) <= ZERO_MODULUS:
        raise SingularityError("zeta-zero-ray" if u0 <= v0 else "eta-zero-ray",
                               "mollified Hessian needs both moduli positive")
    return mollified_neg_hess(params, complex(xi[0]), complex(xi[1]), eps, order)[0]


# ---------------------------------------------------------------------------
# tau certification, and the direction sweep kept as a test oracle
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


def _near_interface(params: BellmanParams, u: float, v: float, margin_rel: float) -> bool:
    t1 = u ** params.p
    t2 = v ** params.q
    return abs(t1 - t2) <= margin_rel * max(t1, t2, 1.0)


# log-tau search bracket.  Its width log(1e12) ~ 27.6 shrinks by the golden
# ratio per iteration; 40 iterations push the relative tau width below 1e-6.
_TAU_LOG_LO = math.log(1e-6)
_TAU_LOG_HI = math.log(1e6)
_TAU_GOLDEN_ITERS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _maximize_over_tau(objective, n: int) -> np.ndarray:
    """Golden-section search over log tau in [1e-6, 1e6], one bracket per
    point.  ``objective`` maps an array of n weights to n values and must be
    unimodal in log tau; every objective used here is concave in tau."""
    lo = np.full(n, _TAU_LOG_LO)
    hi = np.full(n, _TAU_LOG_HI)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = objective(np.exp(x1))
    f2 = objective(np.exp(x2))
    for _ in range(_TAU_GOLDEN_ITERS):
        left = f1 >= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x1n = np.where(left, hi - _INVPHI * (hi - lo), x2)
        x2n = np.where(left, x1, lo + _INVPHI * (hi - lo))
        fresh = objective(np.exp(np.where(left, x1n, x2n)))
        f1, f2 = np.where(left, fresh, f2), np.where(left, f1, fresh)
        x1, x2 = x1n, x2n
    return np.exp(0.5 * (lo + hi))


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


def _exact_certificates(params: BellmanParams, zetas, etas):
    """Per point, the tau maximizing the smaller of the exact Hessian margin
    (smallest eigenvalue) and the drift slack.

    Returns (tau, margin_hessian, margin_drift, s1, s2).  A vanishing
    modulus is clamped to ZERO_MODULUS and given phase 1: its block of -d2Q
    is then evaluated in the radial limit.
    """
    u, v, ph1, ph2 = _phases(zetas, etas)
    ph1 = np.where(u > ZERO_MODULUS, ph1, 1.0)
    ph2 = np.where(v > ZERO_MODULUS, ph2, 1.0)
    coeffs, drift = form_coeffs_and_drift(params, u, v)
    delta = params.delta
    u2 = u * u
    v2 = v * v

    def shared(tau):
        hess = _margin_parts(coeffs, delta, tau).min(axis=0)
        return np.minimum(hess, drift - delta * (tau * u2 + v2 / tau))

    tau = _maximize_over_tau(shared, u.size)
    parts = _margin_parts(coeffs, delta, tau)
    s1, s2 = _worst_direction(coeffs, delta, tau, parts, ph1, ph2)
    return tau, parts.min(axis=0), drift - delta * (tau * u2 + v2 / tau), s1, s2


def _weighted_neg_hess(mat: np.ndarray, delta: float, tau) -> np.ndarray:
    """(n, 4, 4) stack mat - delta*diag(tau, tau, 1/tau, 1/tau)."""
    w = np.stack([tau, tau, 1.0 / tau, 1.0 / tau], axis=-1)
    return mat - delta * w[:, :, None] * np.eye(4)


def find_tau(params: BellmanParams, xi: ComplexPair, *, mollify: str | bool = "auto",
             eps: float | None = None, order: int = 8) -> TauCertificate:
    """Find the shared weight tau certifying the convexity and drift
    inequalities at xi.

    The Hessian margin is exact: the smallest eigenvalue of
    -d2Q - delta*diag(tau, tau, 1/tau, 1/tau), i.e. the minimum of
    <-d2Q s, s> - delta(tau|s1|^2 + |s2|^2/tau) over all unit s in C^2.
    A golden-section search over log tau in [1e-6, 1e6] (refined to relative
    width 1e-6) maximizes the smaller of that margin and the drift slack;
    both are concave in tau.  ``worst_direction`` is the unit eigenvector
    attaining the Hessian margin.  Negative margins are reported, not raised.

    ``mollify="auto"`` switches to the mollified Hessian when xi is within
    the interface classification threshold; True forces it, False forbids it.
    There the margin is the smallest eigenvalue of the weighted mollified
    4x4 matrix.

    Points with a vanishing modulus are evaluated in the radial limit: the
    corresponding block of -d2Q becomes isotropic as |zeta| -> 0 (the phase
    term carries a vanishing coefficient), and the blowup of the eta block
    on the v = 0 ray only strengthens the convexity inequality, so no
    singularity error is raised here.
    """
    zeta = complex(xi[0])
    eta = complex(xi[1])
    u = abs(zeta)
    v = abs(eta)
    if u <= ZERO_MODULUS and v <= ZERO_MODULUS:
        return TauCertificate(tau=1.0, margin_hessian=0.0, margin_drift=0.0, trivial=True)
    want_moll = (mollify is True) or (
        mollify == "auto" and min(u, v) > ZERO_MODULUS
        and _near_interface(params, u, v, INTERFACE_REL_THRESHOLD))
    if not want_moll:
        tau, mh, md, s1, s2 = _exact_certificates(params, [zeta], [eta])
        return TauCertificate(tau=float(tau[0]), margin_hessian=float(mh[0]),
                              margin_drift=float(md[0]),
                              worst_direction=ComplexPair(complex(s1[0]), complex(s2[0])))
    if eps is None:
        eps = 1e-2 * max(u, v)
    mat = mollified_neg_hess_matrix(params, eps, xi, order)
    _, drift = form_coeffs_and_drift(params, u, v)
    delta = params.delta

    def shared(tau):
        hess = np.linalg.eigvalsh(_weighted_neg_hess(mat, delta, tau))[:, 0]
        return np.minimum(hess, drift - delta * (tau * u * u + v * v / tau))

    tau = _maximize_over_tau(shared, 1)
    lam, vecs = np.linalg.eigh(_weighted_neg_hess(mat, delta, tau)[0])
    s = vecs[:, 0]
    return TauCertificate(
        tau=float(tau[0]),
        margin_hessian=float(lam[0]),
        margin_drift=float(drift[0] - delta * (tau[0] * u * u + v * v / tau[0])),
        worst_direction=ComplexPair(complex(s[0], s[1]), complex(s[2], s[3])),
    )


def check_bejaz(params: BellmanParams, xi: ComplexPair) -> BejazReport:
    """Check the range bound and the tau-certified convexity/drift bounds at
    a single point; failures are encoded in the report, never raised."""
    zeta = complex(xi[0])
    eta = complex(xi[1])
    u = abs(zeta)
    v = abs(eta)
    slack_i = float(prop_i_slack(params.p, params.q, params.delta,
                                 np.array([u]), np.array([v]))[0])
    cert = find_tau(params, xi)
    return BejazReport(xi=ComplexPair(zeta, eta), prop_i_slack=slack_i,
                       prop_ii=cert, prop_iii_slack=cert.margin_drift)


def certify_batch(params: BellmanParams, zetas, etas) -> dict:
    """Vectorized certification over arrays of points.

    Points are evaluated with the exact branch formulas; the caller is
    responsible for excluding interface margins and zero rays (see
    ``sample_certification_points``).  Returns a dict of flat arrays;
    ``worst_direction`` has shape (n, 2) and holds the unit eigenvectors
    (s1, s2) attaining ``margin_hessian``.
    """
    zetas = np.asarray(zetas, dtype=np.complex128).ravel()
    etas = np.asarray(etas, dtype=np.complex128).ravel()
    slack_i = prop_i_slack(params.p, params.q, params.delta, np.abs(zetas), np.abs(etas))
    tau, mdir, mdrift, s1, s2 = _exact_certificates(params, zetas, etas)
    valid = (slack_i >= 0.0) & (mdir >= -1e-10) & (mdrift >= -1e-10)
    return {
        "prop_i_slack": np.asarray(slack_i),
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
