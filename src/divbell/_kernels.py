"""Dual-backend numeric kernels for the Bellman-side hot loops.

Every kernel exists twice: as vectorized numpy code (suffix ``_np``) and as
numba nopython loops (suffix ``_nb``).  The module-level names without a
suffix point at the active backend, chosen once at import time.  Set
``DIVBELL_DISABLE_NUMBA=1`` to force the numpy path; the numpy path is also
used automatically when numba is not importable.

Conventions shared by both backends:

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
"""

import os

import numpy as np

_flag = os.environ.get("DIVBELL_DISABLE_NUMBA", "").strip().lower()
NUMBA_DISABLED = _flag in ("1", "true", "yes", "on")

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not NUMBA_DISABLED

# Floor applied to moduli before raising them to negative powers.
MOD_FLOOR = 1e-150


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# derivative tables
# ---------------------------------------------------------------------------

def second_order_np(p, q, delta, u, v, r1=None):
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


def bellman_tables_np(p, q, delta, u, v):
    """Region mask plus phi and its radial derivatives, vectorized.

    Returns (r1, phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv, phi_u_over_u,
    phi_v_over_v) as flat arrays; r1 is a boolean region-1 mask.  The last
    five come from ``second_order_np``.
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
    return (r1, phi, phi_u, phi_v) + second_order_np(p, q, delta, u, v, r1)


def prop_i_slack_np(p, q, delta, u, v):
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


# ---------------------------------------------------------------------------
# quadratic / bilinear forms of -d2Q
# ---------------------------------------------------------------------------

def bilinear_forms_np(crr, ctt, drr, dtt, m, ph1, ph2, a1, a2, b1, b2):
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


def form_sum_over_axes_np(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2):
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
# numba twins
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=False)
    def _tables_kernel(p, q, delta, u, v, out):
        c2p = p + 2.0 * delta
        c2q = q + delta * (2.0 - q)
        for i in range(u.size):
            uu = u[i]
            vv = v[i]
            up = uu ** p
            vq = vv ** q
            vc = vv if vv > MOD_FLOOR else MOD_FLOOR
            up1 = uu ** (p - 1.0)
            up2 = uu ** (p - 2.0)
            vq1 = vv ** (q - 1.0)
            v2q = vv ** (2.0 - q)
            v1q = vc ** (1.0 - q)
            vq2 = vc ** (q - 2.0)
            vmq = vc ** (-q)
            u2 = uu * uu
            if up <= vq:
                out[0, i] = 1.0
                out[1, i] = up + vq + delta * u2 * v2q
                out[2, i] = p * up1 + 2.0 * delta * uu * v2q
                out[3, i] = q * vq1 + delta * (2.0 - q) * u2 * v1q
                out[4, i] = p * (p - 1.0) * up2 + 2.0 * delta * v2q
                out[5, i] = 2.0 * delta * (2.0 - q) * uu * v1q
                out[6, i] = q * (q - 1.0) * vq2 + delta * (2.0 - q) * (1.0 - q) * u2 * vmq
                out[7, i] = p * up2 + 2.0 * delta * v2q
                out[8, i] = q * vq2 + delta * (2.0 - q) * u2 * vmq
            else:
                out[0, i] = 2.0
                out[1, i] = up + vq + delta * ((2.0 / p) * up + (2.0 / q - 1.0) * vq)
                out[2, i] = c2p * up1
                out[3, i] = c2q * vq1
                out[4, i] = c2p * (p - 1.0) * up2
                out[5, i] = 0.0
                out[6, i] = c2q * (q - 1.0) * vq2
                out[7, i] = c2p * up2
                out[8, i] = c2q * vq2

    @njit(cache=False)
    def _prop_i_kernel(p, q, delta, u, v, out):
        for i in range(u.size):
            uu = u[i]
            vv = v[i]
            up = uu ** p
            vq = vv ** q
            if up <= vq:
                vq1 = vv ** (q - 1.0)
                v2q = vv ** (2.0 - q)
                out[i] = delta * (up + v2q * (vq1 - uu) * (vq1 + uu))
            else:
                out[i] = delta * ((1.0 - 2.0 / p) * up + (2.0 - 2.0 / q) * vq)

    @njit(cache=False)
    def _bilinear_forms_kernel(crr, ctt, drr, dtt, m, ph1, ph2, a1, a2, b1, b2, out):
        for i in range(crr.size):
            p1r = ph1[i].real
            p1i = ph1[i].imag
            p2r = ph2[i].real
            p2i = ph2[i].imag
            xa1 = a1[i].real * p1r + a1[i].imag * p1i
            xa2 = a2[i].real * p2r + a2[i].imag * p2i
            xb1 = b1[i].real * p1r + b1[i].imag * p1i
            xb2 = b2[i].real * p2r + b2[i].imag * p2i
            dot1 = a1[i].real * b1[i].real + a1[i].imag * b1[i].imag
            dot2 = a2[i].real * b2[i].real + a2[i].imag * b2[i].imag
            out[i] = (
                ctt[i] * dot1
                + (crr[i] - ctt[i]) * xa1 * xb1
                + m[i] * (xa1 * xb2 + xa2 * xb1)
                + dtt[i] * dot2
                + (drr[i] - dtt[i]) * xa2 * xb2
            )

    @njit(cache=False)
    def _form_sum_over_axes_kernel(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2, out):
        npts, dim = th1.shape
        for i in range(npts):
            p1r = ph1[i].real
            p1i = ph1[i].imag
            p2r = ph2[i].real
            p2i = ph2[i].imag
            acc = 0.0
            for j in range(dim):
                t1 = th1[i, j]
                t2 = th2[i, j]
                x1 = t1.real * p1r + t1.imag * p1i
                x2 = t2.real * p2r + t2.imag * p2i
                a1 = t1.real * t1.real + t1.imag * t1.imag
                a2 = t2.real * t2.real + t2.imag * t2.imag
                acc += (
                    ctt[i] * a1
                    + (crr[i] - ctt[i]) * x1 * x1
                    + 2.0 * m[i] * x1 * x2
                    + dtt[i] * a2
                    + (drr[i] - dtt[i]) * x2 * x2
                )
            out[i] = acc

    def bellman_tables_nb(p, q, delta, u, v):
        u = np.ascontiguousarray(u, dtype=np.float64).ravel()
        v = np.ascontiguousarray(v, dtype=np.float64).ravel()
        out = np.empty((9, u.size))
        _tables_kernel(p, q, delta, u, v, out)
        return (out[0] == 1.0,) + tuple(out[1:])

    def second_order_nb(p, q, delta, u, v):
        """The last five tables of ``bellman_tables_nb``: the compiled
        kernel computes all nine for little more than the five."""
        return bellman_tables_nb(p, q, delta, u, v)[4:]

    def prop_i_slack_nb(p, q, delta, u, v):
        shape = np.shape(u)
        u = np.ascontiguousarray(u, dtype=np.float64).ravel()
        v = np.ascontiguousarray(v, dtype=np.float64).ravel()
        out = np.empty(u.size)
        _prop_i_kernel(p, q, delta, u, v, out)
        return out.reshape(shape)

    def bilinear_forms_nb(crr, ctt, drr, dtt, m, ph1, ph2, a1, a2, b1, b2):
        out = np.empty(crr.size)
        _bilinear_forms_kernel(
            np.ascontiguousarray(crr), np.ascontiguousarray(ctt),
            np.ascontiguousarray(drr), np.ascontiguousarray(dtt),
            np.ascontiguousarray(m),
            np.ascontiguousarray(ph1, dtype=np.complex128),
            np.ascontiguousarray(ph2, dtype=np.complex128),
            np.ascontiguousarray(a1, dtype=np.complex128),
            np.ascontiguousarray(a2, dtype=np.complex128),
            np.ascontiguousarray(b1, dtype=np.complex128),
            np.ascontiguousarray(b2, dtype=np.complex128),
            out,
        )
        return out

    def form_sum_over_axes_nb(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2):
        out = np.empty(crr.size)
        _form_sum_over_axes_kernel(
            np.ascontiguousarray(crr), np.ascontiguousarray(ctt),
            np.ascontiguousarray(drr), np.ascontiguousarray(dtt),
            np.ascontiguousarray(m),
            np.ascontiguousarray(ph1, dtype=np.complex128),
            np.ascontiguousarray(ph2, dtype=np.complex128),
            np.ascontiguousarray(th1, dtype=np.complex128),
            np.ascontiguousarray(th2, dtype=np.complex128),
            out,
        )
        return out

else:  # pragma: no cover - no-numba fallback aliases
    bellman_tables_nb = None
    second_order_nb = None
    prop_i_slack_nb = None
    bilinear_forms_nb = None
    form_sum_over_axes_nb = None


if USE_NUMBA:
    bellman_tables = bellman_tables_nb
    second_order = second_order_nb
    prop_i_slack = prop_i_slack_nb
    bilinear_forms = bilinear_forms_nb
    form_sum_over_axes = form_sum_over_axes_nb
else:
    bellman_tables = bellman_tables_np
    second_order = second_order_np
    prop_i_slack = prop_i_slack_np
    bilinear_forms = bilinear_forms_np
    form_sum_over_axes = form_sum_over_axes_np
