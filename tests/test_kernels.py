"""Parity checks between the numba and numpy kernel backends."""

import numpy as np
import pytest

from divbell import _kernels as K

pytestmark = pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba not installed")

P, Q, DELTA = 3.0, 1.5, 1.5 * 0.5 / 8.0


def _points(n=500, seed=0):
    rng = np.random.default_rng(seed)
    u = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    v = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    ph1 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return u, v, ph1, ph2


def test_tables_parity():
    u, v, _, _ = _points()
    a = K.bellman_tables_np(P, Q, DELTA, u, v)
    b = K.bellman_tables_nb(P, Q, DELTA, u, v)
    assert np.array_equal(a[0], b[0])
    for x, y in zip(a[1:], b[1:]):
        np.testing.assert_allclose(x, y, rtol=1e-13, atol=0)


def test_prop_i_parity():
    u, v, _, _ = _points(seed=1)
    np.testing.assert_allclose(
        K.prop_i_slack_np(P, Q, DELTA, u, v),
        K.prop_i_slack_nb(P, Q, DELTA, u, v), rtol=1e-13)


def _coeffs(u, v):
    t = K.bellman_tables_np(P, Q, DELTA, u, v)
    return 0.5 * t[4], 0.5 * t[7], 0.5 * t[6], 0.5 * t[8], 0.5 * t[5]


def test_bilinear_forms_parity():
    u, v, ph1, ph2 = _points(seed=4)
    crr, ctt, drr, dtt, m = _coeffs(u, v)
    rng = np.random.default_rng(5)
    vecs = [rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size) for _ in range(4)]
    a = K.bilinear_forms_np(crr, ctt, drr, dtt, m, ph1, ph2, *vecs)
    b = K.bilinear_forms_nb(crr, ctt, drr, dtt, m, ph1, ph2, *vecs)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_form_sum_over_axes_parity():
    u, v, ph1, ph2 = _points(seed=6)
    crr, ctt, drr, dtt, m = _coeffs(u, v)
    rng = np.random.default_rng(7)
    th1 = rng.standard_normal((u.size, 3)) + 1j * rng.standard_normal((u.size, 3))
    th2 = rng.standard_normal((u.size, 3)) + 1j * rng.standard_normal((u.size, 3))
    a = K.form_sum_over_axes_np(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2)
    b = K.form_sum_over_axes_nb(crr, ctt, drr, dtt, m, ph1, ph2, th1, th2)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
