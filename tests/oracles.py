"""Reference implementations shared by the test modules."""

import numpy as np

import divbell.bellman as bl


def stack_mollified_neg_hess(params, zeta, eta, eps, order):
    """Oracle for ``bellman.mollified_neg_hess`` at the scales given: the
    full (k, nq, 4, 4) stack of per-quadrature-point -d2Q matrices,
    averaged with the weights."""
    mol = bl._mollifier(order)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    eps = np.broadcast_to(np.asarray(eps, dtype=float), zeta.shape)
    y = mol.nodes
    zs = zeta[:, None] - eps[:, None] * (y[None, :, 0] + 1j * y[None, :, 1])
    es = eta[:, None] - eps[:, None] * (y[None, :, 2] + 1j * y[None, :, 3])
    u, v, ph1, ph2 = bl._phases(zs.ravel(), es.ravel())
    coeffs = bl._form_coeffs(params, np.maximum(u, bl.ZERO_MODULUS),
                             np.maximum(v, bl.ZERO_MODULUS))
    mats = bl._assemble_neg_hess(*coeffs, ph1, ph2).reshape(zeta.size, mol.weights.size, 4, 4)
    return np.einsum("q,kqij->kij", mol.weights, mats)
