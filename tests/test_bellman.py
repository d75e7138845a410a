"""Tests for the Bellman function, its tables and forms, the mollified
-d2Q and the batched tau certificate, against the scalar oracles."""

import ast
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divbell.bellman as bl
import oracles as orc
from divbell.bellman import BellmanParams
from divbell.errors import AccuracyError, DomainError, SingularityError
from oracles import ComplexPair, RegionLabel, mollified_matrix, stack_mollified_neg_hess


def fd_grad_phi(params, u, v, h=1e-5):
    du = (orc.eval_phi(params, u + h, v) - orc.eval_phi(params, u - h, v)) / (2 * h)
    dv = (orc.eval_phi(params, u, v + h) - orc.eval_phi(params, u, v - h)) / (2 * h)
    return du, dv


def fd_hessian_Q(params, xi, h=1e-4):
    """Finite-difference 4x4 Hessian of Q in (Re z, Im z, Re e, Im e)."""
    x0 = np.array([xi[0].real, xi[0].imag, xi[1].real, xi[1].imag])

    def q_at(x):
        return orc.eval_Q(params, ComplexPair(x[0] + 1j * x[1], x[2] + 1j * x[3]))

    H = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            e_i = np.zeros(4)
            e_j = np.zeros(4)
            e_i[i] = h
            e_j[j] = h
            if i == j:
                val = (q_at(x0 + e_i) - 2 * q_at(x0) + q_at(x0 - e_i)) / h**2
            else:
                val = (q_at(x0 + e_i + e_j) - q_at(x0 + e_i - e_j)
                       - q_at(x0 - e_i + e_j) + q_at(x0 - e_i - e_j)) / (4 * h**2)
            H[i, j] = H[j, i] = val
    return H


def weight(tau):
    """D(tau) = diag(tau, tau, 1/tau, 1/tau), the weight of the convexity
    bound, in the coordinates (Re zeta, Im zeta, Re eta, Im eta)."""
    return np.diag([tau, tau, 1.0 / tau, 1.0 / tau])


def interior_points(params, rng, n, lo=0.1, hi=3.0, margin=1e-3):
    """Moduli pairs comfortably away from the interface and the zero rays."""
    out = []
    while len(out) < n:
        u = rng.uniform(lo, hi)
        v = rng.uniform(lo, hi)
        t1, t2 = u**params.p, v**params.q
        if abs(t1 - t2) > margin * max(t1, t2, 1.0):
            out.append((u, v))
    return out


def certify_one(params, zeta, eta):
    """``certify_batch`` at a single point, as a dict of scalars."""
    res = bl.certify_batch(params, [zeta], [eta])
    return {key: val[0] for key, val in res.items()}


def batched_neg_hess(params, zetas, etas):
    """(n, 4, 4) stack of -d2Q from ``bilinear_forms`` on the real basis
    (1, 0), (i, 0), (0, 1), (0, i) of C^2."""
    u, v, ph1, ph2 = orc.phases(zetas, etas)
    coeffs, _ = bl.form_coeffs_and_drift(params, u, v)
    basis = [(1.0, 0.0), (1j, 0.0), (0.0, 1.0), (0.0, 1j)]
    out = np.empty((u.size, 4, 4))
    for i, (a1, a2) in enumerate(basis):
        for j, (b1, b2) in enumerate(basis):
            out[:, i, j] = bl.bilinear_forms(
                *coeffs, *map(orc.parts, (ph1, ph2, a1, a2, b1, b2)))
    return out


def d_zeta_from_tables(params, zeta, eta):
    """d_zeta Q = -phi_u conj(zeta) / (4 |zeta|), with phi_u from the
    ``bellman_tables`` column."""
    zeta = np.asarray(zeta, dtype=complex)
    u = np.abs(zeta)
    t = bl.bellman_tables(params.p, params.q, params.delta, u, np.abs(eta))
    return -t[2] * np.conj(zeta) / (4.0 * u)


def test_package_exports_resolve():
    import divbell
    for name in divbell.__all__:
        assert hasattr(divbell, name), name
    # every exported name is one the CLI reaches: referenced by cli.py,
    # harness.py or scenario.py
    pkg = pathlib.Path(divbell.__file__).parent
    used = set()
    for mod in ("cli.py", "harness.py", "scenario.py"):
        for node in ast.walk(ast.parse((pkg / mod).read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    assert set(divbell.__all__) <= used, set(divbell.__all__) - used


class TestParams:
    def test_derived_fields(self):
        P = BellmanParams(2.0)
        assert P.q == 2.0 and P.delta == 0.25
        # q and delta are derived from p, never passed
        for kwargs in ({"q": 2.0}, {"delta": 0.25}):
            with pytest.raises(TypeError):
                BellmanParams(2.0, **kwargs)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0, 17.0, 64.0])
    def test_invariants(self, p):
        P = BellmanParams(p)
        assert abs(1.0 / P.p + 1.0 / P.q - 1.0) <= 4e-16
        assert 0.0 < P.delta <= 0.25
        # delta ~ 1/(p-1): delta*(p-1) = q/8 stays in (1/8, 1/4]
        assert 0.125 < P.delta * (P.p - 1.0) <= 0.25 + 1e-15

    @given(st.floats(min_value=2.0, max_value=1e300, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_invariants_property(self, p):
        P = BellmanParams(p)
        assert abs(1.0 / P.p + 1.0 / P.q - 1.0) <= 1e-15
        assert 0.0 < P.delta <= 0.25
        # delta = q(q - 1)/8 = p / (8 (p - 1)^2) in exact arithmetic
        exact = Fraction(P.p) / (8 * (Fraction(P.p) - 1) ** 2)
        assert abs(Fraction(P.delta) - exact) <= Fraction(4e-16) * exact

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            BellmanParams(1.5)
        with pytest.raises(DomainError):
            BellmanParams(float("nan"))


class TestPhi:
    def test_hand_values(self):
        assert orc.eval_phi(BellmanParams(2.0), 1.0, 1.0) == pytest.approx(2.25, abs=0)
        assert orc.eval_phi(BellmanParams(4.0), 1.0, 1.0) == pytest.approx(2.0 + 1.0 / 18.0, rel=1e-15)

    def test_origin(self):
        assert orc.eval_phi(BellmanParams(3.0), 0.0, 0.0) == 0.0

    def test_negative_input(self):
        with pytest.raises(DomainError):
            orc.eval_phi(BellmanParams(2.0), -1.0, 1.0)
        with pytest.raises(DomainError):
            orc.eval_phi(BellmanParams(2.0), 1.0, -1.0)

    def test_v_zero_ray_is_region2(self):
        P = BellmanParams(4.0)
        assert orc.classify(P, 0.5, 0.0) is RegionLabel.REGION2
        assert orc.eval_phi(P, 0.5, 0.0) == pytest.approx(0.5**4 * (1 + 2 * P.delta / 4), rel=1e-14)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_interface_branch_agreement(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(11)
        for v in rng.uniform(1e-3, 10.0, size=200):
            u = v ** (P.q / P.p)
            b1 = orc._phi_branch(P, u, v, True)
            b2 = orc._phi_branch(P, u, v, False)
            assert abs(b1 - b2) <= 1e-12 * max(b1, b2)

    @given(st.floats(min_value=2.0, max_value=32.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=300, deadline=None)
    def test_range_bound_property(self, p, u, v):
        P = BellmanParams(p)
        val = orc.eval_phi(P, u, v)
        assert 0.0 <= val <= (1.0 + P.delta) * (u**P.p + v**P.q) * (1 + 1e-13) + 1e-300

    def test_interface_band_near_origin(self):
        # the band's floor of 1 sweeps (0, 1e-9) into the interface for p=9,
        # where the branches differ by 1.03e-12 absolute: inside the band's
        # mismatch bound delta*1e-9, and outside a 1e-12 tolerance
        P = BellmanParams(9.0)
        assert orc.classify(P, 0.0, 1e-9) is RegionLabel.INTERFACE
        b1 = orc._phi_branch(P, 0.0, 1e-9, True)
        b2 = orc._phi_branch(P, 0.0, 1e-9, False)
        assert abs(b1 - b2) > 1e-12
        assert orc.eval_phi(P, 0.0, 1e-9) == 0.5 * (b1 + b2)

    def test_interface_mismatch_raises_accuracy_error(self, monkeypatch):
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        exact = orc._phi_branch
        monkeypatch.setattr(orc, "_phi_branch",
                            lambda P_, u_, v_, r1: exact(P_, u_, v_, r1) * (1.0 + 1e-6 * r1))
        with pytest.raises(AccuracyError):
            orc.eval_phi(P, u, v)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_phi_values_bitwise_equal_to_tables(self, p):
        # phi_values evaluates phi alone, by the expression of bellman_tables,
        # on both sides of and on the interface and at 0 and 1e-300
        P = BellmanParams(p)
        rng = np.random.default_rng(int(p))
        v = np.exp(rng.uniform(-8.0, 3.0, 300))
        u = np.concatenate([np.exp(rng.uniform(-8.0, 3.0, 300)), v ** (P.q / P.p)])
        v = np.concatenate([v, v])
        edges = np.array([0.0, 1e-300, bl.MOD_FLOOR, 1.0])
        u = np.concatenate([u, np.repeat(edges, edges.size)])
        v = np.concatenate([v, np.tile(edges, edges.size)])
        got = bl.phi_values(P, u, v)
        assert np.array_equal(got, bl.bellman_tables(P.p, P.q, P.delta, u, v)[1])
        assert np.array_equal(bl.q_values(P, -u, v), -0.5 * got)


class TestQ:
    def test_hand_value(self):
        assert orc.eval_Q(BellmanParams(2.0), ComplexPair(1.0, 1j)) == pytest.approx(-1.125, abs=0)

    def test_origin(self):
        assert orc.eval_Q(BellmanParams(3.0), ComplexPair(0.0, 0.0)) == 0.0

    def test_nonpositive_and_rotation_invariant(self):
        P = BellmanParams(3.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            q0 = orc.eval_Q(P, ComplexPair(z, e))
            assert q0 <= 0.0
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            q1 = orc.eval_Q(P, ComplexPair(z * np.exp(1j * a), e * np.exp(1j * b)))
            assert q1 == pytest.approx(q0, rel=1e-12)


class TestGradients:
    def test_hand_value(self):
        du, dv = orc.grad_phi(BellmanParams(2.0), 1.0, 2.0)
        assert (du, dv) == (2.5, 4.0)

    def test_interface_continuity(self):
        rng = np.random.default_rng(5)
        for p in (2.0, 3.0, 4.0, 8.0):
            P = BellmanParams(p)
            for v in rng.uniform(1e-2, 10.0, size=100):
                u = v ** (P.q / P.p)
                g1 = orc.grad_phi(P, u, v, region=RegionLabel.REGION1)
                g2 = orc.grad_phi(P, u, v, region=RegionLabel.REGION2)
                for a, b in zip(g1, g2):
                    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)

    def test_singular_ray_error(self):
        with pytest.raises(SingularityError) as err:
            orc.grad_phi(BellmanParams(4.0), 1.0, 0.0, region=RegionLabel.REGION1)
        assert "eta" in err.value.which

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    def test_finite_difference_oracle(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(17)
        for u, v in interior_points(P, rng, 300):
            ana = orc.grad_phi(P, u, v)
            num = fd_grad_phi(P, u, v)
            for a, b in zip(ana, num):
                assert abs(a - b) <= 1e-6 * max(abs(a), 1e-12)

    def test_gradient_bounds(self):
        # the explicit constants from the closed forms: C(p) = p + 2 delta
        # for phi_u against max(u^(p-1), v); C = q + delta(2-q) for phi_v
        rng = np.random.default_rng(23)
        for p in (2.0, 3.0, 4.0, 8.0):
            P = BellmanParams(p)
            cu = P.p + 2 * P.delta
            cv = P.q + P.delta * (2 - P.q)
            for u, v in interior_points(P, rng, 200, lo=1e-2, hi=10.0):
                du, dv = orc.grad_phi(P, u, v)
                assert du <= cu * max(u ** (P.p - 1), v) * (1 + 1e-12)
                assert dv <= cv * v ** (P.q - 1) * (1 + 1e-12)


class TestGradQ:
    """First Wirtinger derivatives of Q from the batched first-derivative
    tables."""

    def test_hand_value(self):
        d = d_zeta_from_tables(BellmanParams(2.0), [1.0], [2.0])
        assert abs(d[0]) == pytest.approx(0.625, abs=1e-15)

    def test_conjugate_symmetry(self):
        # Q is real, so d_zeta_bar Q = (Q_x + i Q_y)/2 from central
        # differences of q_values is the conjugate of the tables' d_zeta Q
        P = BellmanParams(3.0)
        rng = np.random.default_rng(8)
        z = rng.uniform(0.1, 3, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        e = rng.uniform(0.1, 3, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        h = 1e-6
        qx = (bl.q_values(P, z + h, e) - bl.q_values(P, z - h, e)) / (2 * h)
        qy = (bl.q_values(P, z + 1j * h, e) - bl.q_values(P, z - 1j * h, e)) / (2 * h)
        d = d_zeta_from_tables(P, z, e)
        assert np.abs(0.5 * (qx + 1j * qy) - np.conj(d)).max() <= 1e-7 * np.abs(d).max()

    def test_phase_equivariance(self):
        P = BellmanParams(4.0)
        rng = np.random.default_rng(9)
        z = rng.uniform(0.1, 3, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        e = rng.uniform(0.1, 3, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        a = rng.uniform(0, 2 * np.pi, 50)
        d0 = d_zeta_from_tables(P, z, e)
        d1 = d_zeta_from_tables(P, z * np.exp(1j * a), e)
        assert np.abs(d1 - np.exp(-1j * a) * d0).max() <= 1e-12 * np.abs(d0).max()
        assert np.allclose(bl.q_values(P, z * np.exp(1j * a), e), bl.q_values(P, z, e),
                           rtol=1e-14, atol=0.0)

    def test_zero_modulus_raises(self):
        # the batched tables clamp a zero modulus; the mollified -d2Q, whose
        # scale cap would vanish there, refuses it
        with pytest.raises(SingularityError) as err:
            bl.mollified_form_coeffs(BellmanParams(2.0), [1.0, 0.0], [1.0, 1.0], 0.1)
        assert err.value.which == "zeta-zero-ray"


class TestFirstForm:
    """The first form enters the proof through the drift Q - dQ(xi) xi,
    which ``form_coeffs_and_drift`` returns."""

    def test_zero_sigma(self):
        # at xi = 0 both Q and dQ(xi) xi vanish
        for p in (2.0, 3.0, 8.0):
            _, drift = bl.form_coeffs_and_drift(BellmanParams(p), [0.0], [0.0])
            assert abs(drift[0]) <= 1e-300

    def test_radial_identity(self):
        P = BellmanParams(2.0)
        _, drift = bl.form_coeffs_and_drift(P, [1.0], [2.0])
        assert drift[0] == pytest.approx(2.625, abs=1e-15)
        # dQ(xi) xi = d/ds Q((1+s) xi) at s = 0, by central differences
        h = 1e-6
        dq = (bl.q_values(P, [1.0 + h], [2.0 + 2 * h])
              - bl.q_values(P, [1.0 - h], [2.0 - 2 * h]))[0] / (2 * h)
        assert dq == pytest.approx(-5.25, rel=1e-8)
        assert orc.eval_Q(P, ComplexPair(1.0, 2.0)) - dq == pytest.approx(drift[0], rel=1e-8)

    def test_rotational_tangent_vanishes(self):
        # dQ(xi)(i xi) = 0: Q and the drift depend on the moduli only
        P = BellmanParams(3.0)
        rng = np.random.default_rng(13)
        z = rng.uniform(0.1, 3, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        e = rng.uniform(0.1, 3, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        h = 1e-6
        rot = np.exp(1j * h)
        dq = (bl.q_values(P, z * rot, e * rot) - bl.q_values(P, z / rot, e / rot)) / (2 * h)
        assert np.abs(dq).max() <= 1e-8 * np.abs(bl.q_values(P, z, e)).max()
        _, d0 = bl.form_coeffs_and_drift(P, np.abs(z), np.abs(e))
        _, d1 = bl.form_coeffs_and_drift(P, np.abs(z * rot), np.abs(e * rot))
        assert np.allclose(d1, d0, rtol=1e-14, atol=0.0)


class TestSecondForm:
    """``bilinear_forms``, the batched <-d2Q(xi) s, w>."""

    def test_quadratic_case_hand_value(self):
        # for p = 2 in region 1, Q = -((1+delta)|z|^2 + |e|^2)/2, so the
        # negated form on sigma = (1, 0) is 1 + delta = 1.25
        P = BellmanParams(2.0)
        u, v, ph1, ph2 = orc.phases([1.0], [2.0])
        coeffs, _ = bl.form_coeffs_and_drift(P, u, v)
        val = bl.bilinear_forms(*coeffs, *map(orc.parts, (ph1, ph2, 1.0, 0.0, 1.0, 0.0)))
        assert val[0] == pytest.approx(1.25, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        P = BellmanParams(3.0)
        u, v = np.array(interior_points(P, rng, 1000)).T
        z = u * np.exp(1j * rng.uniform(0, 2 * np.pi, u.size))
        e = v * np.exp(1j * rng.uniform(0, 2 * np.pi, u.size))
        s1, s2, w1, w2 = (rng.standard_normal((4, u.size))
                          + 1j * rng.standard_normal((4, u.size)))
        _, _, ph1, ph2 = orc.phases(z, e)
        coeffs, _ = bl.form_coeffs_and_drift(P, u, v)
        ph1, ph2, s1, s2, w1, w2 = map(orc.parts, (ph1, ph2, s1, s2, w1, w2))
        a = bl.bilinear_forms(*coeffs, ph1, ph2, s1, s2, w1, w2)
        b = bl.bilinear_forms(*coeffs, ph1, ph2, w1, w2, s1, s2)
        assert (np.abs(a - b) <= 1e-10 * np.maximum(np.abs(a), 1.0)).all()

    def test_matches_complex_reference(self):
        # both parts against complex arithmetic, and the real part alone
        # against the same numbers with zero imaginary parts
        rng = np.random.default_rng(5)
        P = BellmanParams(4.0)
        u, v = np.array(interior_points(P, rng, 500)).T
        coeffs, _ = bl.form_coeffs_and_drift(P, u, v)
        for n_parts in (1, 2):
            z, e, s1, s2, w1, w2 = (orc.parts(rng.standard_normal(u.size)
                                              + 1j * rng.standard_normal(u.size))[:n_parts]
                                    for _ in range(6))
            ph1, ph2 = (x / np.sqrt(np.sum(x * x, axis=0)) for x in (z, e))
            args = (*coeffs, ph1, ph2, s1, s2, w1, w2)
            got = bl.bilinear_forms(*args)
            ref = orc.bilinear_forms_complex(*args)
            assert (np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0)).all()

    @pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
    def test_finite_difference_hessian(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(29)
        for u, v in interior_points(P, rng, 40, lo=0.3, hi=2.5, margin=5e-2):
            z = u * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = v * np.exp(1j * rng.uniform(0, 2 * np.pi))
            Hfd = fd_hessian_Q(P, ComplexPair(z, e))
            Hcl = -batched_neg_hess(P, [z], [e])[0]
            assert np.linalg.norm(Hfd - Hcl) <= 1e-5 * max(np.linalg.norm(Hcl), 1e-6)

    def test_singularity_errors_name_the_set(self):
        P = BellmanParams(4.0)
        v = 1.7
        u = v ** (P.q / P.p)
        with pytest.raises(SingularityError) as err:
            orc.neg_hess_matrix(P, ComplexPair(u, v))
        assert err.value.which == "interface"
        with pytest.raises(SingularityError) as err:
            orc.neg_hess_matrix(P, ComplexPair(1e-14, 1.0))
        assert err.value.which == "zeta-zero-ray"


def segment_distance(mat, a, b):
    """Frobenius distance from mat to the segment between matrices a and b,
    and the weight on a of the closest point."""
    d = a - b
    lam = float(np.clip(np.sum((mat - b) * d) / np.sum(d * d), 0.0, 1.0))
    return float(np.linalg.norm(mat - b - lam * d)), lam


class TestMollified:
    def test_interior_quadratic_convergence(self):
        # at a C^2 point the symmetric, normalized mollifier converges at
        # rate eps^2
        P = BellmanParams(4.0)
        xi = ComplexPair(0.5 + 0.2j, 1.9 - 0.3j)
        exact = orc.neg_hess_matrix(P, xi)
        epss = [0.1, 0.05, 0.025]
        errs = [np.abs(mollified_matrix(P, xi[0], xi[1], e)[0] - exact).max()
                for e in epss]
        slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
        assert slope >= 1.8

    def test_interface_limit_matches_common_value(self):
        # on the interface the mollified -d2Q tends to the even average of
        # the two one-sided Hessians
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        h1 = orc.neg_hess_matrix(P, ComplexPair(u * (1 - 1e-6), v))
        h2 = orc.neg_hess_matrix(P, ComplexPair(u * (1 + 1e-6), v))
        prev = None
        for eps in (0.2, 0.1, 0.05, 0.025):
            dist, lam = segment_distance(mollified_matrix(P, u, v, eps)[0], h1, h2)
            if prev is not None:
                assert dist <= prev * 0.75
            prev = dist
        assert dist <= 1e-3 * np.linalg.norm(h1)
        assert abs(lam - 0.5) <= 0.05

    def test_mollified_form_keeps_certificate_at_interface(self):
        # the distributional convexity inequality survives mollification:
        # reuse tau found just inside region 1
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        cert = certify_one(P, 0.98 * u, v)
        assert cert["valid"]
        mat = mollified_matrix(P, u, v, 0.05)[0]
        assert np.linalg.eigvalsh(mat - P.delta * weight(cert["tau"]))[0] >= -1e-8

    def test_requires_positive_eps(self):
        with pytest.raises(DomainError):
            bl.mollified_form_coeffs(BellmanParams(2.0), [1.0], [1.0], 0.0)

    def test_mollified_gradient_converges(self):
        # for p = 2, Q is quadratic and -d2Q = diag(1+delta, 1+delta, 1, 1)
        # everywhere: the normalized weights reproduce it at every scale
        P = BellmanParams(2.0)
        exact = np.diag([1.0 + P.delta, 1.0 + P.delta, 1.0, 1.0])
        for eps in (0.4, 0.1, 0.025):
            mat = mollified_matrix(P, 0.7 + 0.2j, 1.1 - 0.5j, eps)[0]
            assert np.abs(mat - exact).max() <= 1e-14


def near_interface_points(params, rng, k):
    """k points within a few percent of the interface u^p = v^q, with
    mollification scales that keep the quadrature balls off the zero rays."""
    v = np.exp(rng.uniform(-2.0, 1.5, k))
    u = v ** (params.q / params.p) * (1.0 + rng.uniform(-0.05, 0.05, k))
    zeta = u * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    eta = v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    eps = np.minimum(rng.uniform(0.01, 0.2, k) * np.maximum(u, v), 0.45 * np.minimum(u, v))
    return zeta, eta, eps


def assert_matches_stack(params, got, zeta, eta, eps, order, phase_frame=True):
    ref = stack_mollified_neg_hess(params, zeta, eta, eps, order, phase_frame=phase_frame)
    assert got.shape == ref.shape
    if ref.size:
        radius = np.abs(np.linalg.eigvalsh(ref)).max(axis=1)
        assert (np.abs(got - ref).max(axis=(1, 2)) <= 1e-14 * radius).all()


class TestMollifiedFormCoeffs:
    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    @pytest.mark.parametrize("order", [bl.MOLLIFIER_ORDER])
    def test_matches_stack_oracle(self, p, order):
        # the oracle builds its own rule of the order the id names and
        # averages all 16 entries over all of its nodes
        P = BellmanParams(p)
        zeta, eta, eps = near_interface_points(P, np.random.default_rng(int(p) + order), 300)
        got = mollified_matrix(P, zeta, eta, eps)
        assert_matches_stack(P, got, zeta, eta, eps, order)

    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_real_points_match_unrotated_stack(self, p):
        # on real points with phases +-1 the phase frame is the data's frame
        # up to the reflections y -> -y, under which the rule is symmetric
        P = BellmanParams(p)
        rng = np.random.default_rng(int(p))
        zeta, eta, eps = near_interface_points(P, rng, 300)
        zeta, eta = (np.abs(x) * rng.choice([-1.0, 1.0], x.size) for x in (zeta, eta))
        got = mollified_matrix(P, zeta, eta, eps)
        assert_matches_stack(P, got, zeta, eta, eps, bl.MOLLIFIER_ORDER, phase_frame=False)

    def test_folded_rule(self):
        # 44 nodes with y1, y3 >= 0 carry the 176 weights, so both rules
        # average a function even in y1 and y3 alike
        full = bl.Mollifier()
        y, w = bl._folded_rule()
        assert y.shape == (44, 4) and full.weights.size == 176
        assert (y[:, 1::2] > 0.0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

        def even(x):
            return np.exp(x[:, 0] - 2.0 * x[:, 2]) * np.cos(3.0 * x[:, 1] * x[:, 3]) + x[:, 1] ** 4

        assert even(y) @ w == pytest.approx(even(full.nodes) @ full.weights, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, bl._MOLLIFY_BLOCK, bl._MOLLIFY_BLOCK + 1])
    def test_node_counts(self, k):
        P = BellmanParams(4.0)
        zeta, eta, eps = near_interface_points(P, np.random.default_rng(k), k)
        coeffs = bl.mollified_form_coeffs(P, np.abs(zeta), np.abs(eta), eps)
        assert len(coeffs) == 5 and all(c.shape == (k,) for c in coeffs)
        assert_matches_stack(P, mollified_matrix(P, zeta, eta, eps), zeta, eta, eps,
                             bl.MOLLIFIER_ORDER)

    def test_scalar_eps_broadcasts(self):
        P = BellmanParams(3.0)
        zeta, eta, _ = near_interface_points(P, np.random.default_rng(5), 7)
        u, v = np.abs(zeta), np.abs(eta)
        eps = 0.4 * np.minimum(u, v).min()
        for a, b in zip(bl.mollified_form_coeffs(P, u, v, eps),
                        bl.mollified_form_coeffs(P, u, v, np.full(7, eps))):
            assert np.array_equal(a, b)

    def test_rejects_nonpositive_eps(self):
        P = BellmanParams(4.0)
        with pytest.raises(DomainError):
            bl.mollified_form_coeffs(P, [1.0, 1.0], [1.0, 1.0], [0.1, 0.0])
        with pytest.raises(DomainError):
            bl.mollified_form_coeffs(P, [1.0], [1.0], np.nan)

    @pytest.mark.parametrize("xi, eps", [
        ((1.3 ** (1.0 / 3.0), 1.3), 0.05),            # on the p=4 interface
        ((0.5 + 0.2j, 1.9 - 0.3j), 0.1),
        ((0.02 - 0.01j, 1.1j), 0.5),                  # eps capped by |zeta|
    ])
    def test_matrix_is_one_point_call(self, xi, eps):
        # one point: the stack average at the capped scale
        P = BellmanParams(4.0)
        mat = mollified_matrix(P, xi[0], xi[1], eps)
        capped = min(eps, 0.45 * min(abs(xi[0]), abs(xi[1])))
        assert mat.shape == (1, 4, 4)
        assert_matches_stack(P, mat, xi[0], xi[1], capped, bl.MOLLIFIER_ORDER)
        # the function applies the same cap itself
        assert np.array_equal(mat, mollified_matrix(P, xi[0], xi[1], capped))

    def test_matrix_guards(self):
        P = BellmanParams(4.0)
        with pytest.raises(DomainError):
            bl.mollified_form_coeffs(P, [1.0], [1.0], 0.0)
        with pytest.raises(SingularityError) as err:
            bl.mollified_form_coeffs(P, [1.0, 1.0], [1.0, 0.0], 0.1)
        assert err.value.which == "eta-zero-ray"

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_form_coeffs_bitwise_equal_to_tables(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(int(p))
        u = np.concatenate([np.exp(rng.uniform(-8.0, 3.0, 500)), [0.0, 1e-300, 1.0]])
        v = np.concatenate([np.exp(rng.uniform(-8.0, 3.0, 500)), [1.0, 1e-300, 0.0]])
        t = bl.bellman_tables(P.p, P.q, P.delta, u, v)
        expected = (0.5 * t[4], 0.5 * t[7], 0.5 * t[6], 0.5 * t[8], 0.5 * t[5])
        for got, ref in zip(bl._form_coeffs(P, u, v), expected):
            assert np.array_equal(got, ref, equal_nan=True)


class TestSecondOrder:
    """``second_order`` against the branch-select reference of
    ``oracles.second_order_ref``."""

    EDGES = (0.0, 1e-300, 1e-160, bl.MOD_FLOOR, 1.0)

    @pytest.mark.parametrize("p", [2.0, 2.01, 3.0, 4.0, 8.0])
    def test_matches_branch_select_reference(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(int(100 * p))
        eu, ev = np.meshgrid(self.EDGES, self.EDGES)
        u = np.concatenate([10.0 ** rng.uniform(-100.0, 100.0, 4000), eu.ravel()])
        v = np.concatenate([10.0 ** rng.uniform(-100.0, 100.0, 4000), ev.ravel()])
        with np.errstate(over="ignore"):
            got = bl.second_order(P.p, P.q, P.delta, u, v)
            ref = orc.second_order_ref(P.p, P.q, P.delta, u, v)
            # the mask computed inside is u^p <= v^q, bitwise
            given_mask = bl.second_order(P.p, P.q, P.delta, u, v, u ** P.p <= v ** P.q)
        for g, gm, r in zip(got, given_mask, ref):
            assert np.array_equal(g, gm, equal_nan=True)
            finite = np.isfinite(r)
            assert np.array_equal(np.isfinite(g), finite)
            assert np.array_equal(g[~finite], r[~finite], equal_nan=True)
            big = finite & (np.abs(r) > 1e-290)
            assert (np.abs(g[big] - r[big]) <= 1e-14 * np.abs(r[big])).all()
        if p == 8.0:
            # u^(p-2) overflows for u above about 1e51
            assert not np.isfinite(ref[0]).all()


class TestFindTau:
    """``certify_batch`` at single points."""

    def test_hand_window(self):
        # for p = 2 at xi = (1, 2): the convexity window is [0.25, 5] and the
        # drift inequality 0.25 tau + 1/tau <= 2.625 narrows it to
        # [0.396..., 5]; tau is the window's geometric midpoint
        P = BellmanParams(2.0)
        lo, hi = bl.tau_interval(P, 1.0, 2.0)
        assert lo[0] == pytest.approx(2.0 * (2.625 - np.sqrt(2.625 ** 2 - 1.0)), rel=1e-14)
        assert lo[0] == pytest.approx(0.395878, abs=1e-6)
        assert hi[0] == pytest.approx(5.0, rel=1e-14)
        cert = certify_one(P, 1.0, 2.0)
        assert cert["valid"]
        assert cert["tau"] == pytest.approx(np.sqrt(lo[0] * hi[0]), rel=1e-15)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0, 16.0])
    def test_interval_endpoints_are_tight(self, p):
        # the shared margin vanishes at both ends of the interval and is
        # negative just outside it
        P = BellmanParams(p)
        zetas, etas = bl.sample_certification_points(P, 200, np.random.default_rng(11))
        u, v = np.abs(zetas), np.abs(etas)
        coeffs, drift = bl.form_coeffs_and_drift(P, u, v)
        lo, hi = bl.tau_interval(P, u, v)
        assert (lo < hi).all()

        def shared(tau):
            hess = bl._margin_parts(coeffs, P.delta, tau).min(axis=0)
            return np.minimum(hess, drift - P.delta * (tau * u * u + v * v / tau))

        scale = np.abs(np.stack(coeffs + (drift,))).max(axis=0)
        for end, out in ((lo, 1.0 - 1e-6), (hi, 1.0 + 1e-6)):
            assert (np.abs(shared(end)) <= 1e-13 * scale).all()
            assert (shared(end * out) < 0.0).all()

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0, 50.0])
    def test_interval_scale_covariant(self, p):
        # (u, v) -> (s^(1/p) u, s^(1/q) v) maps tau to kappa*tau, with
        # kappa = s^(1 - 2/p)
        P = BellmanParams(p)
        zetas, etas = bl.sample_certification_points(P, 50, np.random.default_rng(5))
        u, v = np.abs(zetas), np.abs(etas)
        tau = bl.certify_batch(P, u, v)["tau"]
        for s in np.logspace(-40.0, 40.0, 17):
            scaled = bl.certify_batch(P, s ** (1.0 / P.p) * u, s ** (1.0 / P.q) * v)
            assert scaled["valid"].all()
            np.testing.assert_allclose(scaled["tau"], s ** (1.0 - 2.0 / P.p) * tau,
                                       rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [2.0, 2.1, 2.5, 3.0, 4.0, 8.0, 16.0, 50.0])
    def test_far_field_valid(self, p):
        # far outside the sampled box: along v = 1 and u = 1 for
        # w = u^p/v^q in [1e-40, 1e40], and on the diagonal u = v from 1e-140
        # up to u^p = 1e300
        P = BellmanParams(p)
        w = np.logspace(-40.0, 40.0, 4001)
        ones = np.ones_like(w)
        diag = np.logspace(-140.0, 300.0 / P.p, 4001)
        for u, v in ((w ** (1.0 / P.p), ones), (ones, w ** (-1.0 / P.q)), (diag, diag)):
            res = bl.certify_batch(P, u, v)
            assert res["valid"].all(), (u[~res["valid"]][:3], v[~res["valid"]][:3])
            lo, hi = bl.tau_interval(P, u, v)
            assert (np.log(hi / lo) > 0.5).all()

    def test_scaled_point_also_certifies(self):
        P = BellmanParams(2.0)
        assert certify_one(P, 1.0, 2.0)["valid"] and certify_one(P, 2.0, 4.0)["valid"]

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_exact_margin_matches_eigvalsh(self, p):
        # the closed form is the smallest eigenvalue of -d2Q - delta*D(tau)
        P = BellmanParams(p)
        zetas, etas = bl.sample_certification_points(P, 200, np.random.default_rng(59))
        res = bl.certify_batch(P, zetas, etas)
        for i in range(zetas.size):
            mat = orc.neg_hess_matrix(P, ComplexPair(zetas[i], etas[i]))
            lam = np.linalg.eigvalsh(mat - P.delta * weight(res["tau"][i]))
            assert abs(res["margin_hessian"][i] - lam[0]) <= 1e-13 * np.abs(lam).max()

    @given(st.floats(min_value=2.0, max_value=16.0),
           st.floats(min_value=-6.9, max_value=2.3),
           st.floats(min_value=-6.9, max_value=2.3),
           st.floats(min_value=0.0, max_value=6.3),
           st.floats(min_value=0.0, max_value=6.3))
    @settings(max_examples=200, deadline=None)
    def test_sampled_margin_bounds_exact_margin(self, p, log_u, log_v, a, b):
        # at the certificate's tau, no sampled direction does worse than the
        # exact minimum over all unit directions
        P = BellmanParams(p)
        u, v = np.exp(log_u), np.exp(log_v)
        t1, t2 = u ** P.p, v ** P.q
        assume(abs(t1 - t2) > 1e-6 * max(t1, t2, 1.0))
        xi = ComplexPair(u * np.exp(1j * a), v * np.exp(1j * b))
        cert = certify_one(P, *xi)
        form = orc.neg_hess_matrix(P, xi) - P.delta * weight(cert["tau"])
        s1, s2 = bl.unit_directions(256)
        dirs = np.stack([s1.real, s1.imag, s2.real, s2.imag], axis=1)
        sampled = np.einsum("di,ij,dj->d", dirs, form, dirs).min()
        assert sampled >= cert["margin_hessian"] - 1e-13 * np.abs(form).sum()

    def test_deterministic(self):
        P = BellmanParams(3.0)
        a = certify_one(P, 0.5 + 0.3j, 0.9 - 0.1j)
        b = certify_one(P, 0.5 + 0.3j, 0.9 - 0.1j)
        assert a["tau"] == b["tau"] and a["margin_hessian"] == b["margin_hessian"]

    @pytest.mark.parametrize("p, xi, interface", [
        (3.0, (0.5, 0.9), False),
        (2.0, (0.3 - 0.4j, 2.0j), False),
        (8.0, (1.7 + 0.2j, 0.1 - 0.05j), False),
        (4.0, (1.3 ** (1.0 / 3.0), 1.3), True),   # on the interface u^4 = v^(4/3)
    ])
    def test_margin_is_least_eigenvalue(self, p, xi, interface):
        P = BellmanParams(p)
        xi = ComplexPair(*xi)
        cert = certify_one(P, *xi)
        if interface:
            # the oracle refuses the interface; ties take the region-1 formulas
            mat = batched_neg_hess(P, [xi[0]], [xi[1]])[0]
        else:
            mat = orc.neg_hess_matrix(P, xi)
        form = mat - P.delta * weight(cert["tau"])
        assert cert["margin_hessian"] == pytest.approx(np.linalg.eigvalsh(form)[0],
                                                       abs=1e-13 * np.abs(form).sum())

    def test_certificate_failure_semantics(self):
        cert = certify_one(BellmanParams(3.0), 0.5, 0.9)
        # margins are reported, and valid applies one fixed tolerance
        assert cert["valid"] == (cert["prop_i_slack"] >= 0.0
                                 and min(cert["margin_hessian"], cert["margin_drift"]) >= -1e-10)


class TestFindTauSingularSets:
    def test_certificate_validity_rotation_invariant(self):
        P = BellmanParams(4.0)
        rng = np.random.default_rng(3)
        for u, v in interior_points(P, rng, 20, lo=0.3, hi=3.0):
            z = u * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = v * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a, b = rng.uniform(0, 2 * np.pi, 2)
            c1 = certify_one(P, z, e)
            c2 = certify_one(P, z * np.exp(1j * a), e * np.exp(1j * b))
            assert c1["valid"] and c2["valid"]
            # the exact margins depend on the moduli only
            assert c2["tau"] == pytest.approx(c1["tau"], rel=1e-12)
            assert c2["margin_hessian"] == pytest.approx(c1["margin_hessian"],
                                                         rel=1e-12, abs=1e-12)


class TestCheckBejaz:
    """``certify_batch``: range bound, convexity and drift together."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_origin_trivial(self):
        # Q and its derivatives vanish at the origin: tau = 1, margins 0
        for p in (2.0, 3.0, 4.0, 8.0, 50.0):
            cert = certify_one(BellmanParams(p), 0.0, 0.0)
            assert cert["prop_i_slack"] == 0.0
            assert cert["tau"] == 1.0
            assert cert["margin_hessian"] == 0.0 and cert["margin_drift"] == 0.0
            assert cert["valid"], p

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    @pytest.mark.parametrize("xi", [(0.0, 1.5), (1.5, 0.0), (1e-320, 2.0)])
    def test_zero_rays_report_instead_of_raising(self, p, xi):
        # the report contract has no error channel; zero-modulus points are
        # evaluated in the radial limit
        assert certify_one(BellmanParams(p), *xi)["valid"]

    def test_hand_slack(self):
        cert = certify_one(BellmanParams(2.0), 1.0, 1.0)
        assert cert["prop_i_slack"] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_random_points_all_valid(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(101)
        zetas, etas = bl.sample_certification_points(P, 500, rng)
        res = bl.certify_batch(P, zetas, etas)
        assert res["valid"].all()

    def test_batch_matches_scalar(self):
        # each point's certificate does not depend on the rest of the batch
        P = BellmanParams(3.0)
        rng = np.random.default_rng(37)
        zetas, etas = bl.sample_certification_points(P, 20, rng)
        res = bl.certify_batch(P, zetas, etas)
        for i in range(20):
            cert = certify_one(P, zetas[i], etas[i])
            assert cert["tau"] == pytest.approx(res["tau"][i], rel=1e-12)
            assert cert["prop_i_slack"] == pytest.approx(res["prop_i_slack"][i], rel=1e-12)


class TestSampler:
    def test_range_and_margin(self):
        P = BellmanParams(8.0)
        rng = np.random.default_rng(7)
        z, e = bl.sample_certification_points(P, 2000, rng)
        u, v = np.abs(z), np.abs(e)
        assert u.min() > 1e-3 and u.max() <= 10.0
        assert v.min() > 1e-3 and v.max() <= 10.0
        t1, t2 = u**P.p, v**P.q
        assert (np.abs(t1 - t2) > 1e-6 * np.maximum(np.maximum(t1, t2), 1.0)).all()

    def test_deterministic_given_seed(self):
        P = BellmanParams(2.0)
        z1, e1 = bl.sample_certification_points(P, 100, np.random.default_rng(42))
        z2, e2 = bl.sample_certification_points(P, 100, np.random.default_rng(42))
        assert np.array_equal(z1, z2) and np.array_equal(e1, e2)
