"""Tests for the Bellman function, its forms, mollification and tau search."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divbell.bellman as bl
from divbell.bellman import BellmanParams, ComplexPair, RegionLabel
from divbell.errors import AccuracyError, DomainError, SingularityError
from oracles import stack_mollified_neg_hess


def fd_grad_phi(params, u, v, h=1e-5):
    du = (bl.eval_phi(params, u + h, v) - bl.eval_phi(params, u - h, v)) / (2 * h)
    dv = (bl.eval_phi(params, u, v + h) - bl.eval_phi(params, u, v - h)) / (2 * h)
    return du, dv


def fd_hessian_Q(params, xi, h=1e-4):
    """Finite-difference 4x4 Hessian of Q in (Re z, Im z, Re e, Im e)."""
    x0 = np.array([xi[0].real, xi[0].imag, xi[1].real, xi[1].imag])

    def q_at(x):
        return bl.eval_Q(params, ComplexPair(x[0] + 1j * x[1], x[2] + 1j * x[3]))

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


def test_package_exports_resolve():
    import divbell
    for name in divbell.__all__:
        assert hasattr(divbell, name), name


class TestParams:
    def test_derived_fields(self):
        P = BellmanParams(2.0)
        assert P.q == 2.0 and P.delta == 0.25

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0, 17.0, 64.0])
    def test_invariants(self, p):
        P = BellmanParams(p)
        assert abs(1.0 / P.p + 1.0 / P.q - 1.0) <= 4e-16
        assert 0.0 < P.delta <= 0.25
        # delta ~ 1/(p-1): delta*(p-1) = q/8 stays in (1/8, 1/4]
        assert 0.125 < P.delta * (P.p - 1.0) <= 0.25 + 1e-15

    @given(st.floats(min_value=2.0, max_value=256.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_invariants_property(self, p):
        P = BellmanParams(p)
        assert abs(1.0 / P.p + 1.0 / P.q - 1.0) <= 1e-15
        assert 0.0 < P.delta <= 0.25
        assert abs(P.delta - P.q * (P.q - 1.0) / 8.0) == 0.0

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            BellmanParams(1.5)
        with pytest.raises(DomainError):
            BellmanParams(float("nan"))
        with pytest.raises(DomainError):
            BellmanParams(2.0, q=1.9)


class TestPhi:
    def test_hand_values(self):
        assert bl.eval_phi(BellmanParams(2.0), 1.0, 1.0) == pytest.approx(2.25, abs=0)
        assert bl.eval_phi(BellmanParams(4.0), 1.0, 1.0) == pytest.approx(2.0 + 1.0 / 18.0, rel=1e-15)

    def test_origin(self):
        assert bl.eval_phi(BellmanParams(3.0), 0.0, 0.0) == 0.0

    def test_negative_input(self):
        with pytest.raises(DomainError):
            bl.eval_phi(BellmanParams(2.0), -1.0, 1.0)
        with pytest.raises(DomainError):
            bl.eval_phi(BellmanParams(2.0), 1.0, -1.0)

    def test_v_zero_ray_is_region2(self):
        P = BellmanParams(4.0)
        assert bl.classify(P, 0.5, 0.0) is RegionLabel.REGION2
        assert bl.eval_phi(P, 0.5, 0.0) == pytest.approx(0.5**4 * (1 + 2 * P.delta / 4), rel=1e-14)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_interface_branch_agreement(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(11)
        for v in rng.uniform(1e-3, 10.0, size=200):
            u = v ** (P.q / P.p)
            b1 = bl._phi_branch(P, u, v, True)
            b2 = bl._phi_branch(P, u, v, False)
            assert abs(b1 - b2) <= 1e-12 * max(b1, b2)

    @given(st.floats(min_value=2.0, max_value=32.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=300, deadline=None)
    def test_range_bound_property(self, p, u, v):
        P = BellmanParams(p)
        val = bl.eval_phi(P, u, v)
        assert 0.0 <= val <= (1.0 + P.delta) * (u**P.p + v**P.q) * (1 + 1e-13) + 1e-300

    def test_interface_band_near_origin(self):
        # the band's floor of 1 sweeps (0, 1e-9) into the interface for p=9,
        # where the branches differ by 1.03e-12 absolute: inside the band's
        # mismatch bound delta*1e-9, and outside a 1e-12 tolerance
        P = BellmanParams(9.0)
        assert bl.classify(P, 0.0, 1e-9) is RegionLabel.INTERFACE
        b1 = bl._phi_branch(P, 0.0, 1e-9, True)
        b2 = bl._phi_branch(P, 0.0, 1e-9, False)
        assert abs(b1 - b2) > 1e-12
        assert bl.eval_phi(P, 0.0, 1e-9) == 0.5 * (b1 + b2)

    def test_interface_mismatch_raises_accuracy_error(self, monkeypatch):
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        exact = bl._phi_branch
        monkeypatch.setattr(bl, "_phi_branch",
                            lambda P_, u_, v_, r1: exact(P_, u_, v_, r1) * (1.0 + 1e-6 * r1))
        with pytest.raises(AccuracyError):
            bl.eval_phi(P, u, v)


class TestQ:
    def test_hand_value(self):
        assert bl.eval_Q(BellmanParams(2.0), ComplexPair(1.0, 1j)) == pytest.approx(-1.125, abs=0)

    def test_origin(self):
        assert bl.eval_Q(BellmanParams(3.0), ComplexPair(0.0, 0.0)) == 0.0

    def test_nonpositive_and_rotation_invariant(self):
        P = BellmanParams(3.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            q0 = bl.eval_Q(P, ComplexPair(z, e))
            assert q0 <= 0.0
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            q1 = bl.eval_Q(P, ComplexPair(z * np.exp(1j * a), e * np.exp(1j * b)))
            assert q1 == pytest.approx(q0, rel=1e-12)


class TestGradients:
    def test_hand_value(self):
        du, dv = bl.grad_phi(BellmanParams(2.0), 1.0, 2.0)
        assert (du, dv) == (2.5, 4.0)

    def test_interface_continuity(self):
        rng = np.random.default_rng(5)
        for p in (2.0, 3.0, 4.0, 8.0):
            P = BellmanParams(p)
            for v in rng.uniform(1e-2, 10.0, size=100):
                u = v ** (P.q / P.p)
                g1 = bl.grad_phi(P, u, v, region=RegionLabel.REGION1)
                g2 = bl.grad_phi(P, u, v, region=RegionLabel.REGION2)
                for a, b in zip(g1, g2):
                    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)

    def test_singular_ray_error(self):
        with pytest.raises(SingularityError) as err:
            bl.grad_phi(BellmanParams(4.0), 1.0, 0.0, region=RegionLabel.REGION1)
        assert "eta" in err.value.which

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    def test_finite_difference_oracle(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(17)
        for u, v in interior_points(P, rng, 300):
            ana = bl.grad_phi(P, u, v)
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
                du, dv = bl.grad_phi(P, u, v)
                assert du <= cu * max(u ** (P.p - 1), v) * (1 + 1e-12)
                assert dv <= cv * v ** (P.q - 1) * (1 + 1e-12)


class TestGradQ:
    def test_hand_value(self):
        g = bl.grad_Q(BellmanParams(2.0), ComplexPair(1.0, 2.0))
        assert abs(g.d_zeta) == pytest.approx(0.625, abs=1e-15)

    def test_conjugate_symmetry(self):
        P = BellmanParams(3.0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            g = bl.grad_Q(P, ComplexPair(z, e))
            assert g.d_zeta_bar == np.conj(g.d_zeta)
            assert g.d_eta_bar == np.conj(g.d_eta)

    def test_phase_equivariance(self):
        P = BellmanParams(4.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a = rng.uniform(0, 2 * np.pi)
            g0 = bl.grad_Q(P, ComplexPair(z, e))
            g1 = bl.grad_Q(P, ComplexPair(z * np.exp(1j * a), e))
            assert g1.d_zeta == pytest.approx(np.exp(-1j * a) * g0.d_zeta, rel=1e-12)

    def test_zero_modulus_raises(self):
        with pytest.raises(SingularityError):
            bl.grad_Q(BellmanParams(2.0), ComplexPair(0.0, 1.0))


class TestFirstForm:
    def test_zero_sigma(self):
        assert bl.first_form(BellmanParams(3.0), ComplexPair(1.0, 2.0), ComplexPair(0.0, 0.0)) == 0.0

    def test_radial_identity(self):
        P = BellmanParams(2.0)
        xi = ComplexPair(1.0, 2.0)
        assert bl.first_form(P, xi, xi) == pytest.approx(-5.25, abs=1e-14)
        # Q - dQ(xi) xi at the same point
        assert bl.eval_Q(P, xi) - bl.first_form(P, xi, xi) == pytest.approx(2.625, abs=1e-13)

    def test_rotational_tangent_vanishes(self):
        P = BellmanParams(3.0)
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            val = bl.first_form(P, ComplexPair(z, e), ComplexPair(1j * z, 1j * e))
            assert abs(val) <= 1e-13 * (abs(z) + abs(e))


class TestSecondForm:
    def test_quadratic_case_hand_value(self):
        # for p = 2 in region 1, Q = -((1+delta)|z|^2 + |e|^2)/2, so the
        # negated form on sigma = (1, 0) is 1 + delta = 1.25
        P = BellmanParams(2.0)
        val = -bl.second_form(P, ComplexPair(1.0, 2.0), ComplexPair(1.0, 0.0), ComplexPair(1.0, 0.0))
        assert val == pytest.approx(1.25, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        P = BellmanParams(3.0)
        pts = interior_points(P, rng, 1000)
        for u, v in pts:
            z = u * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = v * np.exp(1j * rng.uniform(0, 2 * np.pi))
            s = ComplexPair(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            w = ComplexPair(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            a = bl.second_form(P, ComplexPair(z, e), s, w)
            b = bl.second_form(P, ComplexPair(z, e), w, s)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    @pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
    def test_finite_difference_hessian(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(29)
        for u, v in interior_points(P, rng, 40, lo=0.3, hi=2.5, margin=5e-2):
            z = u * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = v * np.exp(1j * rng.uniform(0, 2 * np.pi))
            xi = ComplexPair(z, e)
            Hfd = fd_hessian_Q(P, xi)
            Hcl = -bl.neg_hess_matrix(P, xi)
            assert np.linalg.norm(Hfd - Hcl) <= 1e-5 * max(np.linalg.norm(Hcl), 1e-6)

    def test_singularity_errors_name_the_set(self):
        P = BellmanParams(4.0)
        v = 1.7
        u = v ** (P.q / P.p)
        with pytest.raises(SingularityError) as err:
            bl.second_form(P, ComplexPair(u, v), ComplexPair(1, 0), ComplexPair(1, 0))
        assert err.value.which == "interface"
        with pytest.raises(SingularityError) as err:
            bl.second_form(P, ComplexPair(1e-14, 1.0), ComplexPair(1, 0), ComplexPair(1, 0))
        assert err.value.which == "zeta-zero-ray"


class TestMollified:
    def test_interior_quadratic_convergence(self):
        # at a C^2 point the symmetric mollifier converges at rate eps^2
        P = BellmanParams(4.0)
        xi = ComplexPair(0.5 + 0.2j, 1.9 - 0.3j)
        q0 = bl.eval_Q(P, xi)
        epss = [0.1, 0.05, 0.025]
        errs = [abs(bl.mollified_Q(P, e, xi) - q0) for e in epss]
        slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
        assert slope >= 1.8

    def test_interface_limit_matches_common_value(self):
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        xi = ComplexPair(u, v)
        q0 = bl.eval_Q(P, xi)
        prev = None
        for eps in (0.2, 0.1, 0.05, 0.025):
            err = abs(bl.mollified_Q(P, eps, xi) - q0)
            if prev is not None:
                assert err <= prev * 0.75
            prev = err
        assert err <= 0.05 * abs(q0)

    def test_mollified_form_keeps_certificate_at_interface(self):
        # the distributional convexity inequality survives mollification:
        # reuse tau found just inside region 1
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        nearby = ComplexPair(0.98 * u, v)
        cert = bl.find_tau(P, nearby)
        assert cert.valid()
        mat = bl.mollified_neg_hess_matrix(P, 0.05, ComplexPair(u, v))
        assert np.linalg.eigvalsh(mat - P.delta * weight(cert.tau))[0] >= -1e-8

    def test_requires_positive_eps(self):
        with pytest.raises(DomainError):
            bl.mollified_Q(BellmanParams(2.0), 0.0, ComplexPair(1.0, 1.0))

    def test_mollified_gradient_converges(self):
        P = BellmanParams(4.0)
        xi = ComplexPair(0.5 + 0.2j, 1.9 - 0.3j)
        exact = bl.grad_Q(P, xi)
        errs = []
        for eps in (0.1, 0.05, 0.025):
            g = bl.mollified_grad_Q(P, eps, xi)
            errs.append(max(abs(g.d_zeta - exact.d_zeta), abs(g.d_eta - exact.d_eta)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 1e-3 * max(abs(exact.d_zeta), abs(exact.d_eta))

    def test_accuracy_check_raises_for_crude_quadrature(self):
        P = BellmanParams(8.0)
        xi = ComplexPair(0.9, 1.1)
        with pytest.raises(AccuracyError):
            bl.mollified_Q(P, 0.4, xi, order=2, check_tol=1e-14)


def near_interface_points(params, rng, k):
    """k points within a few percent of the interface u^p = v^q, with
    mollification scales that keep the quadrature balls off the zero rays."""
    v = np.exp(rng.uniform(-2.0, 1.5, k))
    u = v ** (params.q / params.p) * (1.0 + rng.uniform(-0.05, 0.05, k))
    zeta = u * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    eta = v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    eps = np.minimum(rng.uniform(0.01, 0.2, k) * np.maximum(u, v), 0.45 * np.minimum(u, v))
    return zeta, eta, eps


def assert_matches_stack(params, got, zeta, eta, eps, order):
    ref = stack_mollified_neg_hess(params, zeta, eta, eps, order)
    assert got.shape == ref.shape
    if ref.size:
        radius = np.abs(np.linalg.eigvalsh(ref)).max(axis=1)
        assert (np.abs(got - ref).max(axis=(1, 2)) <= 1e-14 * radius).all()
        assert np.array_equal(got, np.swapaxes(got, 1, 2))


class TestMollifiedNegHess:
    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    @pytest.mark.parametrize("order", [6, 8])
    def test_matches_stack_oracle(self, p, order):
        P = BellmanParams(p)
        zeta, eta, eps = near_interface_points(P, np.random.default_rng(int(p) + order), 300)
        got = bl.mollified_neg_hess(P, zeta, eta, eps, order)
        assert_matches_stack(P, got, zeta, eta, eps, order)

    @pytest.mark.parametrize("k", [0, 1, bl._MOLLIFY_BLOCK, bl._MOLLIFY_BLOCK + 1])
    def test_node_counts(self, k):
        P = BellmanParams(4.0)
        zeta, eta, eps = near_interface_points(P, np.random.default_rng(k), k)
        got = bl.mollified_neg_hess(P, zeta, eta, eps, 6)
        assert got.shape == (k, 4, 4)
        assert_matches_stack(P, got, zeta, eta, eps, 6)

    def test_scalar_eps_broadcasts(self):
        P = BellmanParams(3.0)
        zeta, eta, _ = near_interface_points(P, np.random.default_rng(5), 7)
        eps = 0.4 * np.minimum(np.abs(zeta), np.abs(eta)).min()
        assert np.array_equal(bl.mollified_neg_hess(P, zeta, eta, eps, 6),
                              bl.mollified_neg_hess(P, zeta, eta, np.full(7, eps), 6))

    def test_rejects_nonpositive_eps(self):
        P = BellmanParams(4.0)
        with pytest.raises(DomainError):
            bl.mollified_neg_hess(P, [1.0, 1.0], [1.0, 1.0], [0.1, 0.0])
        with pytest.raises(DomainError):
            bl.mollified_neg_hess(P, [1.0], [1.0], np.nan)

    @pytest.mark.parametrize("xi, eps", [
        ((1.3 ** (1.0 / 3.0), 1.3), 0.05),            # on the p=4 interface
        ((0.5 + 0.2j, 1.9 - 0.3j), 0.1),
        ((0.02 - 0.01j, 1.1j), 0.5),                  # eps capped by |zeta|
    ])
    def test_matrix_is_one_point_call(self, xi, eps):
        # same matrix as the stack average at the capped scale
        P = BellmanParams(4.0)
        xi = ComplexPair(*xi)
        mat = bl.mollified_neg_hess_matrix(P, eps, xi)
        capped = min(eps, 0.45 * min(abs(xi[0]), abs(xi[1])))
        assert mat.shape == (4, 4)
        assert_matches_stack(P, mat[None], xi[0], xi[1], capped, 8)
        assert np.array_equal(mat, bl.mollified_neg_hess(P, xi[0], xi[1], capped)[0])
        # the batched function applies the same cap itself
        assert np.array_equal(mat, bl.mollified_neg_hess(P, xi[0], xi[1], eps)[0])

    def test_matrix_guards(self):
        P = BellmanParams(4.0)
        with pytest.raises(DomainError):
            bl.mollified_neg_hess_matrix(P, 0.0, ComplexPair(1.0, 1.0))
        with pytest.raises(SingularityError) as err:
            bl.mollified_neg_hess_matrix(P, 0.1, ComplexPair(1.0, 0.0))
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


class TestFindTau:
    def test_hand_window(self):
        # for p = 2 at xi = (1, 2): the convexity window is [0.25, 5] and the
        # drift inequality 0.25 tau + 1/tau <= 2.625 narrows it to
        # [0.396..., 5]; any valid tau must land in [0.25, 5]
        P = BellmanParams(2.0)
        cert = bl.find_tau(P, ComplexPair(1.0, 2.0))
        assert cert.valid()
        assert 0.25 <= cert.tau <= 5.0

    def test_scaled_point_also_certifies(self):
        P = BellmanParams(2.0)
        c1 = bl.find_tau(P, ComplexPair(1.0, 2.0))
        c2 = bl.find_tau(P, ComplexPair(2.0, 4.0))
        assert c1.valid() and c2.valid()

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_exact_margin_matches_eigvalsh(self, p):
        # the closed form is the smallest eigenvalue of -d2Q - delta*D(tau)
        P = BellmanParams(p)
        zetas, etas = bl.sample_certification_points(P, 200, np.random.default_rng(59))
        res = bl.certify_batch(P, zetas, etas)
        for i in range(zetas.size):
            mat = bl.neg_hess_matrix(P, ComplexPair(zetas[i], etas[i]))
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
        assume(not bl._near_interface(P, u, v, 1e-6))
        xi = ComplexPair(u * np.exp(1j * a), v * np.exp(1j * b))
        cert = bl.find_tau(P, xi)
        form = bl.neg_hess_matrix(P, xi) - P.delta * weight(cert.tau)
        s1, s2 = bl.unit_directions(256)
        dirs = np.stack([s1.real, s1.imag, s2.real, s2.imag], axis=1)
        sampled = np.einsum("di,ij,dj->d", dirs, form, dirs).min()
        assert sampled >= cert.margin_hessian - 1e-13 * np.abs(form).sum()

    def test_deterministic(self):
        P = BellmanParams(3.0)
        xi = ComplexPair(0.5 + 0.3j, 0.9 - 0.1j)
        a = bl.find_tau(P, xi)
        b = bl.find_tau(P, xi)
        assert a.tau == b.tau and a.margin_hessian == b.margin_hessian

    @pytest.mark.parametrize("p, xi, mollified", [
        (3.0, (0.5, 0.9), False),
        (2.0, (0.3 - 0.4j, 2.0j), False),
        (8.0, (1.7 + 0.2j, 0.1 - 0.05j), False),
        (4.0, (1.3 ** (1.0 / 3.0), 1.3), True),   # on the interface u^4 = v^(4/3)
    ])
    def test_worst_direction_attains_margin(self, p, xi, mollified):
        P = BellmanParams(p)
        xi = ComplexPair(*xi)
        cert = bl.find_tau(P, xi, mollify=mollified, eps=0.01)
        if mollified:
            mat = bl.mollified_neg_hess_matrix(P, 0.01, xi)
        else:
            mat = bl.neg_hess_matrix(P, xi)
        form = mat - P.delta * weight(cert.tau)
        s = bl.pair_to_real4(cert.worst_direction)
        assert abs(s @ s - 1.0) <= 1e-12
        assert abs(s @ form @ s - cert.margin_hessian) <= 1e-13 * np.abs(form).sum()
        assert cert.margin_hessian == pytest.approx(np.linalg.eigvalsh(form)[0],
                                                    abs=1e-13 * np.abs(form).sum())

    def test_certificate_reports_worst_direction_and_failure_semantics(self):
        cert = bl.find_tau(BellmanParams(3.0), ComplexPair(0.5, 0.9))
        assert cert.worst_direction is not None
        s1, s2 = cert.worst_direction
        assert abs(abs(s1) ** 2 + abs(s2) ** 2 - 1.0) <= 1e-12
        # a failed certificate is a report, not an exception
        bad = bl.TauCertificate(tau=1.0, margin_hessian=-0.1, margin_drift=0.2)
        assert not bad.valid()
        assert bad.valid(tol=0.2)


class TestFindTauSingularSets:
    def test_interface_point_uses_mollified_forms(self):
        P = BellmanParams(4.0)
        v = 1.3
        u = v ** (P.q / P.p)
        cert = bl.find_tau(P, ComplexPair(u, v))
        assert cert.valid()

    def test_certificate_validity_rotation_invariant(self):
        P = BellmanParams(4.0)
        rng = np.random.default_rng(3)
        for u, v in interior_points(P, rng, 20, lo=0.3, hi=3.0):
            z = u * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = v * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a, b = rng.uniform(0, 2 * np.pi, 2)
            c1 = bl.find_tau(P, ComplexPair(z, e))
            c2 = bl.find_tau(P, ComplexPair(z * np.exp(1j * a), e * np.exp(1j * b)))
            assert c1.valid() and c2.valid()
            # the exact margins depend on the moduli only
            assert c2.tau == pytest.approx(c1.tau, rel=1e-6)
            assert c2.margin_hessian == pytest.approx(c1.margin_hessian, rel=1e-6, abs=1e-12)


class TestCheckBejaz:
    def test_origin_trivial(self):
        rep = bl.check_bejaz(BellmanParams(2.0), ComplexPair(0.0, 0.0))
        assert rep.prop_i_slack == 0.0
        assert rep.prop_ii.trivial and rep.valid()

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    @pytest.mark.parametrize("xi", [(0.0, 1.5), (1.5, 0.0), (1e-320, 2.0)])
    def test_zero_rays_report_instead_of_raising(self, p, xi):
        # the report contract has no error channel; zero-modulus points are
        # evaluated in the radial limit
        rep = bl.check_bejaz(BellmanParams(p), ComplexPair(*xi))
        assert rep.valid(1e-10)

    def test_hand_slack(self):
        rep = bl.check_bejaz(BellmanParams(2.0), ComplexPair(1.0, 1.0))
        assert rep.prop_i_slack == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_random_points_all_valid(self, p):
        P = BellmanParams(p)
        rng = np.random.default_rng(101)
        zetas, etas = bl.sample_certification_points(P, 500, rng)
        res = bl.certify_batch(P, zetas, etas)
        assert res["valid"].all()

    def test_batch_matches_scalar(self):
        P = BellmanParams(3.0)
        rng = np.random.default_rng(37)
        zetas, etas = bl.sample_certification_points(P, 20, rng)
        res = bl.certify_batch(P, zetas, etas)
        assert res["worst_direction"].shape == (20, 2)
        for i in range(20):
            rep = bl.check_bejaz(P, ComplexPair(zetas[i], etas[i]))
            assert rep.prop_ii.tau == pytest.approx(res["tau"][i], rel=1e-12)
            assert rep.prop_ii.worst_direction == pytest.approx(tuple(res["worst_direction"][i]),
                                                                abs=1e-12)
            assert rep.prop_i_slack == pytest.approx(res["prop_i_slack"][i], rel=1e-12)


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
