"""Tests for the proof-chain harness: composed field, chain rule, pointwise
bound, bilinear functional and embedding, cutoff integration by parts and
off-diagonal decay; and for the polarization and square-function oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import divbell.bellman as bl
import divbell.harness as hz
import divbell.operators as ops
import divbell.presets as ps
from divbell.bellman import BellmanParams
from divbell.errors import DivbellError, DomainError, GeometryError
from divbell.grids import Boundary, Grid, GridFunction
from divbell.scenario import build_scenario
from divbell.semigroup import Scheme, SolverConfig, TimeGrid, Trajectory, evolve
import oracles as orc
from oracles import stack_mollified_form_coeffs

TIGHT = SolverConfig(tol=1e-12)


def make_scenario(preset="identity", dim=1, N=96, p=2.0, T=0.3, steps=None,
                  seed=0, f_scale=1.0, equal=False, L=8.0,
                  boundary=Boundary.DIRICHLET, scheme=Scheme.CRANK_NICOLSON,
                  radii=None):
    g = Grid(cells=(N,) * dim, lo=(-L / 2,) * dim, hi=(L / 2,) * dim, boundary=boundary)
    A = ps.coefficient_preset(preset, g, seed=seed)
    V = ps.potential_preset(preset, g, seed=seed)
    f, gg = ps.default_data(g)
    f = GridFunction(g, f_scale * f.values)
    if equal:
        gg = f
    if steps is None:
        steps = 200
    tg = TimeGrid(dt=T / steps, T=T, scheme=scheme,
                  snapshot_stride=max(1, steps // 50))
    if radii is None:
        radii = tuple(L / 2 * s for s in (0.25, 0.375, 0.5))
    return hz.ScenarioSpec(preset, g, A, V, f, gg, BellmanParams(p), tg,
                           TIGHT, cutoff_radii=radii)


def bump_pair_spec(phase_f=0.7, phase_g=-1.1):
    """Two 1D identity-preset bumps with constant complex phases."""
    g = Grid(cells=(64,), lo=(-4.0,), hi=(4.0,), boundary=Boundary.DIRICHLET)
    A = ps.coefficient_preset("identity", g)
    V = ps.potential_preset("identity", g)
    f = GridFunction(g, ps.make_bump(g, -0.3, 1.2, 0.8).values * np.exp(1j * phase_f))
    gg = GridFunction(g, ps.make_bump(g, 0.3, 1.0, 0.6).values * np.exp(1j * phase_g))
    return hz.ScenarioSpec("complex", g, A, V, f, gg, BellmanParams(3.0),
                           TimeGrid(dt=0.002, T=0.3, snapshot_stride=3), TIGHT)


@pytest.fixture(scope="module")
def evolved_identity_1d():
    return hz.run_scenario(make_scenario("identity", T=0.5, steps=250))


@pytest.fixture(scope="module")
def evolved_accretive_2d():
    """random-accretive 24^2 at p = 4, so V != 0 and L_h is nonsymmetric."""
    return hz.run_scenario(make_scenario("random-accretive", dim=2, N=24, p=4.0, steps=60),
                           embedding=False)


def with_radii(ev, radii):
    """``ev`` with its spec's cutoff radii replaced."""
    return dataclasses.replace(ev, spec=dataclasses.replace(ev.spec, cutoff_radii=radii))


def with_snapshots(ev, keep):
    """``ev`` keeping only the snapshots that the index ``keep`` selects."""
    f, g = (Trajectory(t.grid, t.times[keep], t.values[keep]) for t in (ev.traj_f, ev.traj_g))
    return hz.EvolvedScenario(ev.spec, ev.op, f, g)


class TestComposeB:
    def test_zero_data(self):
        spec = make_scenario(N=32, steps=10)
        op = ops.assemble(spec.grid, spec.coefficients, spec.potential)
        z = GridFunction(spec.grid, np.zeros(spec.grid.node_shape))
        tf = evolve(op, z, spec.timegrid, TIGHT)
        b = hz.compose_b(hz.EvolvedScenario(spec, op, tf, tf), spec.params)
        assert np.all(b == 0.0)

    def test_initial_snapshot_anchor(self, evolved_identity_1d):
        ev = evolved_identity_1d
        from divbell.bellman import q_values
        b = hz.compose_b(ev, ev.spec.params)
        expected = q_values(ev.spec.params, ev.spec.f.flat, ev.spec.g.flat)
        assert np.allclose(b[0], expected, rtol=0, atol=1e-15)

    def test_nonpositive_and_range_bound(self, evolved_identity_1d):
        ev = evolved_identity_1d
        P = ev.spec.params
        b = hz.compose_b(ev, P)
        assert np.all(b <= 0.0)
        u = np.abs(ev.traj_f.values)
        v = np.abs(ev.traj_g.values)
        bound = (1 + P.delta) * (u ** P.p + v ** P.q)
        assert np.all(-2.0 * b <= bound * (1 + 1e-12) + 1e-300)


class TestLprime:
    def test_trajectory_residual_second_order_in_dt(self):
        # L'(P_t f) = 0 in the continuum; the discrete residual of a
        # Crank-Nicolson trajectory decays at O(dt^2).  A Fourier mode keeps
        # the spatial part exact.
        g = Grid(cells=(32,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        x = g.node_coords()[0]
        f = GridFunction(g, np.exp(2j * np.pi * 2 * x))
        errs = []
        for steps in (32, 64, 128):
            tg = TimeGrid(dt=0.04 / steps, T=0.04, scheme=Scheme.CRANK_NICOLSON)
            traj = evolve(L, f, tg, TIGHT)
            res = hz.lprime(L, traj.values, traj.times)
            errs.append(np.abs(res).max())
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) >= 1.8

    def test_constant_field_periodic(self):
        g = Grid(cells=(16,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        fld = np.ones((5, 16), dtype=np.complex128)
        times = np.linspace(0.0, 0.4, 5)
        assert np.abs(hz.lprime(L, fld, times)).max() <= 1e-13

    def test_linearity(self, evolved_identity_1d):
        ev = evolved_identity_1d
        t = ev.traj_f.times
        a1 = ev.traj_f.values
        a2 = ev.traj_g.values
        lhs = hz.lprime(ev.op, 2.0 * a1 - 0.5 * a2, t)
        rhs = 2.0 * hz.lprime(ev.op, a1, t) - 0.5 * hz.lprime(ev.op, a2, t)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    def test_needs_uniform_times(self, evolved_identity_1d):
        ev = evolved_identity_1d
        times = ev.traj_f.times.copy()
        times[-1] *= 1.5
        with pytest.raises(DomainError):
            hz.lprime(ev.op, ev.traj_f.values, times)


class TestGrad4:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exact_on_quartics_away_from_the_edge(self, dim):
        # the five-point stencil differentiates polynomials of degree <= 4 in
        # its axis exactly; nodes two or more from the edge never see the
        # zero extension
        g = Grid(cells=(10,) * dim, lo=(-1.0,) * dim, hi=(1.5,) * dim,
                 boundary=Boundary.DIRICHLET)
        xs = g.node_coords()
        prod = np.prod(xs, axis=0)
        u = sum((a + 1) * x ** 4 - 2 * x ** 3 + x for a, x in enumerate(xs)) + prod ** 2
        grads = hz.grad4(g, np.stack([u.ravel(), 2j * u.ravel()]))
        inner = tuple(slice(2, -2) for _ in range(dim))
        for a, x in enumerate(xs):
            others = np.prod([y for b, y in enumerate(xs) if b != a], axis=0)
            exact = 4 * (a + 1) * x ** 3 - 6 * x ** 2 + 1 + 2 * x * others ** 2
            got = grads[a].reshape((2,) + g.node_shape)
            assert np.allclose(got[0][inner], exact[inner], rtol=0, atol=1e-11)
            assert np.allclose(got[1][inner], 2j * exact[inner], rtol=0, atol=1e-11)

    def test_zero_extension_at_the_dirichlet_edge(self):
        g = Grid(cells=(12, 9), lo=(0.0, 0.0), hi=(1.2, 0.9), boundary=Boundary.DIRICHLET)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.node_shape)
        gx, gy = hz.grad4(g, u.reshape(1, -1))[:, 0].reshape((2,) + g.node_shape)
        hx, hy = g.spacing
        padded = np.pad(u, 2)
        for k in (0, 1, -2, -1):
            i = k + 2 if k >= 0 else u.shape[0] + 2 + k
            ref = (-padded[i + 2, 2:-2] + 8 * padded[i + 1, 2:-2]
                   - 8 * padded[i - 1, 2:-2] + padded[i - 2, 2:-2]) / (12 * hx)
            assert np.array_equal(gx[k], ref)
        assert np.array_equal(gy[:, 0], (-u[:, 2] + 8 * u[:, 1]) / (12 * hy))
        assert np.array_equal(gy[:, -1], (-8 * u[:, -2] + u[:, -3]) / (12 * hy))

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_periodic_fourier_modes(self, k):
        # grad4 e^(i kappa x) = i (8 sin(kappa h) - sin(2 kappa h)) / (6 h) e^(i kappa x)
        g = Grid(cells=(32, 24), lo=(0.0, 0.0), hi=(1.0, 2.0), boundary=Boundary.PERIODIC)
        x, y = g.node_coords()
        kappa = (2 * np.pi * k, 2 * np.pi * (k + 1) / 2.0)
        u = np.exp(1j * (kappa[0] * x + kappa[1] * y))
        grads = hz.grad4(g, u.reshape(1, -1))[:, 0]
        for a, (kap, h) in enumerate(zip(kappa, g.spacing)):
            symbol = 1j * (8 * np.sin(kap * h) - np.sin(2 * kap * h)) / (6 * h)
            assert np.allclose(grads[a], symbol * u.ravel(), rtol=0, atol=1e-12 * abs(symbol))


class TestChainRule:
    def test_potential_term_isolated_by_constant_data(self):
        # constant data on a periodic grid with constant V: the gradient
        # term vanishes and L'b = V [Q - dQ v] >= 0 by the drift bound
        g = Grid(cells=(16,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        A = ops.CoefficientField.identity(g)
        V = ops.PotentialField(g, np.full(g.node_shape, 0.7))
        L = ops.assemble(g, A, V)
        P = BellmanParams(3.0)
        f = GridFunction(g, np.full(g.node_shape, 0.6 + 0j))
        gg = GridFunction(g, np.full(g.node_shape, 0.4 + 0j))
        tg = TimeGrid(dt=0.005, T=0.1, scheme=Scheme.CRANK_NICOLSON)
        tf = evolve(L, f, tg, TIGHT)
        tgj = evolve(L, gg, tg, TIGHT)
        # constant data have no support margin, so there is no ScenarioSpec;
        # the chain rule and b read only the operator and the trajectories
        ev = hz.EvolvedScenario(None, L, tf, tgj)
        cr, = hz.chain_rule_rhs(ev, [P])
        assert np.all(cr.rhs >= -1e-14)
        # the same value through lprime, up to the scheme's O(dt^2)
        b = hz.compose_b(ev, P)
        lp = hz.lprime(L, b, tf.times)
        assert np.abs(lp - cr.rhs).max() <= 5e-4

    def test_identity_ladder_on_rotation_preset(self):
        P = BellmanParams(4.0)
        errs = []
        for N, steps in ((16, 8), (32, 16)):
            spec = make_scenario("rotation", dim=2, N=N, p=4.0, T=0.2,
                                 steps=steps, f_scale=0.55 / 0.9, equal=True)
            ev = hz.run_scenario(spec)
            cr, = hz.chain_rule_rhs(ev, [P])
            errs.append(hz.chain_rule_identity_error(ev, P, cr))
        assert errs[0] / errs[1] >= 1.8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_two_arrangements_agree(self, dim):
        # 3D takes a nonsymmetric A with a nonconstant symmetric part
        preset, N = {2: ("rotation", 16), 3: ("random-accretive", 6)}[dim]
        spec = make_scenario(preset, dim=dim, N=N, p=3.0, T=0.1, steps=10)
        ev = hz.run_scenario(spec)
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        assert cr.n_mollified > 0
        assert cr.arrangement_gap <= 1e-10
        # at every node, exact and mollified, rhs is the explicit a_ij
        # double sum of -d2Q over the raw A; max|rhs| is about 1e74 at the
        # t = 0, eta = 0 nodes
        expected = orc.chain_rule_double_sum(ev, spec.params)
        assert (np.abs(cr.rhs - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))).all()

    @pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
    def test_arrangements_match_double_sum(self, d):
        # random gradients on (nt, n) = (5, 7) nodes, their real parts alone
        # and both parts, a nonsymmetric A per node, and radial coefficients
        # that make the form positive: the factored kernel on S g against
        # the explicit a_ij sum
        rng = np.random.default_rng(d)
        shape = (5, 7)
        z1, z2 = (rng.standard_normal((d,) + shape) + 1j * rng.standard_normal((d,) + shape)
                  for _ in range(2))
        B = rng.standard_normal((shape[1], d, d))
        K = rng.standard_normal((shape[1], d, d))
        A = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(d) + K - np.swapaxes(K, -1, -2)
        S = np.moveaxis(ops.matrix_sqrt_spd(0.5 * (A + np.swapaxes(A, -1, -2))), 0, -1)
        coeffs = (*rng.uniform(1.0, 2.0, (4,) + shape), rng.uniform(-0.5, 0.5, shape))
        phases = np.exp(2j * np.pi * rng.uniform(size=(2,) + shape))
        for n_parts in (1, 2):
            grads = np.moveaxis(np.stack([orc.parts(z1), orc.parts(z2)]), 2, 0)[:, :, :n_parts]
            ph = np.stack([orc.parts(x)[:n_parts] for x in phases])
            explicit = sum(A[:, i, j] * bl.bilinear_forms(*coeffs, *ph, *grads[i], *grads[j])
                           for i in range(d) for j in range(d))
            assert (explicit > 0.0).all()
            total = hz._factored(coeffs, ph, hz._node_matvec(S, grads))
            assert total.shape == shape
            assert (np.abs(total - explicit) <= 1e-13 * explicit).all()

    @pytest.mark.parametrize("case", ["real", "complex", "mixed"])
    def test_chain_rule_matches_complex_oracle(self, case, monkeypatch):
        # the real-part chain rule against complex arithmetic throughout:
        # both parts kept, S g as a complex einsum and the complex form, at
        # exact and mollified nodes (on the real case the t = 0 nodes on the
        # eta = 0 ray, up to 7.9e97, included)
        spec = {"real": lambda: build_scenario(None, preset="random-accretive", dim=2,
                                               cells=(12, 12), p=4.0, T=0.1, seed=3),
                "complex": bump_pair_spec,
                "mixed": lambda: bump_pair_spec(phase_f=0.0)}[case]()
        ev = hz.run_scenario(spec, embedding=False)
        f, g = ev.traj_f.values, ev.traj_g.values
        assert (np.any(f.imag), np.any(g.imag)) == {"real": (False, False),
                                                    "complex": (True, True),
                                                    "mixed": (False, True)}[case]
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        monkeypatch.setattr(hz, "_node_matvec", orc.node_matvec_complex)
        monkeypatch.setattr(hz, "bilinear_forms", orc.bilinear_forms_complex)
        as_complex = {name: dataclasses.replace(t, values=t.values.astype(np.complex128))
                      for name, t in (("traj_f", ev.traj_f), ("traj_g", ev.traj_g))}
        ref, = hz.chain_rule_rhs(dataclasses.replace(ev, **as_complex), [spec.params])
        assert cr.n_mollified == ref.n_mollified > 0
        assert (np.abs(cr.rhs - ref.rhs) <= 1e-12 * np.maximum(1.0, np.abs(ref.rhs))).all()

    def test_real_data_take_one_real_part(self, monkeypatch):
        # real A keeps real data real, so every root-weighted gradient the
        # factored kernel receives, at exact and at mollified nodes, is one
        # float64 part
        spec = make_scenario("random-accretive", dim=2, N=12, p=3.0, T=0.1, steps=10)
        ev = hz.run_scenario(spec, embedding=False)
        assert ev.traj_f.values.dtype == ev.traj_g.values.dtype == np.float64
        seen = []
        factored = hz._factored

        def spy(coeffs, ph, th):
            seen.append((th.dtype, th.shape[2]))
            return factored(coeffs, ph, th)

        monkeypatch.setattr(hz, "_factored", spy)
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        assert cr.n_mollified > 0
        assert len(seen) > len(hz._snapshot_blocks(*ev.traj_f.values.shape))
        assert set(seen) == {(np.dtype(np.float64), 1)}

    def test_one_arrangement_per_block(self, monkeypatch):
        # d form calls per block and per p, d more per block and p with
        # mollified nodes, and one S g per block: 24 and 6 at random-accretive
        # 32^2, p = 4, in 6 snapshot blocks
        spec = build_scenario(None, preset="random-accretive", dim=2, cells=(32, 32), p=4.0)
        ev = hz.run_scenario(spec, embedding=False)
        blocks = hz._snapshot_blocks(*ev.traj_f.values.shape)
        calls = {"bilinear_forms": 0, "_node_matvec": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(hz, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(hz, name, counting)
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        f, g = ev.traj_f.values, ev.traj_g.values
        u, v = np.abs(f), np.abs(g)
        eps = hz._mollify_scale(u, v, min(spec.grid.spacing))
        mol = hz._interface_margin_mask(spec.params, u, v, eps, hz._modulus_scale(f, g))
        assert cr.n_mollified == mol.sum() > 0
        mollified_blocks = sum(bool(mol[blk].any()) for blk in blocks)
        assert calls == {"bilinear_forms": 2 * (len(blocks) + mollified_blocks),
                         "_node_matvec": len(blocks)}
        assert calls == {"bilinear_forms": 24, "_node_matvec": 6}

    @pytest.mark.parametrize("preset, wrong_root", [
        # sym A for its own root: S^T S = (sym A)^2, which is not sym A
        # where sym A varies over the nodes
        ("checker", lambda M: M),
        ("random-accretive", lambda M: M),
        # a nonsymmetric root of sym A = I: S S = I but S^T S is not
        ("rotation", lambda M: np.broadcast_to([[1.0, 0.5], [0.0, -1.0]], M.shape)),
    ], ids=["checker", "random-accretive", "rotation-involution"])
    def test_a_wrong_root_fails_the_arrangement_line(self, preset, wrong_root, monkeypatch):
        spec = make_scenario(preset, dim=2, N=12, p=4.0, T=0.1, steps=10)
        ev = hz.run_scenario(spec, embedding=False)
        rep, = hz.pointwise_check(ev, [spec.params])
        assert rep.margins["chain-rule-arrangements"] > 0.0
        monkeypatch.setattr(hz, "matrix_sqrt_spd", wrong_root)
        rep, = hz.pointwise_check(ev, [spec.params])
        assert rep.arrangement_gap > 1e-3
        assert rep.margins["chain-rule-arrangements"] < 0.0 and not rep.ok


class TestMollifiedPath:
    def test_chain_rule_matches_stack_oracle(self, monkeypatch):
        # nonsymmetric A with a nonconstant symmetric part in 2D: the masked
        # gathers of A and of the gradients must line up with the factored
        # arrangement
        spec = make_scenario("random-accretive", dim=2, N=16, p=3.0, T=0.1, steps=10)
        ev = hz.run_scenario(spec)
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        assert cr.n_mollified > 0
        assert cr.arrangement_gap <= 1e-10
        monkeypatch.setattr(hz, "mollified_form_coeffs", stack_mollified_form_coeffs)
        ref, = hz.chain_rule_rhs(ev, [spec.params])
        assert (np.abs(cr.rhs - ref.rhs) <= 1e-13 * np.maximum(1.0, np.abs(ref.rhs))).all()

    def test_chain_rule_is_phase_invariant(self):
        # Q depends on the moduli alone and the mollified form is taken in
        # each point's phase frame, so constant phases on f and g leave L'b
        # unchanged at exact and at mollified nodes
        spec = make_scenario("random-accretive", dim=2, N=16, p=3.0, T=0.1, steps=10)
        ev = hz.run_scenario(spec, embedding=False)
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        rotated = dataclasses.replace(ev, **{
            name: dataclasses.replace(traj, values=np.exp(1j * a) * traj.values)
            for name, traj, a in (("traj_f", ev.traj_f, 0.7), ("traj_g", ev.traj_g, -1.1))})
        rot, = hz.chain_rule_rhs(rotated, [spec.params])
        assert rot.n_mollified == cr.n_mollified > 0
        assert (np.abs(rot.rhs - cr.rhs) <= 1e-13 * np.abs(cr.rhs)).all()

    def test_mask_and_quadrature_share_one_scale(self):
        P = BellmanParams(4.0)
        u = np.array([1.0, 2.0, 0.5])
        v = np.array([1.0, 0.1, 0.5 ** 3])
        eps = hz._mollify_scale(u, v, 0.01)
        assert np.allclose(eps, [0.2, 0.045, 0.45 * 0.125], rtol=1e-15)
        assert hz._interface_margin_mask(P, u, v, eps, 2.0).tolist() == [True, False, True]

    @staticmethod
    def _temporary_peak(blocks):
        P = BellmanParams(4.0)
        rng = np.random.default_rng(blocks)
        k = blocks * bl._MOLLIFY_BLOCK
        v = np.exp(rng.uniform(-1.0, 1.0, k))
        u = v ** (P.q / P.p)
        eps = hz._mollify_scale(u, v, 0.01)
        bl._folded_rule()
        tracemalloc.start()
        try:
            out = bl.mollified_form_coeffs(P, u, v, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - sum(c.nbytes for c in out)

    def test_temporary_memory_independent_of_node_count(self):
        small = self._temporary_peak(2)
        large = self._temporary_peak(8)
        assert abs(large - small) <= 0.1 * small


class TestPointwise:
    def test_equal_data(self):
        spec = make_scenario("identity", N=96, p=4.0, T=0.3, equal=True)
        rep, = hz.pointwise_check(hz.run_scenario(spec), [spec.params])
        assert rep.ok

    def test_p2_vs_p8_same_scenario(self):
        for p in (2.0, 8.0):
            spec = make_scenario("identity", N=96, p=p, T=0.3)
            rep, = hz.pointwise_check(hz.run_scenario(spec), [spec.params])
            assert rep.ok, f"p={p}: worst {rep.worst_slack} vs eps {rep.eps_h}"

    def test_refinement_improves_floor(self):
        floors = []
        for N, steps in ((48, 100), (96, 100)):
            spec = make_scenario("identity", N=N, p=4.0, T=0.3, steps=steps)
            rep, = hz.pointwise_check(hz.run_scenario(spec), [spec.params])
            floors.append(min(rep.worst_slack, 0.0))
        assert floors[1] >= floors[0] - 1e-12


class TestSnapshotBlocks:
    @pytest.mark.parametrize("dim", [1, 2, 3], ids=lambda d: f"d={d}")
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.PERIODIC],
                             ids=lambda b: b.value)
    def test_blocked_walk_matches_one_block(self, dim, boundary, monkeypatch):
        preset, N = {1: ("checker", 48), 2: ("random-accretive", 12),
                     3: ("random-accretive", 6)}[dim]
        spec = make_scenario(preset, dim=dim, N=N, p=3.0, T=0.1, steps=24, boundary=boundary)
        ev = hz.run_scenario(spec, embedding=False)
        f, g = ev.traj_f.values, ev.traj_g.values
        nt, n = f.shape
        runs = []
        for values, blocks in ((2 ** 62, 1), (7 * n, -(-nt // 7))):
            monkeypatch.setattr(hz, "SNAPSHOT_BLOCK_VALUES", values)
            assert len(hz._snapshot_blocks(nt, n)) == blocks
            runs.append((*hz.chain_rule_rhs(ev, [spec.params]),
                         *hz.pointwise_check(ev, [spec.params])))
        assert nt % 7
        (cr1, pw1), (cr, pw) = runs
        u, v, _, _ = orc.phases(f, g)
        eps = hz._mollify_scale(u, v, min(spec.grid.spacing))
        mol = hz._interface_margin_mask(spec.params, u, v, eps, hz._modulus_scale(f, g))
        assert cr.n_mollified == cr1.n_mollified == pw.n_mollified == mol.sum() > 0
        assert cr.arrangement_gap == cr1.arrangement_gap == pw.arrangement_gap
        assert np.array_equal(pw.rhs, pw1.rhs)
        # mollified_form_coeffs groups the mollified nodes of each call in its
        # own blocks, which may round their last bit differently
        for fld, ref in ((cr.rhs, cr1.rhs), (pw.lhs, pw1.lhs), (pw.slack, pw1.slack)):
            assert np.array_equal(fld[~mol], ref[~mol])
            assert (np.abs(fld[mol] - ref[mol]) <= 1e-15 * np.abs(ref[mol])).all()
        assert pw.worst_slack == pytest.approx(pw1.worst_slack, rel=1e-15, abs=0.0)

    def test_pointwise_temporaries_scale_with_the_block(self):
        # 51 snapshots of 47^2 nodes: every temporary over all snapshots at
        # once would take about 170 block-sized complex arrays
        spec = make_scenario("random-accretive", dim=2, N=48, p=4.0, T=0.1, steps=50)
        ev = hz.run_scenario(spec, embedding=False)
        hz.pointwise_check(ev, [spec.params])
        tracemalloc.start()
        try:
            rep, = hz.pointwise_check(ev, [spec.params])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.n_mollified > 0
        # lhs, rhs and slack
        outputs = 3 * rep.lhs.nbytes
        assert outputs > 2 ** 20
        assert peak - outputs <= 64 * hz.SNAPSHOT_BLOCK_VALUES * 16


class TestEveryPInOneWalk:
    """``pointwise_check`` takes every p in one walk over the snapshot
    blocks: what does not depend on p is computed once per block."""

    @staticmethod
    def _mixed_pair(monkeypatch):
        # f real, g complex, in blocks of 7 snapshots
        spec = bump_pair_spec(phase_f=0.0)
        ev = hz.run_scenario(spec, embedding=False)
        assert not np.any(ev.traj_f.values.imag) and np.any(ev.traj_g.values.imag)
        monkeypatch.setattr(hz, "SNAPSHOT_BLOCK_VALUES", 7 * spec.grid.n_nodes)
        assert len(hz._snapshot_blocks(*ev.traj_f.values.shape)) >= 2
        return ev

    def test_every_p_at_once_matches_one_call_per_p(self, monkeypatch):
        ev = self._mixed_pair(monkeypatch)
        all_params = [BellmanParams(p) for p in (3.0, 4.0, 8.0)]
        together = hz.pointwise_check(ev, all_params)
        assert len(together) == 3
        for params, rep in zip(all_params, together):
            single, = hz.pointwise_check(ev, [params])
            assert rep.n_mollified == single.n_mollified > 0
            for name in ("lhs", "rhs", "slack"):
                assert np.array_equal(getattr(rep, name), getattr(single, name))
            assert rep.arrangement_gap == single.arrangement_gap
            assert rep.worst_slack == single.worst_slack
        assert together.n_mollified == sum(rep.n_mollified for rep in together)

    def test_p_free_work_runs_as_often_for_three_p_as_for_one(self, monkeypatch):
        ev = self._mixed_pair(monkeypatch)
        shared = ("grad4", "_star_sq", "matrix_sqrt_spd", "_modulus_scale", "_node_matvec")
        originals = {name: getattr(hz, name) for name in (*shared, "form_coeffs_and_drift")}
        counts = []
        for all_params in ([BellmanParams(3.0)], [BellmanParams(p) for p in (3.0, 4.0, 8.0)]):
            calls = dict.fromkeys(originals, 0)

            def counting(name):
                def wrapped(*args, **kwargs):
                    calls[name] += 1
                    return originals[name](*args, **kwargs)
                return wrapped

            for name in originals:
                monkeypatch.setattr(hz, name, counting(name))
            hz.pointwise_check(ev, all_params)
            counts.append(calls)
        one, three = counts
        assert one["grad4"] >= 2
        assert {name: three[name] for name in shared} == {name: one[name] for name in shared}
        # the Bellman tables are the per-p part
        assert three["form_coeffs_and_drift"] == 3 * one["form_coeffs_and_drift"]

    def test_a_scenario_built_at_p2_checks_p8(self):
        spec = make_scenario("checker", N=96, p=2.0, T=0.3)
        ev = hz.run_scenario(spec, embedding=False)
        spec8 = make_scenario("checker", N=96, p=8.0, T=0.3)
        ev8 = hz.run_scenario(spec8, embedding=False)
        reused, = hz.pointwise_check(ev, [BellmanParams(8.0)])
        direct, = hz.pointwise_check(ev8, [spec8.params])
        assert reused.n_mollified == direct.n_mollified > 0
        for name in ("lhs", "rhs", "slack"):
            assert np.array_equal(getattr(reused, name), getattr(direct, name))
        assert (hz.ibp_upper_check(ev, BellmanParams(8.0))
                == hz.ibp_upper_check(ev8, spec8.params))


class TestBilinear:
    def test_zero_datum(self):
        spec = make_scenario(N=32, steps=20)
        z = GridFunction(spec.grid, np.zeros(spec.grid.node_shape))
        spec = hz.ScenarioSpec(spec.name, spec.grid, spec.coefficients, spec.potential,
                               z, spec.g, spec.params, spec.timegrid, spec.solver)
        rep = hz.embedding_check(hz.run_scenario(spec), spec.params)
        assert rep.E_T == 0.0 and rep.tail == 0.0
        assert rep.lambda_star is None

    def test_zero_pair(self):
        # neither datum keeps a row, so every step's product is 0
        spec = make_scenario(N=32, steps=20)
        z = GridFunction(spec.grid, np.zeros(spec.grid.node_shape))
        ev = hz.run_scenario(dataclasses.replace(spec, f=z, g=z))
        assert not ev.traj_f.values.any() and not ev.traj_g.values.any()
        assert hz.embedding_check(ev, spec.params).E_T == 0.0

    def test_symmetry(self, evolved_identity_1d):
        ev = evolved_identity_1d
        swapped = dataclasses.replace(ev, traj_f=ev.traj_g, traj_g=ev.traj_f)
        a = hz.embedding_check(ev, ev.spec.params)
        b = hz.embedding_check(swapped, ev.spec.params)
        assert a.E_T == b.E_T

    def test_monotone_in_horizon(self, evolved_identity_1d):
        # E over [0, t_n] is the partial sum of the per-step products
        ev = evolved_identity_1d
        products = ev.step_products
        assert len(products) == ev.spec.timegrid.n_steps
        assert np.all(np.diff(np.cumsum(products)) >= 0.0)
        assert hz.embedding_check(ev, ev.spec.params).E_T == pytest.approx(
            np.cumsum(products)[-1], rel=1e-14)

    @pytest.mark.parametrize("block_values", [1, hz.SNAPSHOT_BLOCK_VALUES])
    def test_step_products_match_complex_star_norms(self, block_values, monkeypatch):
        # the hook sums each datum's squared star norm over its real rows;
        # an oracle takes the star norms of the complex solve outputs, in
        # blocks of one step (one product per row and axis) or of many
        spec = build_scenario(None, preset="random-accretive", dim=2, cells=(12, 12),
                              T=0.05, seed=2)
        f = GridFunction(spec.grid, spec.f.values * (0.6 - 0.8j))
        spec = hz.ScenarioSpec(spec.name, spec.grid, spec.coefficients, spec.potential,
                               f, spec.g, spec.params, spec.timegrid, spec.solver)
        monkeypatch.setattr(hz, "SNAPSHOT_BLOCK_VALUES", block_values)
        products, add_step = hz._embedding_hook(spec)
        outputs = []

        def both(x, datum):
            assert list(datum) == [0, 0, 1]     # f real, f imaginary, g real
            z = np.zeros((2, 2, spec.grid.n_nodes))
            z[datum, [0, 1, 0]] = x
            outputs.append(z[:, 0] + 1j * z[:, 1])
            add_step(x, datum)

        op = ops.assemble(spec.grid, spec.coefficients, spec.potential)
        evolve(op, (spec.f, spec.g), spec.timegrid, spec.solver, on_step=both)
        w = spec.timegrid.dt * spec.grid.cell_volume
        for n, z in enumerate(outputs):
            s = orc.star_norm_field(spec.grid, z, spec.potential)
            assert products[n] == pytest.approx(w * np.sum(s[0] * s[1]), rel=1e-13)

    def test_trajectories_without_the_pair_products_raise(self, evolved_identity_1d):
        ev = evolved_identity_1d
        spec, op = ev.spec, ev.op
        separate = [evolve(op, f, spec.timegrid, TIGHT) for f in (spec.f, spec.g)]
        other = hz.run_scenario(spec)
        for tf, tg in (separate, (ev.traj_f, ev.traj_f), (ev.traj_f, other.traj_g)):
            with pytest.raises(DivbellError):
                hz.embedding_check(hz.EvolvedScenario(spec, op, tf, tg), spec.params)

    def test_run_without_the_embedding_hook(self, evolved_identity_1d):
        # pointwise and ibp evolve without star norms: the same trajectories,
        # and no products for embedding_check to read as 0
        ev = evolved_identity_1d
        plain = hz.run_scenario(ev.spec, embedding=False)
        assert plain.step_products is None
        for a, b in ((plain.traj_f, ev.traj_f), (plain.traj_g, ev.traj_g)):
            assert np.array_equal(a.values, b.values) and np.array_equal(a.times, b.times)
        with pytest.raises(DomainError):
            hz.embedding_check(plain, ev.spec.params)

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_exponent_argument_matches_a_scenario_built_at_p(self, evolved_identity_1d, p):
        # the exponent is the check's argument: a scenario built at p = 2
        # and checked at p reads what one built at p reads
        ev = evolved_identity_1d
        assert ev.spec.params.p == 2.0
        spec_p = make_scenario("identity", p=p, T=0.5, steps=250)
        reused = hz.embedding_check(ev, BellmanParams(p))
        direct = hz.embedding_check(hz.run_scenario(spec_p), spec_p.params)
        assert reused.E_T > 0.0
        assert reused == direct

    @pytest.mark.parametrize("dim,N", [(1, 96), (2, 32)])
    def test_periodic_energy_identity(self, dim, N):
        # A = I, V = 0, f = g on a periodic grid: every face feeds two nodes,
        # so sum_x w |x|_*^2 = Re <L_h x, x>_w, and the Crank-Nicolson energy
        # identity sums E_T to (||f||^2 - ||f^N||^2) / 2
        spec = make_scenario("identity", dim=dim, N=N, T=0.2, steps=100, equal=True,
                             boundary=Boundary.PERIODIC)
        spec = hz.ScenarioSpec(spec.name, spec.grid, spec.coefficients, spec.potential,
                               spec.f, spec.g, spec.params, spec.timegrid,
                               SolverConfig(tol=1e-13))
        ev = hz.run_scenario(spec)
        assert ev.op.coefficients.gamma == 1.0 and not np.any(ev.op.potential)
        w = spec.grid.cell_volume
        exact = 0.5 * w * (np.linalg.norm(spec.f.flat) ** 2
                           - np.linalg.norm(ev.traj_f.values[-1]) ** 2)
        rep = hz.embedding_check(ev, spec.params)
        assert rep.E_T == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER])
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.PERIODIC])
    @pytest.mark.parametrize("preset", ps.PRESET_NAMES)
    def test_energy_bound_is_a_theorem_of_the_scheme(self, preset, boundary, scheme):
        # E_T + tail <= ||f||_2 ||g||_2 / (2 min(1, gamma)) for every p
        spec = make_scenario(preset, dim=2, N=12, p=4.0, T=0.3, steps=40,
                             boundary=boundary, scheme=scheme)
        ev = hz.run_scenario(spec)
        rep = hz.embedding_check(ev, spec.params)
        bound = spec.f.norm(2.0) * spec.g.norm(2.0) / (2.0 * min(1.0, ev.op.coefficients.gamma))
        assert rep.energy_bound == pytest.approx(bound, rel=1e-15)
        assert rep.E_T + rep.tail <= bound + rep.quad_error_est
        assert rep.margins["embedding-energy-bound"] > 0.0
        assert rep.energy_margin == bound - (rep.E_T + rep.tail)
        assert 0.0 < rep.quad_error_est <= 1e-6 * bound

    def test_rough_data_respect_the_p2_bound(self):
        # f = g = bump * tanh(20 sin 6x): a snapshot trapezoid read
        # p * ratio = 0.714 here, above the 1/2 the scheme cannot exceed
        spec = build_scenario(preset="identity", dim=1, cells=(256,), p=2.0)
        x = spec.grid.node_coords()[0]
        f = GridFunction(spec.grid, ps.make_bump(spec.grid, 0.0, 1.5).values
                         * np.tanh(20.0 * np.sin(6.0 * x)))
        spec = hz.ScenarioSpec(spec.name, spec.grid, spec.coefficients, spec.potential,
                               f, f, spec.params, spec.timegrid, spec.solver)
        ev = hz.run_scenario(spec)
        rep = hz.embedding_check(ev, spec.params)
        assert ev.op.coefficients.gamma == 1.0
        assert 2.0 * rep.ratio_empirical <= 0.5 + rep.quad_error_est / (
            rep.norm_f_p * rep.norm_g_q)
        assert rep.ok


class TestPolarize:
    def test_symmetric_case(self):
        res = orc.polarize(1.0, 1.0, 2.0)
        assert res.lambda_star == pytest.approx(1.0)
        assert res.value == pytest.approx(2.0)

    def test_value_depends_on_product_at_p2(self):
        a = orc.polarize(4.0, 0.25, 2.0).value
        b = orc.polarize(1.0, 1.0, 2.0).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_degenerate(self):
        res = orc.polarize(0.0, 1.0, 2.0)
        assert res.degenerate and res.value == 0.0 and res.lambda_star is None

    @pytest.mark.parametrize("p,a,b", [(2.0, 1.7, 0.4), (3.0, 0.9, 2.2), (8.0, 3.0, 0.1)])
    def test_golden_section_oracle(self, p, a, b):
        # independent 1-D minimization of lambda^p a + lambda^(-q) b
        q = p / (p - 1.0)

        def obj(lam):
            return lam ** p * a + lam ** (-q) * b

        lo, hi = 1e-4, 1e4
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        llo, lhi = np.log(lo), np.log(hi)
        for _ in range(120):
            x1 = lhi - invphi * (lhi - llo)
            x2 = llo + invphi * (lhi - llo)
            if obj(np.exp(x1)) < obj(np.exp(x2)):
                lhi = x2
            else:
                llo = x1
        lam_num = np.exp(0.5 * (llo + lhi))
        res = orc.polarize(a, b, p)
        assert res.lambda_star == pytest.approx(lam_num, rel=1e-8)
        assert res.value == pytest.approx(obj(lam_num), rel=1e-10)
        # closed form of the optimal value
        nf = a ** (1.0 / p)
        ng = b ** (1.0 / q)
        closed = nf * ng * ((q / p) ** (1.0 / q) + (p / q) ** (1.0 / p))
        assert res.value == pytest.approx(closed, rel=1e-12)


class TestEmbedding:
    def test_margins_positive(self, evolved_identity_1d):
        rep = hz.embedding_check(evolved_identity_1d, evolved_identity_1d.spec.params)
        assert rep.ok
        assert rep.sum_margin > 0 and rep.product_margin > 0

    def test_p2_equal_data_constant_is_two(self):
        # p = 2, f = g: the sum bound is max(1, 1/gamma) * 2 * ||f||_2^2
        spec = make_scenario("identity", N=96, p=2.0, T=0.5, steps=250, equal=True)
        ev = hz.run_scenario(spec)
        rep = hz.embedding_check(ev, spec.params)
        assert rep.sum_bound == pytest.approx(2.0 * 2.0 * spec.f.norm(2.0) ** 2, rel=1e-12)
        assert rep.ok

    def test_gamma_degradation(self):
        # scaling A by 1/4 scales gamma to 1/4 and the bound by 4; it must
        # still hold
        spec = make_scenario("identity", N=96, p=2.0, T=0.5, steps=250)
        weak = ops.CoefficientField(spec.grid, 0.25 * spec.coefficients.values)
        spec2 = hz.ScenarioSpec(spec.name, spec.grid, weak, spec.potential,
                                spec.f, spec.g, spec.params, spec.timegrid,
                                spec.solver, spec.cutoff_radii)
        ev = hz.run_scenario(spec2)
        rep = hz.embedding_check(ev, spec2.params)
        assert ev.op.coefficients.gamma == pytest.approx(0.25, rel=1e-12)
        assert rep.ok

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    def test_lambda_star_minimizes_the_polarization(self, evolved_identity_1d, p):
        # lambda* and the product bound against the polarization oracle of
        # a = ||f||_p^p and b = ||g||_q^q
        params = BellmanParams(p)
        rep = hz.embedding_check(evolved_identity_1d, params)
        a, b = rep.norm_f_p ** p, rep.norm_g_q ** params.q
        pol = orc.polarize(a, b, p)
        assert rep.lambda_star == pytest.approx(pol.lambda_star, rel=1e-14)
        assert rep.product_bound == pytest.approx(rep.sum_bound / (a + b) * pol.value,
                                                  rel=1e-12)

    def test_lambda_star_direct_formula_at_p4(self, evolved_identity_1d):
        ev = evolved_identity_1d
        params = BellmanParams(4.0)
        rep = hz.embedding_check(ev, params)
        p, q = params.p, params.q
        a, b = rep.norm_f_p ** p, rep.norm_g_q ** q
        assert rep.lambda_star == pytest.approx((q * b / (p * a)) ** (1.0 / (p + q)),
                                                rel=1e-15)

    def test_lambda_star_finite_at_large_p(self, evolved_identity_1d):
        # ||f||_p^p underflows to 0 at p = 7500; the stationarity condition
        # of lam^p a + lam^(-q) b, in logarithms, still holds at lambda*
        ev = evolved_identity_1d
        params = BellmanParams(7500.0)
        rep = hz.embedding_check(ev, params)
        p, q = params.p, params.q
        assert rep.norm_f_p ** p == 0.0
        lam = rep.lambda_star
        assert lam is not None and np.isfinite(lam)
        lhs = np.log(p) + p * np.log(rep.norm_f_p) + p * np.log(lam)
        rhs = np.log(q) + q * np.log(rep.norm_g_q) - q * np.log(lam)
        assert abs(lhs - rhs) <= 1e-12


class TestCutoffAndIbp:
    def test_cutoff_profile(self):
        g = Grid(cells=(128,), lo=(-4.0,), hi=(4.0,), boundary=Boundary.DIRICHLET)
        vals = hz.cutoff_values(g, 1.0)
        x = g.node_coords()[0]
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(vals[np.abs(x) <= 1.0] == 1.0)
        assert np.all(vals[np.abs(x) >= 2.0] == 0.0)
        # numerical gradient bounded by the advertised (15/8)/R
        dv = np.abs(np.diff(vals)) / g.spacing[0]
        assert dv.max() <= 1.875 * (1 + 1e-6)

    def test_geometry_error(self, evolved_identity_1d):
        with pytest.raises(GeometryError):
            hz.ibp_upper_check(with_radii(evolved_identity_1d, (3.0,)), BellmanParams(2.0))

    @pytest.mark.parametrize("radii", [(), (1.0,), (1.5, 1.5)], ids=["none", "one", "repeated"])
    def test_fewer_than_two_distinct_radii_raise(self, evolved_identity_1d, radii):
        with pytest.raises(DomainError, match="two or more distinct cutoff radii"):
            hz.ibp_upper_check(with_radii(evolved_identity_1d, radii), BellmanParams(2.0))

    def test_radii_are_read_in_ascending_order(self, evolved_identity_1d):
        # the eps and flux margins compare neighbouring radii and the first
        # with the last; descending radii read as ascending ones
        ev = evolved_identity_1d
        up = hz.ibp_upper_check(with_radii(ev, (1.0, 1.5, 2.0)), ev.spec.params)
        assert up.ok
        for radii in ((2.0, 1.5, 1.0), (1.5, 2.0, 1.0)):
            assert hz.ibp_upper_check(with_radii(ev, radii), ev.spec.params) == up

    def test_discrete_decomposition_is_exact(self, evolved_identity_1d):
        # I_RT splits exactly into time term + annulus flux + potential term
        # (summation by parts is an identity for G^T A_h G)
        rep = hz.ibp_upper_check(evolved_identity_1d, evolved_identity_1d.spec.params)
        for r in rep.rows:
            total = r.time_term + r.flux_term + r.potential_term
            assert r.I_RT == pytest.approx(total, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_flux_kernel_matches_the_face_form(self, dim, boundary):
        # ibp's flux kernel (L_h^T - V) psi_R is G^T A_h^T G psi_R, A_h the
        # oracle's face matrix, with V != 0 and, from 2D, a nonsymmetric L_h
        spec = make_scenario("random-accretive", dim=dim, N=(40, 16, 8)[dim - 1],
                             boundary=boundary)
        op = ops.assemble(spec.grid, spec.coefficients, spec.potential)
        assert op.potential.max() > 0.0
        assert dim == 1 or abs(op.matrix - op.matrix.T).max() > 0.0
        G, Ah = op.gradient, orc.face_action(spec.grid, spec.coefficients)
        for R in spec.cutoff_radii[:2]:
            psi = hz.cutoff_values(spec.grid, R).ravel()
            ref = G.T @ (Ah.T @ (G @ psi))
            got = op.matrix.T @ psi - op.potential * psi
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_flux_matches_the_per_snapshot_loop(self):
        ev = hz.run_scenario(make_scenario("rotation", dim=2, N=24, steps=60))
        rep = hz.ibp_upper_check(ev, ev.spec.params)
        op, w = ev.op, ev.spec.grid.cell_volume
        Ah = orc.face_action(ev.spec.grid, op.coefficients)
        b = hz.compose_b(ev, ev.spec.params)
        for r in rep.rows:
            gpsi = op.gradient @ hz.cutoff_values(ev.spec.grid, r.R).ravel()
            loop = np.trapezoid(w * np.array([np.dot(gpsi, Ah @ (op.gradient @ bk))
                                              for bk in b]), ev.traj_f.times)
            assert r.flux_term == pytest.approx(loop, rel=1e-13)

    def test_I_RT_matches_the_full_field_route(self, evolved_accretive_2d):
        # oracle: the exact time term w psi_R^T (b(T) - b(0)), plus L_h b and
        # V b as (nt, n) fields, weighted by psi_R and summed over the nodes,
        # then the trapezoid; V != 0 here
        ev = evolved_accretive_2d
        rep = hz.ibp_upper_check(ev, ev.spec.params)
        times = ev.traj_f.times
        b = hz.compose_b(ev, ev.spec.params)
        w = ev.spec.grid.cell_volume
        for r in rep.rows:
            psi = hz.cutoff_values(ev.spec.grid, r.R).ravel()
            time_term = w * psi @ (b[-1] - b[0])
            lb, vb = (np.trapezoid(w * (psi[None, :] * fld).sum(axis=1), times)
                      for fld in ((ev.op.matrix @ b.T).T, ev.op.potential * b))
            for value, oracle in ((r.I_RT, time_term + lb), (r.time_term, time_term),
                                  (r.potential_term, vb)):
                assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)
            assert r.potential_term < -1e-3 * abs(r.I_RT)

    def test_temporaries_scale_with_the_block(self):
        # the peak over 201 snapshots of 47^2 nodes exceeds the peak over
        # their first 51 by a small part of the extra trajectory: no
        # temporary spans it, such as an (nt, n) field of b or L'b
        spec = make_scenario("random-accretive", dim=2, N=48, p=4.0, T=0.1)
        spec = dataclasses.replace(spec, timegrid=TimeGrid(dt=spec.timegrid.dt, T=0.1))
        ev = hz.run_scenario(spec, embedding=False)
        short = with_snapshots(ev, slice(0, 51))
        peaks = []
        for run in (short, ev):
            hz.ibp_upper_check(run, spec.params)
            tracemalloc.start()
            try:
                hz.ibp_upper_check(run, spec.params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_field = (len(ev.traj_f.times) - len(short.traj_f.times)) * spec.grid.n_nodes * 8
        assert extra_field > 2 ** 21
        assert peaks[1] - peaks[0] <= 0.05 * extra_field

    def test_the_end_snapshots_give_the_time_term(self, evolved_identity_1d):
        # the time term reads b(0) and b(T) alone, bit for bit
        ev = evolved_identity_1d
        full = hz.ibp_upper_check(ev, ev.spec.params)
        ends = hz.ibp_upper_check(with_snapshots(ev, [0, -1]), ev.spec.params)
        assert [r.time_term for r in ends.rows] == [r.time_term for r in full.rows]
        assert ends.nodewise_initial_margin == full.nodewise_initial_margin
        assert ends.final_nonpositive_margin == full.final_nonpositive_margin

    def test_nonuniform_times_reduce(self, evolved_identity_1d):
        # snapshots at steps 0, 1, 2, 4, ..., 32 and the last: the flux and
        # potential terms are trapezoids over whatever times they are given
        ev = evolved_identity_1d
        sub = with_snapshots(ev, [0, 1, 2, 4, 8, 16, 32, -1])
        times = sub.traj_f.times
        assert np.ptp(np.diff(times)) > 0.0
        rep = hz.ibp_upper_check(sub, ev.spec.params)
        assert rep.ok
        b, w = hz.compose_b(sub, ev.spec.params), ev.spec.grid.cell_volume
        full = hz.ibp_upper_check(ev, ev.spec.params)
        for r, rf in zip(rep.rows, full.rows):
            assert r.time_term == rf.time_term
            psi = hz.cutoff_values(ev.spec.grid, r.R).ravel()
            flux = np.trapezoid(w * (b @ (ev.op.matrix.T @ psi - ev.op.potential * psi)), times)
            assert r.flux_term == pytest.approx(flux, rel=1e-12)

    @pytest.mark.parametrize("cell", ["identity-1d", "accretive-2d"])
    def test_doubled_initial_snapshot_fails_the_bound(self, cell, request):
        # negative control: b(0) from 2f while the bound reads f, so the time
        # term's -b(0) outgrows ||f||_p^p + ||g||_q^q at every R
        ev = request.getfixturevalue({"identity-1d": "evolved_identity_1d",
                                      "accretive-2d": "evolved_accretive_2d"}[cell])
        values = ev.traj_f.values.copy()
        values[0] *= 2.0
        tf = Trajectory(ev.traj_f.grid, ev.traj_f.times, values)
        rep = hz.ibp_upper_check(hz.EvolvedScenario(ev.spec, ev.op, tf, ev.traj_g),
                                 ev.spec.params)
        upper = [m for name, m in rep.margins.items() if name.startswith("ibp-upper-bound")]
        assert len(upper) == len(ev.spec.cutoff_radii)
        assert max(upper) < 0.0

    def test_report(self, evolved_identity_1d):
        rep = hz.ibp_upper_check(evolved_identity_1d, evolved_identity_1d.spec.params)
        assert rep.ok
        assert rep.final_nonpositive_margin > 0.0 and rep.nodewise_initial_margin > 0.0
        eps = [r.eps_R for r in rep.rows]
        assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(eps, eps[1:]))
        flux = [abs(r.flux_term) for r in rep.rows]
        assert flux[0] >= 2.0 * flux[-1]
        for r in rep.rows:
            assert r.potential_term <= 1e-15


@pytest.fixture(scope="module")
def setup_1d():
    g = Grid(cells=(256,), lo=(-8.0,), hi=(8.0,), boundary=Boundary.DIRICHLET)
    L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    datum = ps.make_bump(g, 0.0, 0.5, 1.0)
    return g, L, datum


class TestOffdiag:

    def test_all_three_operators_fit(self, setup_1d):
        g, L, datum = setup_1d
        reps = hz.offdiag_check(L, datum, 0.0, 0.5, (0.75, 1.25, 1.75, 2.25),
                                band_width=1.0, ts=(0.1, 0.2, 0.4))
        assert tuple(rep.operator for rep in reps) == hz.OFFDIAG_OPERATORS
        for rep in reps:
            assert rep.ok, (rep.operator, rep.slope, rep.r_squared)

    def test_floor_exclusion(self, setup_1d):
        g, L, datum = setup_1d
        # t small and d large pushes the ratio under the floating floor
        rep, *_ = hz.offdiag_check(L, datum, 0.0, 0.5, (1.0, 5.5), band_width=1.0,
                                   ts=(0.02, 0.3))
        assert rep.n_excluded >= 1
        excl = [s for s in rep.samples if s.excluded]
        assert all(s.ratio <= 1e-12 for s in excl)

    def test_monotone_in_distance(self, setup_1d):
        g, L, datum = setup_1d
        rep, *_ = hz.offdiag_check(L, datum, 0.0, 0.5, (0.75, 1.25, 1.75, 2.25),
                                   band_width=1.0, ts=(0.2,))
        ratios = [s.ratio for s in rep.samples]
        assert all(r1 < r0 for r0, r1 in zip(ratios, ratios[1:]))


class TestSquareFunction:
    def test_zero_datum(self):
        g = Grid(cells=(32,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        res = orc.square_function(L, GridFunction(g, np.zeros(g.node_shape)), T=0.02, dt=0.001)
        assert np.all(res.values.values == 0.0)

    def test_eigenmode_identity(self):
        # G u = |grad_h u| / sqrt(2 lambda) on a discrete Fourier mode
        g = Grid(cells=(64,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        h = g.spacing[0]
        x = g.node_coords()[0]
        k = 2
        lam = 2 * (1 - np.cos(2 * np.pi * k * h)) / h ** 2
        u = GridFunction(g, np.exp(2j * np.pi * k * x))
        T = 12.0 / (2 * lam)
        res = orc.square_function(L, u, T=T, dt=T / 1200)
        # |grad_h u| is constant sqrt(lambda) for a mode, so G = 1/sqrt(2)
        expected = 1.0 / np.sqrt(2.0)
        rel = np.abs(res.values.values.real - expected).max() / expected
        assert rel <= 1e-3

    def test_p_sweep_ratios_recorded(self):
        g = Grid(cells=(64,), lo=(-4.0,), hi=(4.0,), boundary=Boundary.DIRICHLET)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        u = ps.make_bump(g, 0.0, 1.2, 1.0)
        res = orc.square_function(L, u, T=1.0, dt=0.005)
        ratios = {p: res.values.norm(p) / u.norm(p) for p in (2.0, 3.0, 4.0, 8.0)}
        assert all(np.isfinite(v) and v > 0 for v in ratios.values())


class TestRunScenarios:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_cells_match_single_runs(self, seed):
        # the ten sweep cells in one batch against one run_scenario each
        specs = [build_scenario(None, preset=preset, dim=dim,
                                cells=(96,) if dim == 1 else (16,) * dim, p=4.0, T=0.3,
                                seed=seed)
                 for preset in ps.PRESET_NAMES for dim in (1, 2)]
        for spec, ev in zip(specs, hz.run_scenarios(specs), strict=True):
            single = hz.run_scenario(spec)
            assert ev.spec is spec
            for traj, ref, f in ((ev.traj_f, single.traj_f, spec.f),
                                 (ev.traj_g, single.traj_g, spec.g)):
                assert traj.values.dtype == ref.values.dtype
                assert np.abs(traj.values - ref.values).max() <= 1e-15 * np.abs(f.values).max()
                assert [(st.method, st.iterations) for st in traj.stats] == \
                    [(st.method, st.iterations) for st in ref.stats]
            np.testing.assert_allclose(ev.step_products, single.step_products,
                                       rtol=1e-15, atol=0.0)

    def test_a_batch_shares_one_time_grid_and_solver(self):
        spec = make_scenario("identity", steps=20)
        other = make_scenario("rotation", dim=2, N=16, steps=20)
        evs = hz.run_scenarios([spec, other], embedding=False)
        assert all(ev.spec is s for ev, s in zip(evs, (spec, other), strict=True))
        assert all(ev.step_products is None for ev in evs)
        for changed in (dataclasses.replace(other, timegrid=make_scenario(steps=30).timegrid),
                        dataclasses.replace(other, solver=SolverConfig(tol=1e-11))):
            with pytest.raises(DomainError, match="TimeGrid"):
                hz.run_scenarios([spec, changed])
        with pytest.raises(DomainError):
            hz.run_scenarios([])


class TestRealData:
    @pytest.mark.parametrize("preset", ps.PRESET_NAMES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_trajectories_are_float64(self, preset, dim):
        # every preset's data are real bumps and its A is real, so no
        # trajectory stores an imaginary part
        spec = build_scenario(None, preset=preset, dim=dim,
                              cells=((16,), (8, 8), (8, 8, 8))[dim - 1], T=0.01, dt=0.005)
        assert spec.f.values.dtype == spec.g.values.dtype == np.float64
        ev = hz.run_scenario(spec)
        assert ev.traj_f.values.dtype == ev.traj_g.values.dtype == np.float64


class TestComplexData:
    def test_full_chain_with_complex_phases(self):
        spec = bump_pair_spec()
        ev = hz.run_scenario(spec)
        rep, = hz.pointwise_check(ev, [spec.params])
        assert rep.ok
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        assert hz.chain_rule_identity_error(ev, spec.params, cr) < 0.1
        emb = hz.embedding_check(ev, spec.params)
        assert emb.ok


class TestScenarioValidation:
    def test_support_margin_enforced(self):
        g = Grid(cells=(64,), lo=(-4.0,), hi=(4.0,), boundary=Boundary.DIRICHLET)
        f = ps.make_bump(g, 3.0, 0.8, 1.0)  # hugs the boundary
        gg = ps.make_bump(g, 0.0, 0.8, 1.0)
        with pytest.raises(DomainError, match="support"):
            hz.ScenarioSpec("bad", g, ops.CoefficientField.identity(g),
                            ops.PotentialField.zero(g), f, gg, BellmanParams(2.0),
                            TimeGrid(dt=0.01, T=0.1))
