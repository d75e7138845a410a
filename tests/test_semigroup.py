"""Tests for the implicit time stepping, solvers, and the dense oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

import divbell.operators as ops
import divbell.semigroup as sg
from divbell.errors import ConvergenceError, DomainError
from divbell.grids import Boundary, Grid, GridFunction
from divbell.scenario import build_scenario
from oracles import advance_complex


def bump(x, center=0.0, radius=1.0, amp=1.0):
    r2 = ((x - center) / radius) ** 2
    out = np.zeros_like(x)
    inside = r2 < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def identity_op(grid):
    return ops.assemble(grid, ops.CoefficientField.identity(grid),
                        ops.PotentialField.zero(grid))


TIGHT = sg.SolverConfig(tol=1e-13)


def one_step(L, u, dt, scheme=sg.Scheme.BACKWARD_EULER):
    """u advanced by one implicit step of size dt, as a flat node array."""
    return sg.evolve(L, u, sg.TimeGrid(dt=dt, T=dt, scheme=scheme), TIGHT).values[-1]


class TestStep:
    def test_kernel_fixed_point(self):
        g = Grid(cells=(16,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = identity_op(g)
        u = GridFunction(g, np.full(g.node_shape, 2.0 + 0j))
        for scheme in sg.Scheme:
            u1 = one_step(L, u, 0.05, scheme)
            assert np.abs(u1 - u.flat).max() <= 1e-12

    def test_backward_euler_fourier_factor(self):
        g = Grid(cells=(32,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = identity_op(g)
        h = g.spacing[0]
        x = g.node_coords()[0]
        dt = 2e-3
        for k in (1, 2, 5):
            lam = 2.0 * (1.0 - np.cos(2 * np.pi * k * h)) / h ** 2
            u = GridFunction(g, np.exp(2j * np.pi * k * x))
            u1 = one_step(L, u, dt)
            assert np.abs(u1 - u.flat / (1 + dt * lam)).max() <= 1e-11

    def test_potential_damps_l2(self):
        g = Grid(cells=(24,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        A = ops.CoefficientField.identity(g)
        V = ops.PotentialField(g, g.node_coords()[0] ** 2)
        L = ops.assemble(g, A, V)
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = GridFunction(g, rng.standard_normal(g.node_shape))
            u1 = GridFunction(g, one_step(L, u, 0.01))
            assert u1.norm(2) <= u.norm(2) * (1 + 1e-12)

    def test_energy_dissipation_one_step(self):
        # ||u||^2 - ||u'||^2 >= 2 dt (gamma ||G u'||^2 + <V u', u'>)
        g = Grid(cells=(20,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        V = ops.PotentialField(g, 1.0 + 0.5 * np.cos(g.node_coords()[0]))
        L = ops.assemble(g, ops.CoefficientField.identity(g), V)
        rng = np.random.default_rng(1)
        w = g.cell_volume
        for _ in range(10):
            u = GridFunction(g, rng.standard_normal(g.node_shape))
            dt = 0.01
            u1 = GridFunction(g, one_step(L, u, dt))
            drop = u.norm(2) ** 2 - u1.norm(2) ** 2
            G = L.gradient
            gamma = L.coefficients.gamma
            diss = 2 * dt * (gamma * w * np.vdot(G @ u1.flat, G @ u1.flat).real
                             + w * np.vdot(u1.flat, L.potential * u1.flat).real)
            assert drop >= diss - 1e-10 * max(abs(drop), 1.0)


class TestEvolve:
    def test_t0_snapshot_exact(self):
        g = Grid(cells=(16,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x, radius=0.8))
        tg = sg.TimeGrid(dt=0.01, T=0.01)
        traj = sg.evolve(L, f, tg, TIGHT)
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.values[0], f.flat)

    def test_zero_imaginary_part_evolves_real(self):
        g = Grid(cells=(16,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        f = bump(g.node_coords()[0], radius=0.8)
        tg = sg.TimeGrid(dt=0.01, T=0.05)
        real = sg.evolve(identity_op(g), GridFunction(g, f), tg, TIGHT)
        zero_imag = sg.evolve(identity_op(g), GridFunction(g, f + 0j), tg, TIGHT)
        assert real.values.dtype == zero_imag.values.dtype == np.float64
        assert np.array_equal(zero_imag.values, real.values)

    def test_imaginary_datum_stays_complex(self):
        # its one row is an imaginary part; the real part stays exactly 0
        g = Grid(cells=(16,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        f = bump(g.node_coords()[0], radius=0.8)
        tg = sg.TimeGrid(dt=0.01, T=0.05)
        real = sg.evolve(identity_op(g), GridFunction(g, f), tg, TIGHT)
        imag = sg.evolve(identity_op(g), GridFunction(g, 1j * f), tg, TIGHT)
        assert (real.values.dtype, imag.values.dtype) == (np.float64, np.complex128)
        assert not imag.values.real.any()
        assert np.array_equal(imag.values.imag, real.values)

    def test_rejects_zero_horizon(self):
        with pytest.raises(DomainError, match="0 < dt <= T"):
            sg.TimeGrid(dt=0.01, T=0.0)

    def test_semigroup_property(self):
        g = Grid(cells=(24,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x, radius=0.9))
        dt = 0.005
        full = sg.evolve(L, f, sg.TimeGrid(dt=dt, T=0.1), TIGHT)
        half = sg.evolve(L, f, sg.TimeGrid(dt=dt, T=0.05), TIGHT)
        rest = sg.evolve(L, GridFunction(g, half.values[-1]), sg.TimeGrid(dt=dt, T=0.05), TIGHT)
        assert np.abs(rest.values[-1] - full.values[-1]).max() <= 1e-10

    def test_dirichlet_l2_decay_monotone(self):
        g = Grid(cells=(24,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        V = ops.PotentialField(g, g.node_coords()[0] ** 2)
        L = ops.assemble(g, ops.CoefficientField.identity(g), V)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x, radius=0.9))
        traj = sg.evolve(L, f, sg.TimeGrid(dt=0.01, T=0.3), TIGHT)
        norms = np.linalg.norm(traj.values, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_snapshot_times_subset_of_multiples(self):
        tg = sg.TimeGrid(dt=0.01, T=0.1, snapshot_stride=3)
        times = tg.snapshot_steps() * tg.dt
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.1)
        assert np.allclose(np.round(times / 0.01) * 0.01, times)

    def test_rejects_nonmultiple_horizon(self):
        with pytest.raises(DomainError):
            sg.TimeGrid(dt=0.03, T=0.1)


def random_accretive(dim, cells, seed=3):
    spec = build_scenario(None, preset="random-accretive", dim=dim, cells=(cells,) * dim,
                          seed=seed)
    return spec, ops.assemble(spec.grid, spec.coefficients, spec.potential)


class TestBlockEvolution:
    def test_direct_matches_krylov(self, monkeypatch):
        spec, L = random_accretive(2, 16)
        assert L.n <= sg.DIRECT_LIMIT
        assert abs(L.matrix - L.matrix.T).max() > 0.0
        data = (GridFunction(spec.grid, spec.f.values * (1 + 2j)), spec.g)
        tg = sg.TimeGrid(dt=0.01, T=0.1, snapshot_stride=2)
        direct = sg.evolve(L, data, tg, sg.SolverConfig(tol=1e-12))
        monkeypatch.setattr(sg, "DIRECT_LIMIT", 0)
        krylov = sg.evolve(L, data, tg, sg.SolverConfig(tol=1e-12))
        assert direct.values.shape == (2, len(tg.snapshot_steps()), L.n)
        assert {st.method for st in direct.stats} == {"splu"}
        assert all(st.iterations == 0 for st in direct.stats)
        assert {st.method for st in krylov.stats} <= {"bicgstab", "gmres"}
        assert all(st.iterations > 0 for st in krylov.stats)
        for k, f in enumerate(data):
            assert np.array_equal(direct.values[k, 0], f.flat)
            rel = (np.linalg.norm(direct.values[k] - krylov.values[k], axis=1)
                   / np.linalg.norm(krylov.values[k], axis=1))
            assert rel.max() <= 1e-8, k

    @pytest.mark.parametrize("dim, cells, direct", [(2, 32, True), (3, 9, True), (3, 10, False)])
    def test_direct_limit_by_dimension(self, dim, cells, direct):
        # SuperLU's fill-in loses to Krylov from 729 unknowns in 3D, and
        # only above 961 in 2D
        _, L = random_accretive(dim, cells)
        stepper = sg._LinearStep([L], 0.01, sg.Scheme.CRANK_NICOLSON, sg.SolverConfig())
        assert (stepper.lu is not None) == direct

    @pytest.mark.parametrize("scheme", list(sg.Scheme))
    def test_step_matrix_on_the_operators_pattern(self, scheme):
        # I + theta dt L_h reuses L_h's indices and indptr; only data is new
        _, L = random_accretive(3, 10)
        stepper = sg._LinearStep([L], 0.01, scheme, sg.SolverConfig())
        lhs = stepper.krylov[0].lhs
        theta = 0.5 if scheme is sg.Scheme.CRANK_NICOLSON else 1.0
        ref = (sp.identity(L.n, format="csr") + theta * 0.01 * L.matrix).tocsr()
        assert np.shares_memory(lhs.indices, L.matrix.indices)
        assert np.shares_memory(lhs.indptr, L.matrix.indptr)
        assert not np.shares_memory(lhs.data, L.matrix.data)
        assert np.array_equal(lhs.indices, ref.indices)
        assert np.array_equal(lhs.indptr, ref.indptr)
        assert lhs.data.tobytes() == ref.data.tobytes()

    def test_krylov_pair_equals_single_evolutions(self):
        # above the cutoff each column runs its own Krylov solves, so a pair
        # reproduces the floats and the iteration counts of two evolutions
        spec, L = random_accretive(3, 12)
        assert L.n > sg.DIRECT_LIMIT
        tg = sg.TimeGrid(dt=0.01, T=0.05)
        pair = sg.evolve(L, (spec.f, spec.g), tg)
        singles = [sg.evolve(L, f, tg) for f in (spec.f, spec.g)]
        for k, single in enumerate(singles):
            assert np.array_equal(pair.values[k], single.values)
            assert np.array_equal(pair.times, single.times)
        for st, sf, sg_ in zip(pair.stats, *(t.stats for t in singles), strict=True):
            assert st.iterations == sf.iterations + sg_.iterations > 0
            assert st.residual == pytest.approx(max(sf.residual, sg_.residual), rel=1e-12)

    def test_krylov_complex_datum_splits_into_real_solves(self, monkeypatch):
        # above the cutoff the real and imaginary parts of a datum are solved
        # as real vectors, so f(1 + 2j) evolves to P f + 2j P f bitwise
        spec, L = random_accretive(2, 16)
        monkeypatch.setattr(sg, "DIRECT_LIMIT", 0)
        f = spec.f
        tg = sg.TimeGrid(dt=0.01, T=0.05)
        pair = sg.evolve(L, (GridFunction(spec.grid, f.values * (1 + 2j)), spec.g), tg)
        assert {st.method for st in pair.stats} == {"bicgstab"}
        assert np.array_equal(pair.values[0].real, sg.evolve(L, f, tg).values.real)
        twice = GridFunction(spec.grid, 2.0 * f.values)
        assert np.array_equal(pair.values[0].imag, sg.evolve(L, twice, tg).values.real)
        stepper = sg._LinearStep([L], 0.01, sg.Scheme.CRANK_NICOLSON, sg.SolverConfig())
        assert stepper.lu is None
        u = np.stack([f.flat * (1 + 2j), spec.g.flat * (0.5 - 1j)], axis=1)
        # both schemes solve (I + theta dt L_h) x = u: the right-hand side is u
        x, st = advance_complex(stepper, u)
        recomputed = (np.linalg.norm(stepper.krylov[0].lhs @ x - u, axis=0)
                      / np.linalg.norm(u, axis=0)).max()
        assert st.iterations > 0
        assert abs(st.residual - recomputed) <= 1e-13

    def test_gmres_fallback_when_bicgstab_breaks_down(self, monkeypatch):
        spec, L = random_accretive(2, 16)
        monkeypatch.setattr(sg, "DIRECT_LIMIT", 0)
        data = (GridFunction(spec.grid, spec.f.values * (1 + 2j)), spec.g)
        tg = sg.TimeGrid(dt=0.01, T=0.05)
        reference = sg.evolve(L, data, tg)
        assert {st.method for st in reference.stats} == {"bicgstab"}

        def breakdown(A, b, x, r, *args):
            return x, False, 0

        monkeypatch.setattr(sg, "_bicgstab", breakdown)
        fallback = sg.evolve(L, data, tg)
        assert len(fallback.stats) == tg.n_steps
        for st in fallback.stats:
            assert st.method == "gmres" and st.iterations > 0
            assert st.residual <= 10.0 * sg.SolverConfig().tol
        rel = (np.linalg.norm(fallback.values - reference.values, axis=2)
               / np.linalg.norm(reference.values, axis=2))
        assert rel.max() <= 1e-8

    def test_scaled_data_evolve_to_the_scaled_trajectory(self):
        # the breakdown test is relative to the residual norms, so data
        # scaled by a power of two take the same solves, floats scaled
        spec, L = random_accretive(3, 12)
        assert L.n > sg.DIRECT_LIMIT_3D
        tg = sg.TimeGrid(dt=0.01, T=0.1)
        s = 2.0 ** -40
        ref = sg.evolve(L, (spec.f, spec.g), tg)
        scaled = sg.evolve(L, tuple(GridFunction(spec.grid, s * f.values)
                                    for f in (spec.f, spec.g)), tg)
        assert np.array_equal(scaled.values, s * ref.values)
        assert [(st.method, st.iterations) for st in scaled.stats] == \
            [(st.method, st.iterations) for st in ref.stats]
        assert {st.method for st in ref.stats} == {"bicgstab"}

    @pytest.mark.parametrize("scheme", list(sg.Scheme))
    def test_warm_start_saves_iterations(self, scheme, monkeypatch):
        # each solve starts from the extrapolation of its last outputs; a
        # fresh stepper per step starts every solve from its right-hand
        # side, and the linear extrapolation 2 x_n - x_(n-1) took 124
        # (backward Euler) and 108 (Crank-Nicolson) iterations here
        linear_start = {sg.Scheme.BACKWARD_EULER: 124, sg.Scheme.CRANK_NICOLSON: 108}
        spec, L = random_accretive(3, 12)
        tg = sg.TimeGrid(dt=0.01, T=0.2, scheme=scheme)
        warm = sg.evolve(L, (spec.f, spec.g), tg)
        u = np.stack([spec.f.flat, spec.g.flat], axis=1)
        cold_iters = 0
        for _ in range(tg.n_steps):
            x, st = advance_complex(sg._LinearStep([L], tg.dt, scheme, sg.SolverConfig()), u)
            u = 2.0 * x - u if scheme is sg.Scheme.CRANK_NICOLSON else x
            cold_iters += st.iterations
        warm_iters = sum(st.iterations for st in warm.stats)
        assert warm_iters < cold_iters
        assert warm_iters < linear_start[scheme]
        monkeypatch.setattr(sg, "DIRECT_LIMIT_3D", L.n)
        direct = sg.evolve(L, (spec.f, spec.g), tg)
        assert {st.method for st in direct.stats} == {"splu"}
        for end in (warm.values[:, -1], u.T):
            rel = (np.linalg.norm(end - direct.values[:, -1], axis=1)
                   / np.linalg.norm(direct.values[:, -1], axis=1))
            assert rel.max() <= 1e-8

    def test_residual_after_history_on_an_unrelated_right_hand_side(self):
        # the warm start guesses from the history; the gate still reports
        # the true residual of whatever right-hand side comes next
        spec, L = random_accretive(3, 12)
        stepper = sg._LinearStep([L], 0.01, sg.Scheme.CRANK_NICOLSON, sg.SolverConfig())
        u = np.stack([spec.f.flat, spec.g.flat], axis=1)
        for _ in range(len(sg.EXTRAPOLATION) + 1):
            x, _ = advance_complex(stepper, u)
            u = 2.0 * x - u
        # five outputs, x and lhs @ x, of two rows; the sixth has wrapped
        assert stepper.krylov[0].history.shape == (5, 2, 2, L.n)
        assert stepper.krylov[0].stored == 6
        b = np.random.default_rng(0).standard_normal((L.n, 2)) + 0j
        x, st = advance_complex(stepper, b)
        recomputed = (np.linalg.norm(stepper.krylov[0].lhs @ x - b, axis=0)
                      / np.linalg.norm(b, axis=0)).max()
        assert st.iterations > 0
        assert abs(st.residual - recomputed) <= 1e-13
        assert st.residual <= 10.0 * stepper.solver.tol

    def test_extrapolation_rows_are_exact_on_polynomials(self):
        # row k - 1 maps the values at 0, ..., k - 1 of every polynomial of
        # degree below k to its value at k; the weights are integers, so
        # the sums are exact
        assert len(sg.EXTRAPOLATION) == 5
        for k, row in enumerate(sg.EXTRAPOLATION, start=1):
            assert len(row) == k
            for j in range(k):
                assert sum(c * n ** j for n, c in enumerate(row)) == k ** j, (k, j)
        assert sg.EXTRAPOLATION[1] == (-1.0, 2.0)

    def test_warm_start_extrapolates_the_stored_outputs(self, monkeypatch):
        # x0 of step s is the extrapolation of the last min(s, 5) outputs,
        # also once the history has wrapped, and r0 = b - lhs @ x0 up to the
        # rounding of the stored products; the first solve starts from b
        spec, L = random_accretive(3, 12)
        starts = []
        solve = sg._bicgstab

        def recording(A, b, x, r, *args):
            starts.append((b.copy(), x.copy(), r.copy()))
            return solve(A, b, x, r, *args)

        monkeypatch.setattr(sg, "_bicgstab", recording)
        stepper = sg._LinearStep([L], 0.01, sg.Scheme.CRANK_NICOLSON, sg.SolverConfig())
        u = spec.f.flat.real[None, :].copy()
        outputs = []
        for step in range(8):
            x, _ = stepper.advance_rows(u, np.zeros((1, 1), dtype=np.int64))
            b, x0, r0 = starts[step]
            k = min(step, len(sg.EXTRAPOLATION))
            want = (np.tensordot(sg.EXTRAPOLATION[k - 1], outputs[-k:], axes=1)
                    if k else b)
            assert np.allclose(x0, want, rtol=0.0, atol=1e-13 * np.abs(b).max()), step
            assert np.allclose(r0, b - stepper.krylov[0].lhs @ x0, rtol=0.0,
                               atol=1e-13 * np.abs(b).max()), step
            outputs.append(x[0].copy())
            u = 2.0 * x - u

    def test_rough_datum_passes_the_gate_and_matches_superlu(self, monkeypatch):
        # the checkerboard node pattern is the stiffest Crank-Nicolson mode:
        # at dt = 0.5 on h = 2/3 its factor is about -0.73, so the outputs
        # alternate in sign and the extrapolated start is far off
        spec, L = random_accretive(3, 12)
        assert L.n > sg.DIRECT_LIMIT_3D
        rough = GridFunction(spec.grid, (-1.0) ** np.indices(spec.grid.node_shape).sum(axis=0))
        tg = sg.TimeGrid(dt=0.5, T=10.0, scheme=sg.Scheme.CRANK_NICOLSON)
        krylov = sg.evolve(L, (rough, spec.g), tg)
        assert {st.method for st in krylov.stats} == {"bicgstab"}
        assert all(st.residual <= 10.0 * sg.SolverConfig().tol for st in krylov.stats)
        monkeypatch.setattr(sg, "DIRECT_LIMIT_3D", L.n)
        direct = sg.evolve(L, (rough, spec.g), tg)
        assert {st.method for st in direct.stats} == {"splu"}
        flips = np.einsum("ij,ij->i", direct.values[0, 1:].real, direct.values[0, :-1].real)
        assert np.all(flips < 0.0)
        rel = (np.linalg.norm(krylov.values - direct.values, axis=2)
               / np.linalg.norm(direct.values, axis=2))
        assert rel.max() <= 1e-8

    @pytest.mark.parametrize("path", ["direct", "krylov"])
    def test_nan_datum_fails_the_residual_gate(self, path, monkeypatch):
        # a NaN right-hand side has a NaN norm, which must fail the gate
        # rather than be skipped as a zero column
        spec, L = random_accretive(2, 16)
        if path == "krylov":
            monkeypatch.setattr(sg, "DIRECT_LIMIT", 0)
        vals = spec.f.values.copy()
        vals.flat[vals.size // 2] = np.nan
        tg = sg.TimeGrid(dt=0.01, T=0.05)
        # few iterations: the Krylov solvers spend all of them on NaN
        with pytest.raises(ConvergenceError):
            sg.evolve(L, (GridFunction(spec.grid, vals), spec.g), tg,
                      sg.SolverConfig(max_iter=5))

    def test_non_finite_datum_fails_before_any_krylov_solve(self, monkeypatch):
        # at the default max_iter, BiCGStab and then restarted GMRES would
        # spend every iteration on NaN before the residual gate could raise
        spec, L = random_accretive(2, 16)
        monkeypatch.setattr(sg, "DIRECT_LIMIT", 0)

        def no_solve(*args, **kwargs):
            raise AssertionError("a non-finite right-hand side reached a solver")

        monkeypatch.setattr(sg, "_bicgstab", no_solve)
        monkeypatch.setattr(sg.spla, "gmres", no_solve)
        vals = spec.f.values.copy()
        vals.flat[vals.size // 2] = np.nan
        with pytest.raises(ConvergenceError, match="non-finite") as info:
            sg.evolve(L, (GridFunction(spec.grid, vals), spec.g), sg.TimeGrid(dt=0.01, T=0.01))
        assert info.value.iterations == 0


def batch_of_three():
    """Three operators of two dimensions and their data: a complex datum
    with a real one (3 rows), one real datum (1 row) and a real pair (2
    rows), so the shorter blocks are padded with zero rows."""
    (s1, L1), (s2, L2), (s3, L3) = (random_accretive(1, 40), random_accretive(2, 8),
                                    random_accretive(1, 24, seed=5))
    data = [(GridFunction(s1.grid, s1.f.values * (1 + 2j)), s1.g), s2.f, (s3.g, s3.f)]
    return [L1, L2, L3], data


class TestBatch:
    @pytest.mark.parametrize("scheme", list(sg.Scheme))
    def test_batch_matches_single_evolutions(self, scheme):
        # one factor of the block-diagonal system: each block's floats are
        # its single evolution's up to SuperLU's ordering, and its hook sees
        # its own rows
        ops_, data = batch_of_three()
        tg = sg.TimeGrid(dt=0.01, T=0.2, scheme=scheme, snapshot_stride=3)

        def recorder(seen):
            return lambda x, datum: seen.append((x.copy(), datum.copy()))

        seen_batch = [[] for _ in ops_]
        batch = sg.evolve(ops_, data, tg, on_step=[recorder(s) for s in seen_batch])
        assert isinstance(batch, sg.Trajectories) and len(batch) == len(ops_)
        assert batch.stats == [st for traj in batch for st in traj.stats]
        for L, d, traj, seen in zip(ops_, data, batch, seen_batch):
            seen_single = []
            single = sg.evolve(L, d, tg, on_step=recorder(seen_single))
            tol = 1e-15 * max(np.abs(f.values).max()
                              for f in ((d,) if isinstance(d, GridFunction) else d))
            assert traj.values.dtype == single.values.dtype
            assert traj.values.shape == single.values.shape
            assert np.abs(traj.values - single.values).max() <= tol
            assert np.array_equal(traj.times, single.times)
            assert [(st.method, st.iterations) for st in traj.stats] == \
                [(st.method, st.iterations) for st in single.stats]
            assert all(st.residual <= 10.0 * sg.SolverConfig().tol for st in traj.stats)
            assert len(seen) == len(seen_single) == tg.n_steps
            for (x, datum), (x1, datum1) in zip(seen, seen_single):
                assert np.array_equal(datum, datum1) and x.shape == x1.shape
                assert np.abs(x - x1).max() <= tol

    def test_krylov_batch_matches_single_evolutions(self, monkeypatch):
        # every block goes Krylov and solves its rows with its own matrix,
        # Jacobi diagonal and history, so values and iterations are those of
        # its single evolution
        monkeypatch.setattr(sg, "DIRECT_LIMIT", 0)
        monkeypatch.setattr(sg, "DIRECT_LIMIT_3D", 0)
        ops_, data = batch_of_three()
        spec3, L3 = random_accretive(3, 5)
        ops_.append(L3)
        data.append((spec3.f, spec3.g))
        tg = sg.TimeGrid(dt=0.01, T=0.1, snapshot_stride=2)
        batch = sg.evolve(ops_, data, tg)
        for L, d, traj in zip(ops_, data, batch):
            single = sg.evolve(L, d, tg)
            rel = np.abs(traj.values - single.values).max() / np.abs(single.values).max()
            assert rel <= 1e-12
            assert [(st.method, st.iterations) for st in traj.stats] == \
                [(st.method, st.iterations) for st in single.stats]
            assert {st.method for st in traj.stats} == {"bicgstab"}
            assert all(st.iterations > 0 for st in traj.stats)

    def test_one_block_above_its_limit_sends_the_batch_to_krylov(self, monkeypatch):
        _, L2 = random_accretive(2, 8)
        _, L3 = random_accretive(3, 5)
        step = sg._LinearStep([L2, L3], 0.01, sg.Scheme.CRANK_NICOLSON, sg.SolverConfig())
        assert step.lu is not None and step.matrix.shape == (L2.n + L3.n,) * 2
        monkeypatch.setattr(sg, "DIRECT_LIMIT_3D", L3.n - 1)
        step = sg._LinearStep([L2, L3], 0.01, sg.Scheme.CRANK_NICOLSON, sg.SolverConfig())
        assert step.lu is None and len(step.krylov) == 2

    def test_gate_is_per_block(self, monkeypatch):
        # a small block's corrupted solve must fail the gate although its
        # share of the whole row's norm is far below the tolerance
        (s1, L1), (s2, L2) = random_accretive(1, 40), random_accretive(2, 8)
        big = GridFunction(s2.grid, 1e8 * s2.f.values)
        tg = sg.TimeGrid(dt=0.01, T=0.01)
        error = 1e-6
        splu = sg.spla.splu

        class Corrupted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                x = self.lu.solve(b)
                x[:L1.n] *= 1.0 + error
                return x

        monkeypatch.setattr(sg.spla, "splu", lambda A: Corrupted(splu(A)))
        # the residual the corruption leaves, against the norm of both rows
        share = error * np.linalg.norm(s1.f.flat) / np.linalg.norm(big.flat)
        assert share < 1e-3 * sg.SolverConfig().tol
        with pytest.raises(ConvergenceError, match="residual above tolerance") as info:
            sg.evolve([L1, L2], [s1.f, big], tg)
        assert info.value.residual > 1e-3 * error
        monkeypatch.setattr(sg.spla, "splu", splu)
        assert len(sg.evolve([L1, L2], [s1.f, big], tg).stats) == 2

    def test_batch_needs_one_datum_and_hook_per_operator(self):
        (s1, L1), (s2, L2) = random_accretive(1, 16), random_accretive(2, 6)
        tg = sg.TimeGrid(dt=0.01, T=0.02)
        for data, hooks in (([s1.f], None), ([s1.f, s2.f], [None]), ([], None)):
            with pytest.raises(DomainError):
                sg.evolve([L1, L2] if data else [], data, tg, on_step=hooks)
        with pytest.raises(DomainError, match="grid"):
            sg.evolve([L1, L2], [s2.f, s1.f], tg)


class TestDenseOracle:
    def test_t_zero(self):
        g = Grid(cells=(16,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x))
        out = sg.dense_expm_oracle(L, f, 0.0)
        assert np.allclose(out.flat, f.flat)

    def test_self_consistency_semigroup_law(self):
        g = Grid(cells=(20,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x))
        a = sg.dense_expm_oracle(L, sg.dense_expm_oracle(L, f, 0.05), 0.05)
        b = sg.dense_expm_oracle(L, f, 0.1)
        assert np.abs(a.flat - b.flat).max() <= 1e-10 * max(np.abs(b.flat).max(), 1e-30)

    def test_size_refusal(self):
        g = Grid(cells=(40, 40), lo=(0.0, 0.0), hi=(1.0, 1.0), boundary=Boundary.PERIODIC)
        L = identity_op(g)
        f = GridFunction(g, np.zeros(g.node_shape))
        with pytest.raises(DomainError):
            sg.dense_expm_oracle(L, f, 0.1)

    def test_crank_nicolson_matches_oracle(self):
        g = Grid(cells=(64,), lo=(-3.0,), hi=(3.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x, radius=1.0))
        tg = sg.TimeGrid(dt=1e-3, T=0.1, scheme=sg.Scheme.CRANK_NICOLSON, snapshot_stride=100)
        traj = sg.evolve(L, f, tg, sg.SolverConfig(tol=1e-12))
        assert {st.method for st in traj.stats} == {"splu"}
        oracle = sg.dense_expm_oracle(L, f, 0.1)
        rel = np.linalg.norm(traj.values[-1] - oracle.flat) / np.linalg.norm(oracle.flat)
        assert rel <= 1e-4


class TestContraction:
    def test_constant_preserved_periodic(self):
        g = Grid(cells=(16,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = identity_op(g)
        u = GridFunction(g, np.full(g.node_shape, 1.0))
        traj = sg.evolve(L, u, sg.TimeGrid(dt=0.01, T=0.05,
                                           scheme=sg.Scheme.BACKWARD_EULER), TIGHT)
        rep = sg.linf_contraction_check(L, traj)
        assert rep.monotone_stencil
        assert rep.worst_ratio <= 1.0 + 1e-12

    def test_random_data_monotone_supnorm(self):
        g = Grid(cells=(32,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        V = ops.PotentialField(g, np.maximum(g.node_coords()[0], 0.0))
        L = ops.assemble(g, ops.CoefficientField.identity(g), V)
        rng = np.random.default_rng(5)
        f = GridFunction(g, rng.standard_normal(g.node_shape))
        traj = sg.evolve(L, f, sg.TimeGrid(dt=0.005, T=0.1,
                                           scheme=sg.Scheme.BACKWARD_EULER), TIGHT)
        rep = sg.linf_contraction_check(L, traj)
        assert rep.monotone_stencil
        assert rep.worst_ratio <= 1.0 + 1e-12

    def test_nonmonotone_stencil_report_only(self):
        # the antisymmetric part must vary in space to reach the operator;
        # a constant one drops out of G^T A_h G exactly
        g = Grid(cells=(10, 10), lo=(-1.0, -1.0), hi=(1.0, 1.0), boundary=Boundary.DIRICHLET)

        def rot(x, y):
            out = np.zeros(x.shape + (2, 2))
            beta = 0.6 * np.sin(2 * x) * np.cos(y)
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            out[..., 0, 1] = beta
            out[..., 1, 0] = -beta
            return out

        A = ops.CoefficientField(g, rot(*g.vertex_coords()))
        L = ops.assemble(g, A, ops.PotentialField.zero(g))
        assert not L.is_monotone_stencil()
        x, y = g.node_coords()
        f = GridFunction(g, bump(np.sqrt(x ** 2 + y ** 2), radius=0.7))
        traj = sg.evolve(L, f, sg.TimeGrid(dt=0.01, T=0.05,
                                           scheme=sg.Scheme.BACKWARD_EULER), TIGHT)
        rep = sg.linf_contraction_check(L, traj)
        assert not rep.monotone_stencil
        assert np.isfinite(rep.worst_ratio)  # report-style: no bound on it

    def test_rejects_block_trajectory(self):
        spec, L = random_accretive(1, 32)
        pair = sg.evolve(L, (spec.f, spec.g), sg.TimeGrid(dt=0.01, T=0.05))
        assert pair.values.ndim == 3
        with pytest.raises(DomainError):
            sg.linf_contraction_check(L, pair)
        single = sg.Trajectory(pair.grid, pair.times, pair.values[0], pair.stats)
        assert np.isfinite(sg.linf_contraction_check(L, single).worst_ratio)


class TestConservationAndOrders:
    def test_mass_conservation_periodic(self):
        g = Grid(cells=(64,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x, center=0.5, radius=0.2))
        traj = sg.evolve(L, f, sg.TimeGrid(dt=5e-4, T=0.1,
                                           scheme=sg.Scheme.BACKWARD_EULER), TIGHT)
        masses = traj.values.sum(axis=1).real * g.cell_volume
        assert len(traj.times) == 201
        assert np.abs(masses - masses[0]).max() <= 1e-10 * abs(masses[0])

    def test_scheme_orders(self):
        g = Grid(cells=(48,), lo=(-3.0,), hi=(3.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x, radius=1.2))
        t_end = 0.08
        oracle = sg.dense_expm_oracle(L, f, t_end).flat
        dts = [8e-3, 4e-3, 2e-3]
        errs = {sg.Scheme.CRANK_NICOLSON: [], sg.Scheme.BACKWARD_EULER: []}
        for scheme in errs:
            for dt in dts:
                tg = sg.TimeGrid(dt=dt, T=t_end, scheme=scheme,
                                 snapshot_stride=int(round(t_end / dt)))
                traj = sg.evolve(L, f, tg, sg.SolverConfig(tol=1e-13))
                errs[scheme].append(np.linalg.norm(traj.values[-1] - oracle))
        for scheme, nominal in ((sg.Scheme.CRANK_NICOLSON, 2.0),
                                (sg.Scheme.BACKWARD_EULER, 1.0)):
            e = errs[scheme]
            slopes = [np.log2(e[i] / e[i + 1]) for i in range(len(e) - 1)]
            for s in slopes:
                assert abs(s - nominal) <= 0.2, (scheme, slopes)

    def test_reported_residual_matches_recomputation(self):
        g = Grid(cells=(32,), lo=(-2.0,), hi=(2.0,), boundary=Boundary.DIRICHLET)
        L = identity_op(g)
        x = g.node_coords()[0]
        f = GridFunction(g, bump(x))
        stepper = sg._LinearStep([L], 0.01, sg.Scheme.BACKWARD_EULER, sg.SolverConfig())
        u1, st = advance_complex(stepper, f.flat[:, None])
        b = f.flat
        recomputed = np.linalg.norm(stepper.matrix @ u1[:, 0] - b) / np.linalg.norm(b)
        assert abs(st.residual - recomputed) <= 1e-13
