"""Tests for grids, coefficient fields, and the flux-form discretization."""

import tracemalloc

import numpy as np
import pytest

import divbell.harness as hz
import divbell.operators as ops
import divbell.presets as ps
import divbell.semigroup as sg
from divbell.errors import DomainError
from divbell.grids import Boundary, Grid, GridFunction
import oracles as orc
from oracles import grad_sq_at_nodes_maps, star_norm_field


def dirichlet_grid(n, dim=1, L=1.0):
    return Grid(cells=(n,) * dim, lo=(0.0,) * dim, hi=(L,) * dim,
                boundary=Boundary.DIRICHLET)


def periodic_grid(n, dim=1, L=1.0):
    return Grid(cells=(n,) * dim, lo=(0.0,) * dim, hi=(L,) * dim,
                boundary=Boundary.PERIODIC)


def rotation_field(grid, beta=0.5):
    def fn(*coords):
        shape = coords[0].shape
        d = grid.dim
        out = np.zeros(shape + (d, d))
        for a in range(d):
            out[..., a, a] = 1.0
        if d >= 2:
            out[..., 0, 1] = beta
            out[..., 1, 0] = -beta
        return out
    return ops.CoefficientField(grid, fn(*grid.vertex_coords()))


class TestGrid:
    def test_counts(self):
        g = dirichlet_grid(8, dim=2)
        assert g.node_shape == (7, 7)
        assert g.vertex_shape == (9, 9)
        assert [x.shape for x in g.face_midpoints(0)] == [(8, 7)] * 2
        assert [x.shape for x in g.face_midpoints(1)] == [(7, 8)] * 2
        gp = periodic_grid(8, dim=2)
        assert gp.node_shape == (8, 8) == gp.vertex_shape == gp.face_midpoints(0)[0].shape

    def test_boundary_rule(self):
        g, gp = dirichlet_grid(5), periodic_grid(5)
        assert g.vertex_count(0) == 6 and g.node_vertices(0).tolist() == [1, 2, 3, 4]
        assert gp.vertex_count(0) == 5 and gp.node_vertices(0).tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(g.axis_nodes(0), g.axis_vertices(0)[1:-1])
        assert np.array_equal(gp.axis_nodes(0), gp.axis_vertices(0))

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_axis_maps_for_three_cells(self, boundary):
        # h = 1/2; face f joins vertices f and f + 1 mod the vertex count
        g = Grid(cells=(3,), lo=(0.0,), hi=(1.5,), boundary=boundary)
        if boundary is Boundary.DIRICHLET:
            diff = [[2, 0], [-2, 2], [0, -2]]
            avg = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5]]
            select = [[0, 1, 0, 0], [0, 0, 1, 0]]
        else:
            diff = [[-2, 2, 0], [0, -2, 2], [2, 0, -2]]
            avg = [[.5, .5, 0], [0, .5, .5], [.5, 0, .5]]
            select = np.eye(3)
        assert np.array_equal(ops._gradient(g).toarray(), np.asarray(diff, dtype=float))
        maps = orc._axis_maps(g, 0)
        assert len(maps) == 3
        for got, want in zip(maps, (diff, avg, select)):
            assert np.array_equal(got.toarray(), np.asarray(want, dtype=float))
        # nodal reads slice the vertex array: the node selection, moved by s
        w = 10.0 + np.arange(g.vertex_count(0))
        for s in (-1, 0, 1):
            assert np.array_equal(ops._at_nodes(g, w, (s,)), np.asarray(select) @ np.roll(w, -s))

    def test_spacing_times_count_is_extent(self):
        g = Grid(cells=(10, 4), lo=(0.0, -1.0), hi=(2.5, 1.0), boundary=Boundary.DIRICHLET)
        for n, h, a, b in zip(g.cells, g.spacing, g.lo, g.hi):
            assert n * h == pytest.approx(b - a, rel=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            Grid(cells=(1,), lo=(0.0,), hi=(1.0,))
        with pytest.raises(DomainError):
            Grid(cells=(4, 4, 4, 4), lo=(0,) * 4, hi=(1,) * 4)
        with pytest.raises(DomainError):
            Grid(cells=(4,), lo=(1.0,), hi=(0.0,))

    def test_norms_carry_cell_volume(self):
        g = dirichlet_grid(10, L=10.0)  # h = 1
        u = GridFunction(g, np.ones(g.node_shape))
        assert u.norm(2.0) == pytest.approx(np.sqrt(9.0))


class TestAccretivity:
    def test_rotation_matrix(self):
        g = dirichlet_grid(4, dim=2)
        A = ops.CoefficientField.constant(g, [[1.0, 1.0], [-1.0, 1.0]])
        assert A.gamma == pytest.approx(1.0, abs=1e-14)

    def test_inadmissible_shear(self):
        g = dirichlet_grid(4, dim=2)
        A = ops.CoefficientField.constant(g, [[1.0, 3.0], [0.0, 1.0]])
        assert A.gamma == pytest.approx(-0.5, abs=1e-14)

    def test_identity(self):
        g = dirichlet_grid(4, dim=3)
        assert ops.CoefficientField.identity(g).gamma == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_least_eig_matches_per_sample_oracle(self, dim):
        g = Grid(cells=(6, 5, 4)[:dim], lo=(0.0,) * dim, hi=(1.0,) * dim,
                 boundary=Boundary.DIRICHLET)
        vals = np.random.default_rng(dim).standard_normal(g.vertex_shape + (dim, dim))
        A = ops.CoefficientField(g, vals)
        oracle = np.array([np.linalg.eigvalsh(0.5 * (m + m.T))[0]
                           for m in vals.reshape(-1, dim, dim)]).reshape(g.vertex_shape)
        assert A.least_eig.shape == g.vertex_shape
        assert A.least_eig.flags.c_contiguous and A.least_eig.base is None
        np.testing.assert_allclose(A.least_eig, oracle, rtol=0.0, atol=1e-14)
        assert A.gamma == pytest.approx(oracle.min(), abs=1e-14)


class TestSymmetrize:
    def test_rotation_becomes_identity(self):
        g = dirichlet_grid(4, dim=2)
        A = ops.CoefficientField.constant(g, [[1.0, 1.0], [-1.0, 1.0]])
        assert np.allclose(A.sym, np.eye(2))

    def test_symmetric_unchanged(self):
        g = dirichlet_grid(4, dim=2)
        A = ops.CoefficientField.constant(g, [[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(A.sym, A.values)

    def test_gamma_preserved(self):
        g = dirichlet_grid(5, dim=2)
        rng = np.random.default_rng(2)

        def fn(x, y):
            out = np.zeros(x.shape + (2, 2))
            out[..., 0, 0] = 2.0 + np.sin(3 * x)
            out[..., 1, 1] = 2.0 + np.cos(2 * y)
            out[..., 0, 1] = 0.5 * np.sin(x + y)
            out[..., 1, 0] = -0.5 * np.sin(x + y) + 0.2
            return out

        A = ops.CoefficientField(g, fn(*g.vertex_coords()))
        assert ops.CoefficientField(A.grid, A.sym).gamma == pytest.approx(A.gamma, rel=1e-14)

    def test_symmetrization_identity_random_xi(self):
        # Re(A xi . conj(xi)) equals (sym A) xi . conj(xi) for complex xi
        g = dirichlet_grid(4, dim=3)
        rng = np.random.default_rng(8)
        M = rng.standard_normal((3, 3))
        A = ops.CoefficientField.constant(g, M)
        S = 0.5 * (M + M.T)
        for _ in range(50):
            xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = np.real(np.dot(M @ xi, np.conj(xi)))
            rhs = np.real(np.dot(S @ xi, np.conj(xi)))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestMatrixSqrt:
    def test_diagonal(self):
        S = ops.matrix_sqrt_spd(np.diag([4.0, 9.0]))
        assert np.allclose(S, np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(ops.matrix_sqrt_spd(np.eye(3)), np.eye(3))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            B = rng.standard_normal((3, 3))
            M = B @ B.T + 0.5 * np.eye(3)
            S = ops.matrix_sqrt_spd(M)
            assert np.linalg.norm(S @ S - M) <= 1e-12 * np.linalg.norm(M)
            assert np.allclose(S, S.T)

    def test_rejects_non_spd(self):
        with pytest.raises(DomainError):
            ops.matrix_sqrt_spd(np.diag([1.0, -2.0]))
        with pytest.raises(DomainError):
            ops.matrix_sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestAssemble:
    def test_1d_dirichlet_stencil(self):
        g = Grid(cells=(4,), lo=(0.0,), hi=(4.0,), boundary=Boundary.DIRICHLET)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.allclose(L.matrix.toarray(), expected)

    def test_potential_is_additive_diagonal(self):
        g = dirichlet_grid(8, dim=2)
        A = ops.CoefficientField.identity(g)
        x, y = g.node_coords()
        V = ops.PotentialField(g, x + 2 * y)
        L0 = ops.assemble(g, A, ops.PotentialField.zero(g))
        LV = ops.assemble(g, A, V)
        diff = (LV.matrix - L0.matrix).toarray()
        assert np.allclose(diff, np.diag(V.values.ravel()))

    def test_periodic_constant_in_kernel(self):
        g = periodic_grid(9)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        u = GridFunction(g, np.full(g.node_shape, 1.0))
        assert np.abs(L.matrix @ u.flat).max() <= 1e-13

    def test_rejects_inadmissible_field(self):
        g = dirichlet_grid(4, dim=2)
        A = ops.CoefficientField.constant(g, [[1.0, 3.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match="gamma"):
            ops.assemble(g, A, ops.PotentialField.zero(g))

    def test_rejects_negative_potential(self):
        g = dirichlet_grid(4)
        with pytest.raises(DomainError):
            ops.PotentialField(g, -np.ones(g.node_shape))


class TestExplicitStencil:
    """``assemble`` against the flux-form oracle G^T A_h G + diag(V)."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("cells", [(7,), (2,), (6, 5), (2, 5), (2, 2), (4, 3, 5),
                                       (2, 3, 4), (2, 2, 2)])
    def test_matches_flux_form_oracle(self, cells, boundary):
        # random nonsymmetric fields, unequal spacings; a 2-cell periodic
        # axis has C_a = 0, so the oracle's cross entries cancel there
        d = len(cells)
        g = Grid(cells=cells, lo=(0.0,) * d, hi=tuple(1.0 + 0.7 * a for a in range(d)),
                 boundary=boundary)
        rng = np.random.default_rng(sum(cells) + 10 * d)
        A = ops.CoefficientField(g, 3.0 * np.eye(d)
                                 + 0.4 * rng.standard_normal(g.vertex_shape + (d, d)))
        assert A.gamma > 0.0
        V = ops.PotentialField(g, rng.uniform(0.0, 2.0, g.node_shape))
        L = ops.assemble(g, A, V).matrix
        ref = orc.flux_form_matrix(g, A, V)
        ref.sum_duplicates()
        assert L.has_canonical_format
        assert np.array_equal(L.indptr, ref.indptr) and np.array_equal(L.indices, ref.indices)
        assert np.abs(L.data - ref.data).max() <= 4 * np.finfo(float).eps * np.abs(ref.data).max()
        # the flux form of A^T is the transpose, bit for bit: the identity
        # that operator-verify's adjoint-consistency line reads
        At = ops.CoefficientField(g, np.swapaxes(A.values, -1, -2))
        assert abs(ops.assemble(g, At, V).matrix - L.T).max() == 0.0

    def test_assembly_peak_within_three_matrices(self):
        # no face matrix and no product temporaries: the (nodes, 19) stencil
        # arrays are compressed in place into the returned matrix
        g = Grid(cells=(24,) * 3, lo=(0.0,) * 3, hi=(1.0,) * 3)
        A = ps.coefficient_preset("random-accretive", g, seed=1)
        V = ops.PotentialField.zero(g)
        tracemalloc.start()
        try:
            L = ops.assemble(g, A, V).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (L.data.nbytes + L.indices.nbytes + L.indptr.nbytes)


class TestApply:
    def test_zero(self):
        g = dirichlet_grid(6, dim=2)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        assert np.all(L.matrix @ np.zeros(g.n_nodes) == 0.0)

    def test_columns_reproduce_stencil(self):
        g = Grid(cells=(4,), lo=(0.0,), hi=(4.0,), boundary=Boundary.DIRICHLET)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        cols = []
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            cols.append((L.matrix @ e).real)
        assert np.allclose(np.stack(cols, axis=1),
                           [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])

    def test_linearity(self):
        g = dirichlet_grid(7, dim=2)
        L = ops.assemble(g, rotation_field(g), ops.PotentialField.zero(g))
        rng = np.random.default_rng(5)
        u = GridFunction(g, rng.standard_normal(g.node_shape) + 1j * rng.standard_normal(g.node_shape))
        w = GridFunction(g, rng.standard_normal(g.node_shape) + 1j * rng.standard_normal(g.node_shape))
        a, b = 1.7, -0.4 + 0.2j
        lhs = L.matrix @ (a * u.flat + b * w.flat)
        rhs = a * (L.matrix @ u.flat) + b * (L.matrix @ w.flat)
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(np.abs(rhs).max(), 1.0)

    def test_dimension_mismatch(self):
        g = dirichlet_grid(6)
        g2 = dirichlet_grid(7)
        L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
        with pytest.raises(DomainError):
            sg.evolve(L, GridFunction(g2, np.zeros(g2.node_shape)),
                      sg.TimeGrid(dt=0.1, T=0.1))


class TestStarNorm:
    @pytest.mark.parametrize("grid", [dirichlet_grid(2), dirichlet_grid(9), dirichlet_grid(7, dim=2),
                                      dirichlet_grid(5, dim=3), periodic_grid(2),
                                      periodic_grid(8), periodic_grid(6, dim=2),
                                      periodic_grid(5, dim=3),
                                      Grid(cells=(7, 5), lo=(0.0, -1.0), hi=(1.0, 2.0),
                                           boundary=Boundary.DIRICHLET)],
                             ids=["dirichlet-1d-2", "dirichlet-1d", "dirichlet-2d", "dirichlet-3d",
                                  "periodic-1d-2", "periodic-1d", "periodic-2d", "periodic-3d",
                                  "dirichlet-2d-unequal-spacing"])
    @pytest.mark.parametrize("part", ["complex", "real", "imag", "zero", "float",
                                      "nan-real", "nan-imag"])
    def test_grad_sq_on_real_parts_matches_complex_maps(self, grid, part):
        # the reference applies the sparse maps as complex matrices; the
        # strided differences of the real and imaginary parts round in
        # another order, so the two agree to a relative 1e-14 of the
        # largest entry
        rng = np.random.default_rng(7)
        re, im = rng.standard_normal((2, 3, grid.n_nodes))
        u = {"complex": re + 1j * im, "real": re + 0j, "imag": 1j * im,
             "zero": np.zeros_like(re + 0j), "float": re,
             "nan-real": re + 0j, "nan-imag": re + 1j * im}[part]
        if part.startswith("nan"):
            u[1, grid.n_nodes // 2] = (complex(np.nan, 0.0) if part == "nan-real"
                                       else complex(0.5, np.nan))
        u = u.T                                        # (n_nodes, 3), not contiguous
        ref = grad_sq_at_nodes_maps(grid, u)
        out = ops.grad_sq_at_nodes(grid, u.real) + ops.grad_sq_at_nodes(grid, np.imag(u))
        assert out.shape == ref.shape
        assert np.array_equal(np.isnan(out), np.isnan(ref))
        assert np.isnan(out).any() == part.startswith("nan")
        scale = np.nanmax(ref, initial=0.0)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-14 * scale, equal_nan=True)

    @pytest.mark.parametrize("u", [np.zeros((7, 2), dtype=complex), np.ones((7, 1)) + 1j],
                             ids=["zero-imaginary-part", "complex"])
    def test_grad_sq_rejects_complex_fields(self, u):
        # a float64 cast would drop the imaginary part with only a warning
        with pytest.raises(DomainError, match="real"):
            ops.grad_sq_at_nodes(dirichlet_grid(8), u)

    def test_linear_function_exact_away_from_boundary(self):
        g = Grid(cells=(16,), lo=(0.0,), hi=(16.0,), boundary=Boundary.DIRICHLET)
        u = GridFunction(g, g.node_coords()[0])
        sn = star_norm_field(g, u.flat[None, :], ops.PotentialField.zero(g))[0]
        # u(0) = 0 matches the left boundary value, so every node except the
        # last (whose right face sees the zero extension) is exact
        assert np.allclose(sn[:-1], 1.0, atol=1e-13)

    def test_constant_with_unit_potential(self):
        g = periodic_grid(12)
        u = GridFunction(g, np.full(g.node_shape, -2.5 + 0j))
        sn = star_norm_field(g, u.flat[None, :], ops.PotentialField(g, np.ones(g.node_shape)))[0]
        assert np.allclose(sn, 2.5, atol=1e-14)

    def test_sine_mode_second_order(self):
        # O(h^2) where the gradient does not vanish; at its zeros the square
        # root halves the order, so the kink nodes are excluded from the fit
        errs_smooth, errs_global = [], []
        for n in (32, 64, 128):
            g = periodic_grid(n)
            x = g.node_coords()[0]
            u = GridFunction(g, np.sin(2 * np.pi * x))
            sn = star_norm_field(g, u.flat[None, :], ops.PotentialField.zero(g))[0]
            exact = np.abs(2 * np.pi * np.cos(2 * np.pi * x))
            err = np.abs(sn - exact)
            errs_global.append(err.max())
            # fit on the nodes shared by every refinement level
            common = (np.arange(n) % (n // 32)) == 0
            errs_smooth.append(err[common & (exact > 2.0)].max())
        slopes = [np.log2(errs_smooth[i] / errs_smooth[i + 1])
                  for i in range(len(errs_smooth) - 1)]
        assert min(slopes) >= 1.8
        assert all(np.diff(errs_global) < 0)


class TestInvariants:
    def test_discrete_ellipticity(self):
        rng = np.random.default_rng(11)

        def wild(x, y):
            out = np.zeros(x.shape + (2, 2))
            out[..., 0, 0] = 1.0 + 0.5 * np.sin(9 * x * y)
            out[..., 1, 1] = 1.3 + 0.4 * np.cos(7 * x)
            out[..., 0, 1] = 0.9 * np.sin(5 * (x - y))
            out[..., 1, 0] = -0.9 * np.sin(5 * (x - y)) + 0.3 * np.cos(3 * x)
            return out

        for boundary in (Boundary.DIRICHLET, Boundary.PERIODIC):
            g = Grid(cells=(9, 8), lo=(0.0, 0.0), hi=(1.0, 1.0), boundary=boundary)
            A = ops.CoefficientField(g, wild(*g.vertex_coords()))
            V = ops.PotentialField(g, 0.3 + 0.2 * np.sin(g.node_coords()[0]))
            gamma = A.gamma
            assert gamma > 0
            L = ops.assemble(g, A, V)
            G = L.gradient
            for _ in range(100):
                z = rng.standard_normal(L.n) + 1j * rng.standard_normal(L.n)
                quad = np.vdot(z, L.matrix @ z).real
                grad = np.vdot(G @ z, G @ z).real
                pot = np.vdot(z, L.potential * z).real
                assert quad >= gamma * grad + pot - 1e-10 * max(quad, 1.0)

    def test_dirichlet_symmetric_part_positive_definite(self):
        g = dirichlet_grid(10, dim=2)
        L = ops.assemble(g, rotation_field(g, beta=0.4), ops.PotentialField.zero(g))
        sym = 0.5 * (L.matrix + L.matrix.T).toarray()
        lam_min = np.linalg.eigvalsh(sym)[0]
        assert lam_min > 0.0

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(12)
        for dim in (1, 2, 3):
            g = Grid(cells=(5,) * dim, lo=(0.0,) * dim, hi=(1.0,) * dim,
                     boundary=Boundary.DIRICHLET)
            L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
            G = L.gradient
            for _ in range(20):
                u = rng.standard_normal(G.shape[1]) + 1j * rng.standard_normal(G.shape[1])
                w = rng.standard_normal(G.shape[0]) + 1j * rng.standard_normal(G.shape[0])
                lhs = np.vdot(w, G @ u)
                rhs = np.vdot(G.T @ w, u)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_anisotropic_grid_ellipticity_and_adjointness(self):
        # different cell counts and extents per axis
        g = Grid(cells=(10, 14), lo=(-3.0, -5.0), hi=(2.0, 4.0),
                 boundary=Boundary.DIRICHLET)

        def afun(x, y):
            out = np.zeros(x.shape + (2, 2))
            out[..., 0, 0] = 1.5 + 0.3 * np.sin(x)
            out[..., 1, 1] = 1.0 + 0.2 * np.cos(y)
            out[..., 0, 1] = 0.4 + 0.3 * np.sin(x + y)
            out[..., 1, 0] = -0.2 + 0.3 * np.sin(x + y)
            return out

        A = ops.CoefficientField(g, afun(*g.vertex_coords()))
        gamma = A.gamma
        L = ops.assemble(g, A, ops.PotentialField.zero(g))
        G = L.gradient
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.standard_normal(L.n) + 1j * rng.standard_normal(L.n)
            w = rng.standard_normal(G.shape[0]) + 1j * rng.standard_normal(G.shape[0])
            assert abs(np.vdot(w, G @ z) - np.vdot(G.T @ w, z)) <= 1e-12 * max(abs(np.vdot(w, G @ z)), 1.0)
            quad = np.vdot(z, L.matrix @ z).real
            assert quad >= gamma * np.vdot(G @ z, G @ z).real - 1e-9 * max(quad, 1.0)

    def test_consistency_order_smooth_full_tensor(self):
        two_pi = 2 * np.pi
        a = lambda x: 2.0 + 0.3 * np.sin(two_pi * x)
        ap = lambda x: 0.3 * two_pi * np.cos(two_pi * x)
        b = lambda y: 1.5 + 0.2 * np.cos(two_pi * y)
        bp = lambda y: -0.2 * two_pi * np.sin(two_pi * y)
        c0 = 0.4
        u = lambda x, y: np.sin(two_pi * x) * np.cos(2 * two_pi * y)
        ux = lambda x, y: two_pi * np.cos(two_pi * x) * np.cos(2 * two_pi * y)
        uy = lambda x, y: -2 * two_pi * np.sin(two_pi * x) * np.sin(2 * two_pi * y)
        uxx = lambda x, y: -two_pi ** 2 * u(x, y)
        uyy = lambda x, y: -(2 * two_pi) ** 2 * u(x, y)
        uxy = lambda x, y: -2 * two_pi ** 2 * np.cos(two_pi * x) * np.sin(2 * two_pi * y)
        Vf = lambda x, y: 1.0 + 0.5 * np.sin(two_pi * x) * np.sin(two_pi * y)

        def reference(x, y):
            return (-(ap(x) * ux(x, y) + a(x) * uxx(x, y) + 2 * c0 * uxy(x, y)
                      + bp(y) * uy(x, y) + b(y) * uyy(x, y)) + Vf(x, y) * u(x, y))

        def afun(x, y):
            out = np.zeros(x.shape + (2, 2))
            out[..., 0, 0] = a(x)
            out[..., 1, 1] = b(y)
            out[..., 0, 1] = c0 + 0.25
            out[..., 1, 0] = c0 - 0.25
            return out

        errs = []
        for n in (16, 32, 64):
            g = periodic_grid(n, dim=2)
            L = ops.assemble(g, ops.CoefficientField(g, afun(*g.vertex_coords())),
                             ops.PotentialField(g, Vf(*g.node_coords())))
            X, Y = g.node_coords()
            lhs = (L.matrix @ u(X, Y).ravel()).reshape(g.node_shape).real
            errs.append(np.abs(lhs - reference(X, Y)).max())
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(slopes) >= 1.0  # measured ~2
        assert max(slopes) >= 1.8
