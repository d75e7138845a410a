"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Tolerances are pinned here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import dataclasses
import time

import numpy as np
import pytest

import divbell.bellman as bl
import divbell.harness as hz
import divbell.operators as ops
import divbell.presets as ps
import divbell.semigroup as sg
from divbell.bellman import BellmanParams
from divbell.grids import Boundary, Grid, GridFunction

import oracles as orc
from oracles import ComplexPair

TIGHT = sg.SolverConfig(tol=1e-12)


def _passline(num, text):
    print(f"\nACCEPTANCE-{num:02d} PASS: {text}")


def _grid(dim, N, L=8.0, boundary=Boundary.DIRICHLET):
    return Grid(cells=(N,) * dim, lo=(-L / 2,) * dim, hi=(L / 2,) * dim,
                boundary=boundary)


def _scenario(preset, dim, N, p, T, steps, seed=0, f_scale=1.0):
    g = _grid(dim, N)
    A = ps.coefficient_preset(preset, g, seed=seed)
    V = ps.potential_preset(preset, g, seed=seed)
    f, gg = ps.default_data(g)
    f = GridFunction(g, f_scale * f.values)
    tg = sg.TimeGrid(dt=T / steps, T=T, scheme=sg.Scheme.CRANK_NICOLSON,
                     snapshot_stride=max(1, steps // 50))
    return hz.ScenarioSpec(preset, g, A, V, f, gg, BellmanParams(p), tg, TIGHT)


@pytest.fixture(scope="module")
def evolved_cells():
    """One evolution pair per (preset, dim); the Bellman exponent enters only
    the checks, so trajectories are shared across p.  The cells share one
    time grid, so one batch evolves them all."""
    cells = [(preset, dim, N) for preset in ps.PRESET_NAMES for dim, N in ((1, 96), (2, 16))]
    specs = [_scenario(preset, dim, N, 2.0, T=0.4, steps=200) for preset, dim, N in cells]
    return {(preset, dim): ev for (preset, dim, _), ev in zip(cells, hz.run_scenarios(specs))}


def test_criterion_01_bellman_certification():
    """p in {2,3,4,8}, 1e4 seeded points each, moduli in (1e-3, 10] clear of
    the singular-set margins: range-bound slack >= 0 exactly, shared-tau
    margins >= -1e-10, all within 60 s."""
    start = time.perf_counter()
    worst = {}
    for p in (2.0, 3.0, 4.0, 8.0):
        params = BellmanParams(p)
        rng = ps.rng_for(7, f"acceptance-bellman-p{p}")
        zetas, etas = bl.sample_certification_points(params, 10_000, rng)
        res = bl.certify_batch(params, zetas, etas)
        assert res["prop_i_slack"].min() >= 0.0
        shared = np.minimum(res["margin_hessian"], res["margin_drift"])
        assert shared.min() >= -1e-10, f"p={p}: worst shared margin {shared.min()}"
        assert res["valid"].all()
        worst[p] = float(shared.min())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"certification took {elapsed:.1f} s"
    _passline(1, f"4 x 10^4 certificates valid, worst shared margin "
                 f"{min(worst.values()):.3e}, {elapsed:.1f} s")


def test_criterion_02_derivative_oracles():
    """Closed-form first derivatives vs central differences (rel < 1e-6 at
    1e4 points), second form vs finite-difference Hessian (rel < 1e-5), and
    interface C1 agreement below 1e-10."""
    rng = np.random.default_rng(23)
    worst_grad = 0.0
    worst_hess = 0.0
    worst_iface = 0.0
    for p in (2.0, 3.0, 4.0, 8.0):
        params = BellmanParams(p)
        # interior sample away from the interface and the zero rays
        n = 10_000
        u = np.empty(0)
        v = np.empty(0)
        while u.size < n:
            uu = rng.uniform(0.1, 3.0, size=n)
            vv = rng.uniform(0.1, 3.0, size=n)
            t1, t2 = uu**p, vv**params.q
            good = np.abs(t1 - t2) > 1e-3 * np.maximum(np.maximum(t1, t2), 1.0)
            u = np.concatenate([u, uu[good]])
            v = np.concatenate([v, vv[good]])
        u, v = u[:n], v[:n]
        # radial gradient against central differences of phi, step 1e-5
        h = 1e-5
        fd_u = (bl.phi_values(params, u + h, v) - bl.phi_values(params, u - h, v)) / (2 * h)
        fd_v = (bl.phi_values(params, u, v + h) - bl.phi_values(params, u, v - h)) / (2 * h)
        t = bl.bellman_tables(params.p, params.q, params.delta, u, v)
        rel = np.abs(t[2] - fd_u) / np.maximum(np.abs(t[2]), 1e-10)
        rel_v = np.abs(t[3] - fd_v) / np.maximum(np.abs(t[3]), 1e-10)
        worst_grad = max(worst_grad, rel.max(), rel_v.max())
        # Wirtinger gradient of Q against the real-coordinate differences
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi, size=400))
        ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=400))
        zs = u[:400] * ph
        es = v[:400] * ph2
        dz = -t[2][:400] * np.conj(zs) / (4 * u[:400])
        qx = (bl.q_values(params, zs + h, es) - bl.q_values(params, zs - h, es)) / (2 * h)
        qy = (bl.q_values(params, zs + 1j * h, es) - bl.q_values(params, zs - 1j * h, es)) / (2 * h)
        rel_q = np.abs(2 * dz.real - qx) / np.maximum(np.abs(qx), 1e-10)
        rel_qy = np.abs(-2 * dz.imag - qy) / np.maximum(np.abs(qy), 1e-10)
        worst_grad = max(worst_grad, rel_q.max(), rel_qy.max())
        # second form vs finite-difference Hessian at 200 points per p
        hh = 1e-4
        for k in range(200):
            uu, vv = 0.3 + 2.2 * rng.random(2)
            t1, t2 = uu**p, vv**params.q
            if abs(t1 - t2) <= 1e-2 * max(t1, t2, 1.0):
                continue
            xi = ComplexPair(uu * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                             vv * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            x0 = np.array([xi[0].real, xi[0].imag, xi[1].real, xi[1].imag])

            def q_at(xv):
                return orc.eval_Q(params, ComplexPair(xv[0] + 1j * xv[1],
                                                     xv[2] + 1j * xv[3]))

            H = np.zeros((4, 4))
            for i in range(4):
                for j in range(i, 4):
                    ei = np.zeros(4); ei[i] = hh
                    ej = np.zeros(4); ej[j] = hh
                    if i == j:
                        val = (q_at(x0 + ei) - 2 * q_at(x0) + q_at(x0 - ei)) / hh**2
                    else:
                        val = (q_at(x0 + ei + ej) - q_at(x0 + ei - ej)
                               - q_at(x0 - ei + ej) + q_at(x0 - ei - ej)) / (4 * hh**2)
                    H[i, j] = H[j, i] = val
            Hcl = -orc.neg_hess_matrix(params, xi)
            worst_hess = max(worst_hess,
                             np.linalg.norm(H - Hcl) / np.linalg.norm(Hcl))
        # interface C1 agreement
        for vv in rng.uniform(1e-2, 10.0, size=200):
            uu = vv ** (params.q / params.p)
            g1 = orc.grad_phi(params, uu, vv, region=orc.RegionLabel.REGION1)
            g2 = orc.grad_phi(params, uu, vv, region=orc.RegionLabel.REGION2)
            for a, b in zip(g1, g2):
                worst_iface = max(worst_iface,
                                  abs(a - b) / max(abs(a), abs(b), 1e-30))
    assert worst_grad < 1e-6
    assert worst_hess < 1e-5
    assert worst_iface < 1e-10
    _passline(2, f"gradient FD rel {worst_grad:.2e} < 1e-6, Hessian FD rel "
                 f"{worst_hess:.2e} < 1e-5, interface C1 {worst_iface:.2e} < 1e-10")


def test_criterion_03_semigroup_oracle():
    """Crank-Nicolson at dt = 1e-3 matches the dense exponential to relative
    1e-4 at t in {0.1, 1.0} on 1D and 2D problems (<= 512 unknowns), and the
    measured orders sit within 0.2 of 2 (CN) and 1 (BE)."""
    worst = 0.0
    for dim, N in ((1, 64), (2, 20)):
        g = _grid(dim, N, L=6.0)
        op = ops.assemble(g, ops.CoefficientField.identity(g),
                          ops.PotentialField.zero(g))
        assert op.n <= 512
        f, _ = ps.default_data(g)
        for t_end in (0.1, 1.0):
            steps = round(t_end / 1e-3)
            tg = sg.TimeGrid(dt=1e-3, T=t_end, scheme=sg.Scheme.CRANK_NICOLSON,
                             snapshot_stride=steps)
            traj = sg.evolve(op, f, tg, TIGHT)
            oracle = sg.dense_expm_oracle(op, f, t_end)
            rel = np.linalg.norm(traj.values[-1] - oracle.flat) \
                / np.linalg.norm(oracle.flat)
            assert rel <= 1e-4, (dim, t_end, rel)
            worst = max(worst, rel)
    # order ladder on the 1D problem
    g = _grid(1, 48, L=6.0)
    op = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    f, _ = ps.default_data(g)
    t_end = 0.08
    oracle = sg.dense_expm_oracle(op, f, t_end).flat
    slopes = {}
    for scheme, nominal in ((sg.Scheme.CRANK_NICOLSON, 2.0),
                            (sg.Scheme.BACKWARD_EULER, 1.0)):
        errs = []
        for dt in (8e-3, 4e-3, 2e-3):
            tg = sg.TimeGrid(dt=dt, T=t_end, scheme=scheme,
                             snapshot_stride=round(t_end / dt))
            traj = sg.evolve(op, f, tg, sg.SolverConfig(tol=1e-13))
            errs.append(np.linalg.norm(traj.values[-1] - oracle))
        ss = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in ss:
            assert abs(s - nominal) <= 0.2, (scheme, ss)
        slopes[scheme.value] = ss
    _passline(3, f"CN vs expm worst rel {worst:.2e} <= 1e-4; orders "
                 f"CN {slopes['crank-nicolson']}, BE {slopes['backward-euler']}")


def test_criterion_04_contraction_and_mass():
    """Backward Euler sup norms never grow by more than 1e-12 per step on
    monotone presets; periodic V = 0 mass drifts below 1e-10 over 200 steps."""
    worst_ratio = 0.0
    for preset, dim, N in (("identity", 1, 96), ("identity", 2, 16),
                           ("oscillator", 1, 96)):
        g = _grid(dim, N)
        op = ops.assemble(g, ps.coefficient_preset(preset, g),
                          ps.potential_preset(preset, g))
        assert op.is_monotone_stencil()
        f, _ = ps.default_data(g)
        tg = sg.TimeGrid(dt=0.005, T=0.3, scheme=sg.Scheme.BACKWARD_EULER)
        traj = sg.evolve(op, f, tg, sg.SolverConfig(tol=1e-13))
        rep = sg.linf_contraction_check(op, traj)
        assert rep.worst_ratio <= 1.0 + 1e-12, (preset, dim, rep.worst_ratio)
        worst_ratio = max(worst_ratio, rep.worst_ratio)
    g = Grid(cells=(96,), lo=(-4.0,), hi=(4.0,), boundary=Boundary.PERIODIC)
    op = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    f, _ = ps.default_data(g)
    tg = sg.TimeGrid(dt=5e-4, T=0.1, scheme=sg.Scheme.BACKWARD_EULER)
    traj = sg.evolve(op, f, tg, sg.SolverConfig(tol=1e-13))
    assert len(traj.times) == 201
    masses = traj.values.sum(axis=1).real * g.cell_volume
    drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    assert drift <= 1e-10
    _passline(4, f"sup-norm worst ratio {worst_ratio:.15f} <= 1+1e-12; "
                 f"mass drift {drift:.2e} <= 1e-10 over 200 steps")


def test_criterion_05_chain_rule_ladder():
    """sup |L'b - chain-rule form| falls by at least 1.8 per h-halving on the
    rotation preset (nonsymmetric A through the trajectories), and the
    factored form agrees with the a_ij double sum over the raw A to 1e-10,
    relative to max(1, |form|), at every node."""
    errs = []
    gap = 0.0
    for N, steps in ((16, 8), (32, 16), (64, 32)):
        spec = _scenario("rotation", 2, N, 4.0, T=0.2, steps=steps, f_scale=0.55 / 0.9)
        spec = dataclasses.replace(spec, g=spec.f)
        ev = hz.run_scenario(spec)
        cr, = hz.chain_rule_rhs(ev, [spec.params])
        oracle = orc.chain_rule_double_sum(ev, spec.params)
        gap = max(gap, float(np.max(np.abs(cr.rhs - oracle) / np.maximum(1.0, np.abs(cr.rhs)))))
        errs.append(hz.chain_rule_identity_error(ev, spec.params, cr))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert min(ratios) >= 1.8, (errs, ratios)
    assert gap <= 1e-10
    _passline(5, f"identity errors {[f'{e:.2e}' for e in errs]}, ratios "
                 f"{[f'{r:.2f}' for r in ratios]} >= 1.8; double-sum gap {gap:.2e}")


def test_criterion_06_pointwise_lower_bound(evolved_cells):
    """Worst slack >= -eps_h with the frozen eps_h = c1 h + c2 dt^2 on all
    five presets, n in {1, 2}, p in {2, 4}; the slack floor improves
    monotonically on a 3-level ladder."""
    worst_rel = np.inf
    all_params = [BellmanParams(2.0), BellmanParams(4.0)]
    for (preset, dim), ev in evolved_cells.items():
        for params, rep in zip(all_params, hz.pointwise_check(ev, all_params)):
            assert rep.ok, (preset, dim, params.p, rep.worst_slack, rep.eps_h)
            worst_rel = min(worst_rel, (rep.worst_slack + rep.eps_h) / rep.eps_h)
    floors = []
    for N, steps in ((16, 100), (32, 100), (64, 100)):
        spec = _scenario("identity", 2, N, 4.0, T=0.3, steps=steps)
        rep, = hz.pointwise_check(hz.run_scenario(spec), [spec.params])
        assert rep.ok
        floors.append(min(rep.worst_slack, 0.0))
    assert all(f1 >= f0 - 1e-12 for f0, f1 in zip(floors, floors[1:])), floors
    _passline(6, f"20 preset cells pass with min margin ratio {worst_rel:.3f}; "
                 f"ladder floors {[f'{f:.2e}' for f in floors]} improve monotonically")


def test_criterion_07_embedding(evolved_cells):
    """Sum and polarized product bounds hold with margin beyond the
    quadrature error estimate on every preset; the ratio against
    p ||f||_p ||g||_q stays bounded across n in {1, 2, 3}."""
    worst_sum = np.inf
    worst_prod = np.inf
    for (preset, dim), ev in evolved_cells.items():
        for p in (2.0, 4.0):
            rep = hz.embedding_check(ev, BellmanParams(p))
            assert rep.sum_margin > rep.quad_error_est, (preset, dim, p)
            assert rep.product_margin > rep.quad_error_est, (preset, dim, p)
            worst_sum = min(worst_sum, rep.sum_margin)
            worst_prod = min(worst_prod, rep.product_margin)
    ratios = {}
    for dim, N in ((1, 96), (2, 16), (3, 8)):
        spec = _scenario("identity", dim, N, 2.0, T=0.4, steps=200)
        rep = hz.embedding_check(hz.run_scenario(spec), spec.params)
        assert np.isfinite(rep.ratio_empirical)
        ratios[dim] = rep.ratio_empirical
    assert max(ratios.values()) < 10.0  # report-style: bounded, no sharp threshold
    _passline(7, f"worst sum margin {worst_sum:.3f}, worst product margin "
                 f"{worst_prod:.3f}; ratio across n={{1,2,3}}: "
                 + ", ".join(f"{d}: {r:.3f}" for d, r in ratios.items()))


def test_criterion_08_ibp_upper_bound():
    """I_{R,T} <= ||f||_p^p + ||g||_q^q + eps(R) with eps nonincreasing over
    R in {1/4, 3/8, 1/2} of the box half-width, and the cutoff-annulus flux
    decaying by at least a factor 2."""
    spec = _scenario("identity", 1, 128, 2.0, T=0.5, steps=250)
    half = 0.5 * (spec.grid.hi[0] - spec.grid.lo[0])
    spec = dataclasses.replace(spec, cutoff_radii=tuple(half * s for s in (0.25, 0.375, 0.5)))
    ev = hz.run_scenario(spec)
    rep = hz.ibp_upper_check(ev, spec.params)
    assert rep.ok
    eps = [r.eps_R for r in rep.rows]
    flux = [abs(r.flux_term) for r in rep.rows]
    assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(eps, eps[1:]))
    assert flux[0] >= 2.0 * flux[-1]
    _passline(8, f"I_RT margins {[f'{r.bound + r.eps_R - r.I_RT:.3f}' for r in rep.rows]}, "
                 f"eps(R) {[f'{e:.2e}' for e in eps]} nonincreasing, "
                 f"flux decay factor {flux[0] / flux[-1]:.1f} >= 2")


def test_criterion_09_offdiag_decay():
    """All three semigroup-derived operators show exponential off-diagonal
    decay on the 1D identity preset: negative slope against d^2/t with
    R^2 >= 0.9."""
    g = Grid(cells=(256,), lo=(-8.0,), hi=(8.0,), boundary=Boundary.DIRICHLET)
    op = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    datum = ps.make_bump(g, 0.0, 0.5, 1.0)
    fits = {}
    for rep in hz.offdiag_check(op, datum, 0.0, 0.5, (0.75, 1.25, 1.75, 2.25),
                                band_width=1.0, ts=(0.1, 0.2, 0.4)):
        which = rep.operator
        assert rep.slope < 0.0 and rep.r_squared >= 0.9, (which, rep.slope, rep.r_squared)
        fits[which] = (rep.slope, rep.r_squared)
    _passline(9, "; ".join(f"{k}: slope {v[0]:.3f}, R2 {v[1]:.3f}" for k, v in fits.items()))


def test_criterion_10_square_function():
    """The square function satisfies the eigenfunction identity
    G u = |grad u| / sqrt(2 lambda) on discrete Fourier modes to 1e-3."""
    g = Grid(cells=(64,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
    op = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    h = g.spacing[0]
    x = g.node_coords()[0]
    worst = 0.0
    for k in (1, 2, 3):
        lam = 2 * (1 - np.cos(2 * np.pi * k * h)) / h ** 2
        u = GridFunction(g, np.exp(2j * np.pi * k * x))
        T = 12.0 / (2 * lam)
        res = orc.square_function(op, u, T=T, dt=T / 1200)
        gsq = ops.grad_sq_at_nodes(g, np.stack([u.flat.real, u.flat.imag], axis=1)).sum(axis=1)
        expected = np.sqrt(gsq / (2 * lam))
        rel = np.abs(res.values.values - expected).max() / expected.max()
        assert rel <= 1e-3, (k, rel)
        worst = max(worst, rel)
    _passline(10, f"eigenmode identity worst rel {worst:.2e} <= 1e-3")
