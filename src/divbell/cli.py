"""Configuration-driven verification runner.

Subcommands map one-to-one onto the verification suites:

* ``bellman-verify``   pointwise certification of the Bellman function
* ``operator-verify``  discretization invariants of L_h
* ``semigroup-verify`` time stepping against oracles and conservation laws
* ``pointwise``        the pointwise lower bound on a scenario
* ``embed``            the bilinear embedding bounds on a scenario
* ``ibp``              the cutoff integration-by-parts upper bound
* ``offdiag``          off-diagonal decay fits
* ``sweep``            pointwise + embedding over presets x dimension x p

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error
(cutoff radii with 2R beyond the box half-width or fewer than two distinct
ones included, and a flag that the command does not read, such as
``--grid`` for ``sweep`` or ``--T`` for ``offdiag``), 3 numerical failure
(a solver did not converge, or a result failed its own error estimate).
Identical configuration and seed produce byte-identical output files.
``sweep`` builds each (preset, dimension) pair once, evolves all of them in
one batch on their shared time grid, and checks every p on each pair's
trajectories in one ``pointwise_check`` call, since P_t f and P_t g do not
depend on p; the exponent is an argument of every check.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from . import bellman as bl
from . import harness as hz
from . import operators as ops
from . import presets as ps
from . import semigroup as sg
from .errors import AccuracyError, ConfigError, ConvergenceError, DomainError
from .grids import Boundary, Grid, GridFunction
from .reports import Columns, FieldRows, Summary, emit_report, fmt, passes
from .scenario import build_scenario, load_scenario_file


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"--grid: expected N[,N[,N]], got {text!r}") from exc


def _scenario_from_args(args, name=None) -> hz.ScenarioSpec:
    sections = load_scenario_file(args.config) if args.config else None
    cells = _parse_grid(args.grid) if args.grid else None
    dim = len(cells) if cells else None
    return build_scenario(sections, preset=args.preset, dim=dim, cells=cells,
                          p=args.p, dt=args.dt, T=args.T, seed=args.seed,
                          name=name)


def _exponents(args) -> list[bl.BellmanParams]:
    """The ``BellmanParams`` of --p, or of p = 2, 3, 4 and 8 without it."""
    try:
        return [bl.BellmanParams(p) for p in ([args.p] if args.p is not None
                                              else [2.0, 3.0, 4.0, 8.0])]
    except DomainError as exc:
        raise ConfigError(f"--p: {exc}") from exc


def _check_table(values: dict[str, float]) -> tuple[list[str], Columns]:
    """A (check, value) table of the named values, in their order."""
    return ["check", "value"], Columns(list(values), list(values.values()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bellman_verify(args) -> tuple[Summary, dict]:
    all_params = _exponents(args)
    points = 10000 if args.points is None else args.points
    if points < 1:
        raise ConfigError(f"--points: expected a positive count, got {points}")
    summary = Summary()
    parts = []
    header = ["p", "index", "re_zeta", "im_zeta", "re_eta", "im_eta",
              "prop_i_slack", "tau", "margin_hessian", "margin_drift", "valid"]
    for params in all_params:
        p = params.p
        rng = ps.rng_for(args.seed, f"bellman-points-p{p}")
        zetas, etas = bl.sample_certification_points(params, points, rng)
        res = bl.certify_batch(params, zetas, etas)
        parts.append((np.full(len(zetas), p), np.arange(len(zetas)),
                      zetas.real, zetas.imag, etas.real, etas.imag, res["prop_i_slack"],
                      res["tau"], res["margin_hessian"], res["margin_drift"], res["valid"]))
        summary.add(f"range-bound(p={p:g})", float(res["prop_i_slack"].min()))
        shared = np.minimum(res["margin_hessian"], res["margin_drift"])
        summary.add(f"convexity+drift-tau(p={p:g})", float(shared.min()) + 1e-10,
                    note=f"{points} points, exact")
    return summary, {"bellman": (header, Columns(*map(np.concatenate, zip(*parts))))}


def cmd_operator_verify(args) -> tuple[Summary, dict]:
    spec = _scenario_from_args(args)
    grid, A, V = spec.grid, spec.coefficients, spec.potential
    summary = Summary()
    gamma = A.gamma
    summary.add("accretivity-gamma", gamma)
    checks = {"gamma": gamma}
    op = ops.assemble(grid, A, V)
    # the flux form's transpose is the flux form of A^T: L_h(A^T) = L_h(A)^T
    transposed = ops.assemble(grid, ops.CoefficientField(grid, np.swapaxes(A.values, -1, -2)), V)
    L = op.matrix
    worst_adj = float(abs(transposed.matrix - L.T).max() / abs(L).max())
    rng = ps.rng_for(args.seed, "operator-verify")
    G = op.gradient
    # numpy's max and min propagate NaN, where Python's drop it
    ell = []
    for _ in range(50):
        u = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        quad = np.vdot(u, L @ u).real
        bound = gamma * np.vdot(G @ u, G @ u).real + np.vdot(u, op.potential * u).real
        ell.append(quad - bound)
    worst_ell = float(np.min(ell))
    summary.add("adjoint-consistency", 1e-12 - worst_adj)
    checks["adjoint_gap"] = worst_adj
    summary.add("discrete-ellipticity", worst_ell + 1e-9)
    checks["ellipticity_slack"] = worst_ell
    sym = A.sym
    tol = 1e-12 * max(A.sup_norm, 1.0)
    # sym A is symmetric and keeps the quadratic form of A: xi^T (sym A) xi
    # = xi^T A xi for a random real xi at every sample
    xi = rng.standard_normal(sym.shape[:-1])
    form_sym, form_a = (np.einsum("...i,...ij,...j->...", xi, M, xi) for M in (sym, A.values))
    asym = np.max(np.abs(sym - np.swapaxes(sym, -1, -2)))
    form_gap = np.max(np.abs(form_sym - form_a) / np.sum(xi * xi, axis=-1))
    gap = float(np.maximum(asym, form_gap))
    summary.add("symmetrization", tol - gap)
    checks["symmetrization_gap"] = gap
    S = ops.matrix_sqrt_spd(sym)
    rec = np.abs(np.einsum("...ij,...jk->...ik", S, S) - sym).max()
    summary.add("sqrt-reconstruction", tol - rec)
    checks["sqrt_reconstruction"] = rec
    return summary, {"operator": _check_table(checks)}


def cmd_semigroup_verify(args) -> tuple[Summary, dict]:
    summary = Summary()
    checks = {}
    tight = sg.SolverConfig(tol=1e-13)
    # eigen-oracle for one backward Euler step
    g = Grid(cells=(64,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
    L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    h = g.spacing[0]
    x = g.node_coords()[0]
    dt = 1e-3
    one_step = sg.TimeGrid(dt=dt, T=dt, scheme=sg.Scheme.BACKWARD_EULER)
    errs = []
    for k in (1, 3, 7):
        lam = 2.0 * (1.0 - np.cos(2 * np.pi * k * h)) / h ** 2
        u = GridFunction(g, np.exp(2j * np.pi * k * x))
        u1 = sg.evolve(L, u, one_step, tight).values[-1]
        errs.append(np.abs(u1 - u.flat / (1 + dt * lam)).max())
    worst = float(np.max(errs))
    summary.add("eigenmode-step-oracle", 1e-10 - worst)
    checks["eigenmode_step_error"] = worst
    # Crank-Nicolson against the dense exponential
    gd = Grid(cells=(64,), lo=(-3.0,), hi=(3.0,), boundary=Boundary.DIRICHLET)
    Ld = ops.assemble(gd, ops.CoefficientField.identity(gd), ops.PotentialField.zero(gd))
    f = ps.make_bump(gd, 0.0, 1.0, 1.0)
    tg = sg.TimeGrid(dt=1e-3, T=0.1, scheme=sg.Scheme.CRANK_NICOLSON, snapshot_stride=100)
    traj = sg.evolve(Ld, f, tg, sg.SolverConfig(tol=1e-12))
    oracle = sg.dense_expm_oracle(Ld, f, 0.1)
    rel = float(np.linalg.norm(traj.values[-1] - oracle.flat)
                / np.linalg.norm(oracle.flat))
    summary.add("crank-nicolson-vs-expm", 1e-4 - rel)
    checks["cn_vs_expm_rel"] = rel
    # sup-norm contraction and mass conservation
    f2 = ps.make_bump(g, 0.5, 0.2, 1.0)
    tg2 = sg.TimeGrid(dt=5e-4, T=0.1, scheme=sg.Scheme.BACKWARD_EULER)
    traj2 = sg.evolve(L, f2, tg2, tight)
    rep = sg.linf_contraction_check(L, traj2)
    summary.add("sup-norm-contraction", sg.CONTRACTION_BOUND - rep.worst_ratio)
    checks["contraction_worst_ratio"] = rep.worst_ratio
    masses = traj2.values.sum(axis=1) * g.cell_volume
    drift = float(np.abs(masses - masses[0]).max() / abs(masses[0]))
    summary.add("mass-conservation", 1e-10 - drift)
    checks["mass_drift_rel"] = drift
    return summary, {"semigroup": _check_table(checks)}


def cmd_pointwise(args) -> tuple[Summary, dict]:
    spec = _scenario_from_args(args)
    ev = hz.run_scenario(spec, embedding=False)
    rep, = hz.pointwise_check(ev, [spec.params])
    header = ["x", "y", "z"][:spec.grid.dim] + ["t", "lhs", "rhs", "slack"]
    rows = FieldRows(spec.grid.node_coords(), ev.traj_f.times,
                     (rep.lhs, rep.rhs, rep.slack))
    summary = Summary()
    summary.add_margins(rep.margins, {"pointwise-lower-bound":
                                      f"eps_h={fmt(rep.eps_h)}, mollified={rep.n_mollified}"})
    return summary, {"pointwise": (header, rows)}


def cmd_embed(args) -> tuple[Summary, dict]:
    spec = _scenario_from_args(args)
    # the check reads only the per-step products and the last snapshots
    tg = dataclasses.replace(spec.timegrid, snapshot_stride=spec.timegrid.n_steps)
    ev = hz.run_scenario(dataclasses.replace(spec, timegrid=tg))
    rep = hz.embedding_check(ev, spec.params)
    header = [f.name for f in dataclasses.fields(rep)]
    rows = Columns(*([np.nan if v is None else v] for v in dataclasses.astuple(rep)))
    summary = Summary()
    summary.add_margins(rep.margins, {"embedding-energy-bound":
                                      f"tol={fmt(rep.quad_error_est)}"})
    return summary, {"embed": (header, rows)}


def cmd_ibp(args) -> tuple[Summary, dict]:
    spec = _scenario_from_args(args)
    ev = hz.run_scenario(spec, embedding=False)
    rep = hz.ibp_upper_check(ev, spec.params)
    header = ["R", "term", "value"]
    terms = ("I_RT", "bound", "eps_R", "time_term", "flux", "potential_term")
    values = [(r.I_RT, r.bound, r.eps_R, r.time_term, r.flux_term, r.potential_term)
              for r in rep.rows]
    rows = Columns(np.repeat([r.R for r in rep.rows], len(terms)),
                   np.tile(terms, len(rep.rows)), np.ravel(values))
    summary = Summary()
    summary.add_margins(rep.margins)
    return summary, {"ibp": (header, rows)}


def cmd_offdiag(args) -> tuple[Summary, dict]:
    spec = _scenario_from_args(args)
    wmin = min(b - a for a, b in zip(spec.grid.lo, spec.grid.hi))
    e_radius = 0.0625 * wmin
    center = tuple(0.5 * (a + b) for a, b in zip(spec.grid.lo, spec.grid.hi))
    datum = ps.make_bump(spec.grid, center, e_radius, 1.0)
    if not np.any(datum.values):
        raise ConfigError(f"offdiag: the near-set datum of radius {e_radius:g} vanishes at "
                          f"every node of a grid of spacing {min(spec.grid.spacing):g}; "
                          "refine the grid")
    op = ops.assemble(spec.grid, spec.coefficients, spec.potential)
    distances = tuple(wmin * s for s in (0.09, 0.15, 0.21, 0.27))
    ts = (0.1, 0.2, 0.4)
    header = ["operator", "t", "distance", "ratio", "d2_over_t", "excluded"]
    rows = []
    summary = Summary()
    for rep in hz.offdiag_check(op, datum, center, e_radius, distances,
                                band_width=0.06 * wmin, ts=ts):
        for smp in rep.samples:
            rows.append((rep.operator, smp.t, smp.distance, smp.ratio,
                         smp.distance ** 2 / smp.t, smp.excluded))
        note = (f"slope={fmt(rep.slope)}, C={fmt(rep.fitted_C)}, "
                f"c={fmt(rep.fitted_c)}")
        summary.add_margins(rep.margins, dict.fromkeys(rep.margins, note))
    return summary, {"offdiag": (header, Columns(*zip(*rows)))}


def cmd_sweep(args) -> tuple[Summary, dict]:
    header = ["preset", "dim", "p", "gamma", "worst_slack", "eps_h",
              "sum_margin", "product_margin", "ratio_empirical", "pass"]
    all_params = _exponents(args)
    cells = [(preset, dim) for preset in ps.PRESET_NAMES for dim in (1, 2)]
    specs = [build_scenario(None, preset=preset, dim=dim,
                            cells=(96,) if dim == 1 else (16,) * dim,
                            seed=args.seed, name=f"{preset}-{dim}d")
             for preset, dim in cells]
    rows = []
    summary = Summary()
    # the cells share one time grid, so one batch evolves them all; the
    # trajectories do not depend on p, so each cell's are checked at every p
    for (preset, dim), ev in zip(cells, hz.run_scenarios(specs)):
        for params, pw in zip(all_params, hz.pointwise_check(ev, all_params)):
            em = hz.embedding_check(ev, params)
            rows.append((preset, dim, params.p, ev.op.coefficients.gamma, pw.worst_slack,
                         pw.eps_h, em.sum_margin, em.product_margin, em.ratio_empirical,
                         pw.ok and em.ok))
            # the arrangement gap's margin is about 1e-10 on every passing
            # row, so it would hide the others; it enters only when it fails
            margins = [m for name, m in {**pw.margins, **em.margins}.items()
                       if name != "chain-rule-arrangements" or not passes(m)]
            summary.add(f"sweep({preset}, n={dim}, p={params.p:g})", np.min(margins))
    return summary, {"sweep": (header, Columns(*zip(*rows)))}


COMMANDS = {
    "bellman-verify": cmd_bellman_verify,
    "operator-verify": cmd_operator_verify,
    "semigroup-verify": cmd_semigroup_verify,
    "pointwise": cmd_pointwise,
    "embed": cmd_embed,
    "ibp": cmd_ibp,
    "offdiag": cmd_offdiag,
    "sweep": cmd_sweep,
}

# The optional flags each command reads, besides --out, --seed and --quiet;
# given to any other command, a flag is a configuration error.
_SCENARIO_FLAGS = ("config", "grid", "preset", "p", "dt", "T")
_READS = {"bellman-verify": ("p", "points"), "semigroup-verify": (), "sweep": ("p",),
         **dict.fromkeys(("operator-verify", "offdiag"), ("config", "grid", "preset")),
         **dict.fromkeys(("pointwise", "embed", "ibp"), _SCENARIO_FLAGS)}


def _check_flags(args) -> None:
    for flag in (*_SCENARIO_FLAGS, "points"):
        if getattr(args, flag) is not None and flag not in _READS[args.command]:
            raise ConfigError(f"{args.command} does not read --{flag}")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="divbell",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", metavar="PATH", help="scenario file")
    ap.add_argument("--out", metavar="DIR", default="divbell-out",
                    help="output directory (default: divbell-out)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p", type=float, default=None, help="exponent p >= 2")
    ap.add_argument("--grid", metavar="N[,N[,N]]", default=None)
    ap.add_argument("--dt", type=float, default=None)
    ap.add_argument("--T", type=float, default=None)
    ap.add_argument("--preset", choices=ps.PRESET_NAMES, default=None)
    ap.add_argument("--points", type=int, default=None,
                    help="sample count for bellman-verify (default 10000)")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--version", action="version", version=__version__)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _check_flags(args)
        summary, tables = COMMANDS[args.command](args)
        emit_report(summary, tables, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        sys.stdout.write(summary.render())
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
