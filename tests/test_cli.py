"""Tests for the scenario file format, presets, and the CLI runner."""

import ast
import filecmp
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import divbell.bellman as bl
import divbell.cli as cli
import divbell.harness as hz
import divbell.operators as ops
import divbell.presets as ps
from divbell.cli import COMMANDS, main, make_parser
from divbell.errors import ConfigError
from divbell.grids import Boundary, Grid, GridFunction
from divbell.reports import Columns, FieldRows, fmt
from divbell.scenario import build_scenario, parse_scenario_text
from divbell.semigroup import evolve
from oracles import _assemble_neg_hess, field_rows, second_order_ref, smooth_random_full

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _benchmark_workloads() -> dict:
    """``WORKLOADS`` of perfbench/run.py, read as a literal without importing
    the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no WORKLOADS")


SCENARIO_TEXT = """
# example scenario
[grid]
dim = 1
cells = 64
lo = -4.0
hi = 4.0
boundary = dirichlet

[bellman]
p = 3.0

[coefficients]
preset = checker

[data]
f = bump -0.4 1.4 0.9
g = bump 0.4 1.2 0.7

[time]
T = 0.2
dt = 0.002

[cutoff]
radii = 1.0 1.5 2.0
"""


class TestScenarioFormat:
    def test_roundtrip(self):
        s = parse_scenario_text(SCENARIO_TEXT)
        assert s["grid"]["cells"] == "64"
        assert s["bellman"]["p"] == "3.0"
        spec = build_scenario(s)
        assert spec.grid.cells == (64,)
        assert spec.params.p == 3.0
        assert spec.cutoff_radii == (1.0, 1.5, 2.0)
        assert spec.timegrid.dt == pytest.approx(0.002)
        # T / dt is an exact divisor up to rounding: the count is kept
        assert spec.timegrid.n_steps == 100

    def test_step_never_exceeds_requested(self):
        # T / dt = 1.5 steps: two steps of 0.15, not one of 0.3
        spec = build_scenario(None, dt=0.2, T=0.3)
        assert spec.timegrid.dt <= 0.2
        assert spec.timegrid.n_steps == 2

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_scenario_text("[grid]\ndim = 1\nbogus line without equals\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_scenario_text("dim = 1\n")

    def test_bad_number(self):
        s = parse_scenario_text("[bellman]\np = two\n")
        with pytest.raises(ConfigError, match=r"\[bellman\] p"):
            build_scenario(s)

    def test_unknown_preset(self):
        s = parse_scenario_text("[coefficients]\npreset = wavy\n")
        with pytest.raises(ConfigError, match="preset"):
            build_scenario(s)

    def test_invalid_potential_is_config_error(self):
        text = "[grid]\ndim = 1\ncells = 4\n[potential]\nvalues = -1 0 1\n"
        with pytest.raises(ConfigError, match="potential"):
            build_scenario(parse_scenario_text(text))

    def test_bad_exponent_rejected_before_compute(self):
        with pytest.raises(ConfigError):
            build_scenario(None, p=1.2)


class TestPresets:
    @pytest.mark.parametrize("name", ps.PRESET_NAMES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_all_presets_admissible(self, name, dim):
        n = 12 if dim < 3 else 6
        g = Grid(cells=(n,) * dim, lo=(-4.0,) * dim, hi=(4.0,) * dim,
                 boundary=Boundary.DIRICHLET)
        A = ps.coefficient_preset(name, g, seed=5)
        V = ps.potential_preset(name, g, seed=5)
        assert A.gamma > 0.0
        assert np.all(V.values >= 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_smooth_random_matches_full_array_oracle(self, dim):
        # cosines on the 1D axes, multiplied by broadcasting, give the same
        # floats as the product formed on the full coordinate arrays
        g = Grid(cells=(24, 20, 16)[:dim], lo=(-4.0, -3.0, -2.5)[:dim],
                 hi=(4.0, 3.5, 2.0)[:dim], boundary=Boundary.DIRICHLET)
        for axes, coords in (([g.axis_vertices(a) for a in range(dim)], g.vertex_coords()),
                             ([g.axis_nodes(a) for a in range(dim)], g.node_coords())):
            fast = ps._smooth_random(axes, g, ps.rng_for(3, "coefficients"))
            full = smooth_random_full(coords, g, ps.rng_for(3, "coefficients"))
            assert fast.shape == coords[0].shape
            assert np.array_equal(fast, full)

    @pytest.mark.parametrize("preset, calls", [("random-accretive", 2), ("identity", 1)])
    def test_one_eigvalsh_per_field(self, preset, calls, monkeypatch):
        # build plus assemble: accretivity is decided once per field, and
        # the random-accretive clamp reads one more field's least_eig
        count = [0]
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            count[0] += 1
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        spec = build_scenario(None, preset=preset, dim=2, cells=(12, 12))
        ops.assemble(spec.grid, spec.coefficients, spec.potential)
        assert count[0] == calls

    def test_random_accretive_clamped(self):
        g = Grid(cells=(16, 16), lo=(-4.0, -4.0), hi=(4.0, 4.0),
                 boundary=Boundary.DIRICHLET)
        A = ps.coefficient_preset("random-accretive", g, seed=11, gamma_min=0.5)
        assert A.gamma >= 0.5 - 1e-12

    def test_rotation_modulation_vanishes_on_boundary(self):
        g = Grid(cells=(8, 8), lo=(0.0, 0.0), hi=(1.0, 1.0),
                 boundary=Boundary.DIRICHLET)
        A = ps.coefficient_preset("rotation", g, beta=0.7)
        off = A.values[..., 0, 1]
        assert np.abs(off[0, :]).max() <= 1e-12
        assert np.abs(off[:, 0]).max() <= 1e-12

    def test_seed_streams_independent(self):
        a = ps.rng_for(7, "coefficients").standard_normal(4)
        b = ps.rng_for(7, "potential").standard_normal(4)
        a2 = ps.rng_for(7, "coefficients").standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)

    def test_default_data_margin(self):
        g = Grid(cells=(32, 32), lo=(-4.0, -4.0), hi=(4.0, 4.0),
                 boundary=Boundary.DIRICHLET)
        f, gg = ps.default_data(g)
        for gf in (f, gg):
            mask = np.abs(gf.values) > 0
            for a, x in enumerate(g.node_coords()):
                xs = x[mask]
                width = g.hi[a] - g.lo[a]
                assert xs.min() - g.lo[a] >= 0.25 * width
                assert g.hi[a] - xs.max() >= 0.25 * width


class TestCli:
    def test_bellman_verify_exit_zero(self, tmp_path):
        rc = main(["bellman-verify", "--p", "2", "--points", "500",
                   "--seed", "7", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "bellman.csv").exists()
        assert (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_bellman_valid_rows_have_exact_margin(self, tmp_path, seed):
        # the benchmark's seeds and point count: every row marked valid has
        # a smallest eigenvalue of -d2Q - delta*diag(tau, tau, 1/tau, 1/tau)
        # >= -1e-10 at the tau it reports, by an eigvalsh oracle
        rc = main(["bellman-verify", "--points", "2500", "--seed", str(seed),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "bellman.csv", delimiter=",", skiprows=1)
        for p in (2.0, 3.0, 4.0, 8.0):
            sel = rows[(rows[:, 0] == p) & (rows[:, 10] == 1)]
            assert sel.shape[0] == 2500
            params = bl.BellmanParams(p)
            u, v, ph1, ph2 = bl._phases(sel[:, 2] + 1j * sel[:, 3], sel[:, 4] + 1j * sel[:, 5])
            mats = _assemble_neg_hess(*bl._form_coeffs(params, u, v), ph1, ph2)
            tau = sel[:, 7]
            w = np.stack([tau, tau, 1.0 / tau, 1.0 / tau], axis=1)
            lam = np.linalg.eigvalsh(mats - params.delta * w[:, :, None] * np.eye(4))
            assert lam[:, 0].min() >= -1e-10, f"p={p}"

    def test_negative_potential_in_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.scenario"
        cfg.write_text("[grid]\ndim = 1\ncells = 4\n"
                       "[potential]\nvalues = -1 0 1\n")
        rc = main(["pointwise", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 2

    def test_unreadable_config_exits_two(self, tmp_path):
        rc = main(["pointwise", "--config", str(tmp_path / "missing.scenario"),
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2

    def test_pointwise_csv_schema(self, tmp_path):
        rc = main(["pointwise", "--preset", "identity", "--grid", "48",
                   "--T", "0.1", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header = (tmp_path / "pointwise.csv").read_text().splitlines()[0]
        assert header == "x,t,lhs,rhs,slack"

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = main(["bellman-verify", "--p", "3", "--points", "300",
                       "--seed", "42", "--out", str(out), "--quiet"])
            assert rc == 0
        assert filecmp.cmp(a / "bellman.csv", b / "bellman.csv", shallow=False)
        assert filecmp.cmp(a / "summary.txt", b / "summary.txt", shallow=False)

    def test_pointwise_byte_identical(self, tmp_path):
        # mollified nodes included; every line equals the fmt rendering
        args = ["pointwise", "--preset", "random-accretive", "--grid", "12,12",
                "--p", "4", "--T", "0.1", "--seed", "3", "--quiet"]
        for out in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / out)]) == 0
        assert filecmp.cmp(tmp_path / "a" / "pointwise.csv", tmp_path / "b" / "pointwise.csv",
                           shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "summary.txt", tmp_path / "b" / "summary.txt",
                           shallow=False)
        assert "mollified=0]" not in (tmp_path / "a" / "summary.txt").read_text()
        header, rows = COMMANDS["pointwise"](make_parser().parse_args(args))[1]["pointwise"]
        expected = "".join(",".join(fmt(x) for x in row) + "\n"
                           for row in [header] + list(field_rows(rows)))
        assert (tmp_path / "a" / "pointwise.csv").read_text() == expected

    def test_pointwise_chain_rule_matches_reference_tables(self, monkeypatch):
        # the scenario above, with the branch-select second_order patched
        # in for every table: exact and mollified nodes, the t = 0 nodes on
        # the eta = 0 ray included
        args = make_parser().parse_args(["pointwise", "--preset", "random-accretive",
                                         "--grid", "12,12", "--p", "4", "--T", "0.1",
                                         "--seed", "3"])
        spec = cli._scenario_from_args(args)
        ev = hz.run_scenario(spec, embedding=False)
        runs = []
        for second_order in (bl.second_order, second_order_ref):
            monkeypatch.setattr(bl, "second_order", second_order)
            runs.append(hz.chain_rule_rhs(spec.params, ev.op, ev.traj_f, ev.traj_g))
        cr, ref = runs
        assert cr.n_mollified == ref.n_mollified > 0
        assert np.abs(ref.rhs[0]).max() > 1e90      # t = 0, on the eta = 0 ray
        for fld, ref_fld in ((cr.rhs, ref.rhs), (cr.rhs_aij, ref.rhs_aij)):
            assert (np.abs(fld - ref_fld) <= 1e-12 * np.maximum(1.0, np.abs(ref_fld))).all()

    def test_operator_and_semigroup_verify(self, tmp_path):
        rc = main(["operator-verify", "--preset", "random-accretive",
                   "--grid", "10,10", "--seed", "1",
                   "--out", str(tmp_path / "op"), "--quiet"])
        assert rc == 0
        rc = main(["semigroup-verify", "--out", str(tmp_path / "sg"), "--quiet"])
        assert rc == 0

    def test_sweep_row_count(self, tmp_path):
        rc = main(["sweep", "--p", "2", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        # header + one row per preset x dimension
        assert len(rows) == 1 + len(ps.PRESET_NAMES) * 2

    def test_sweep_evolves_once_per_scenario(self, tmp_path, monkeypatch):
        # P_t f and P_t g do not depend on p: each (preset, dim) pair is
        # built once, and one batch evolves every pair's f and g once for
        # the 4 default exponents
        calls = {"evolve": 0, "build": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(hz, "evolve", counting("evolve", evolve))
        monkeypatch.setattr(cli, "build_scenario", counting("build", build_scenario))
        rc = main(["sweep", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert calls == {"evolve": 1, "build": len(ps.PRESET_NAMES) * 2}
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + len(ps.PRESET_NAMES) * 2 * 4

    @pytest.mark.parametrize("argv", [
        ["bellman-verify", "--p", "1.5"],
        ["bellman-verify", "--p", "0", "--points", "10"],
        ["bellman-verify", "--points", "0"],
        ["bellman-verify", "--points", "-3"],
        ["embed", "--T", "0"],
        ["pointwise", "--dt", "0"],
        ["pointwise", "--T", "-1"],
        ["pointwise", "--dt", "-1"],
        ["pointwise", "--dt", "5"],
    ])
    def test_invalid_numeric_input_exits_two(self, argv, tmp_path, capsys):
        rc = main(argv + ["--out", str(tmp_path), "--quiet"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_embed_stores_only_the_end_snapshots(self, tmp_path, monkeypatch):
        # embedding_check reads the per-step products and the last snapshots
        trajs = []

        def recording_evolve(*args, **kwargs):
            trajs.append(evolve(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(hz, "evolve", recording_evolve)
        assert main(["embed", "--grid", "64", "--out", str(tmp_path), "--quiet"]) == 0
        ((traj,),) = trajs
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(0.3)
        assert traj.values.shape[1] == 2 and len(traj.stats) > 1

    def test_embed_and_ibp_and_offdiag(self, tmp_path):
        for cmd in ("embed", "ibp", "offdiag"):
            rc = main([cmd, "--preset", "identity", "--grid", "64",
                       "--T", "0.4", "--out", str(tmp_path / cmd), "--quiet"])
            assert rc == 0, cmd

    @pytest.mark.parametrize("p", ["200", "1000"])
    def test_pointwise_at_large_p(self, p, tmp_path):
        # u^p underflows to 0 on the v = 0 ray, where the capped mollification
        # scale is 0 too; such nodes keep the exact form
        rc = main(["pointwise", "--p", p, "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert "FAIL" not in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("argv,config", [
        (["--dt", "0.3"], None),
        ([], "[time]\nT = 0.3\ndt = 0.01\nsnapshot-stride = 30\n"),
    ], ids=["one-step", "stride-equals-steps"])
    def test_ibp_with_two_snapshots_exits_two(self, argv, config, tmp_path, capsys):
        # a valid time grid, but the time derivative needs 3 snapshots
        if config is not None:
            cfg = tmp_path / "two.scenario"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        rc = main(["ibp", *argv, "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert "2 snapshots" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_solver_nonconvergence_exits_three(self, tmp_path):
        # a stiff 2D step with one Krylov cycle cannot reach rtol 1e-15
        cfg = tmp_path / "stall.scenario"
        cfg.write_text("[grid]\ndim = 2\ncells = 64 64\n"
                       "[time]\nT = 0.5\ndt = 0.5\n"
                       "[solver]\ntol = 1e-15\nmax-iter = 1\n")
        rc = main(["pointwise", "--config", str(cfg),
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 3

    def test_residual_gate_binds_on_direct_path(self, tmp_path):
        # 225 unknowns take the SuperLU path, whose residual (~1e-16) is
        # still gated against 10 * tol
        cfg = tmp_path / "tight.scenario"
        cfg.write_text("[grid]\ndim = 2\ncells = 16 16\n"
                       "[solver]\ntol = 1e-30\n")
        rc = main(["pointwise", "--config", str(cfg),
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 3

    @pytest.mark.parametrize("text, where", [
        ("[tiem]\nT = 0.3\n", "[tiem]"),
        ("[solver]\nprecondtioner = none\n", "[solver] precondtioner"),
        ("[solver]\nmethod = gmres\n", "[solver] method"),
        ("[solver]\npreconditioner = none\n", "[solver] preconditioner"),
        ("[solver]\ntol = 0\n", "[solver] tol"),
        ("[solver]\ntol = nan\n", "[solver] tol"),
        ("[solver]\nmax-iter = 0\n", "[solver] max-iter"),
        ("[solver]\nmax-iter = -5\n", "[solver] max-iter"),
        ("[time]\nsnapshot-stride = -2\n", "[time] snapshot-stride"),
        ("[grid]\ncells = 3x\n", "[grid] cells"),
        ("[data]\nf =\n", "[data] f"),
        ("[cutoff]\nradii =\n", "[cutoff] radii"),
        ("[cutoff]\nradii = 1.0 -1\n", "[cutoff] radii"),
        ("[cutoff]\nradii = 0\n", "[cutoff] radii"),
        ("[cutoff]\nradii = nan 1.0\n", "[cutoff] radii"),
        ("[cutoff]\nradii = 1.0 3.0\n", "[cutoff] radii"),
        ("[coefficients]\nbeta = nan\n", "[coefficients] beta"),
        ("[coefficients]\ngamma-min = inf\n", "[coefficients] gamma-min"),
        ("[coefficients]\nvalues = " + "1 " * 32 + "nan\n", "[coefficients] values"),
        ("[potential]\nvalues = " + "0 " * 30 + "nan\n", "[potential] values"),
        ("[data]\nf = bump 0 nan 1\n", "[data] f"),
        ("[data]\ng = bump 0 1 inf\n", "[data] g"),
        ("[data]\nf = bump 0 0 1\n", "[data] f"),
        ("[grid]\nlo = -inf\n", "[grid] extent"),
        ("[data]\ng = bump 0.03 0.01 1\n", "[data] g: the datum vanishes at every node"),
    ], ids=["unknown-section", "unknown-key", "removed-method", "removed-preconditioner",
            "zero-tol", "nan-tol", "zero-max-iter", "negative-max-iter",
            "negative-stride", "non-integer-cells", "empty-datum",
            "empty-radii", "negative-radius", "zero-radius", "nan-radius",
            "radius-beyond-half-width",
            "nan-beta", "inf-gamma-min", "nan-coefficient", "nan-potential",
            "nan-bump-radius", "inf-bump-amp", "zero-bump-radius", "infinite-extent",
            "vanishing-datum"])
    def test_invalid_scenario_file_exits_two(self, text, where, tmp_path, capsys):
        cfg = tmp_path / "bad.scenario"
        cfg.write_text("[grid]\ndim = 1\ncells = 32\n" + text)
        rc = main(["pointwise", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and where in err

    def test_data_vanishing_on_the_grid_exit_two(self, tmp_path, capsys):
        # the default bumps cover no node of a 3 x 3 grid
        rc = main(["embed", "--grid", "3,3", "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        assert "[data] f: the datum vanishes at every node" in capsys.readouterr().err

    def test_offdiag_datum_vanishing_on_the_grid_exits_two(self, tmp_path, capsys):
        # h = 8/7 exceeds the near-set radius 0.5, so the bump covers no node
        rc = main(["offdiag", "--grid", "7", "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "offdiag: the near-set datum" in err and "spacing 1.14286" in err

    def test_embed_passes_at_large_p(self, tmp_path, capsys):
        # 0.9^p underflows from p of about 7,000; the norms must not
        rc = main(["embed", "--p", "7500", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out and out.count("PASS") == 3

    def test_accuracy_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        # every off-diagonal ratio sits at or below an infinite floor, so
        # too few samples remain to fit: AccuracyError
        monkeypatch.setattr(hz, "FLOAT_FLOOR", np.inf)
        rc = main(["offdiag", "--grid", "32", "--out", str(tmp_path), "--quiet"])
        assert rc == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_arrangement_gap_fails_its_line(self, tmp_path, capsys, monkeypatch):
        # any arrangement gap exceeds a negative tolerance
        monkeypatch.setattr(hz, "ARRANGEMENT_TOL", -1.0)
        rc = main(["pointwise", "--grid", "32", "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "PASS  pointwise-lower-bound" in out
        assert "FAIL  chain-rule-arrangements" in out
        assert (tmp_path / "pointwise.csv").exists()

    def test_nan_operator_fails_operator_verify(self, tmp_path, capsys, monkeypatch):
        # a NaN in L_h makes the ellipticity slack NaN, which must FAIL
        assemble = ops.assemble

        def nan_assemble(*args, **kwargs):
            op = assemble(*args, **kwargs)
            op.matrix.data[0] = np.nan
            return op

        monkeypatch.setattr(cli.ops, "assemble", nan_assemble)
        rc = main(["operator-verify", "--preset", "identity", "--grid", "8,8",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL  discrete-ellipticity" in capsys.readouterr().out

    def test_nan_step_fails_semigroup_verify(self, tmp_path, capsys, monkeypatch):
        def nan_evolve(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            traj.values[...] = np.nan
            return traj

        monkeypatch.setattr(cli.sg, "evolve", nan_evolve)
        rc = main(["semigroup-verify", "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL  eigenmode-step-oracle" in capsys.readouterr().out


def _run_command(argv):
    """A command's summary; every line passes exactly when its margin is positive."""
    summary, _ = COMMANDS[argv[0]](make_parser().parse_args(argv))
    for c in summary.checks:
        assert c.passed == (c.margin > 0), (c.name, c.margin)
    return {c.name: c for c in summary.checks}


class TestMarginsMatchVerdicts:
    """Each summary margin is the distance to the threshold of its check,
    and the line's verdict is that margin's sign."""

    def test_offdiag_rising_fit_fails_with_nonpositive_margin(self, monkeypatch):
        def rising(op, *args, **kwargs):
            return tuple(hz.OffdiagReport(operator=which, samples=[], slope=0.5,
                                          intercept=0.0, r_squared=0.95, n_excluded=0)
                         for which in hz.OFFDIAG_OPERATORS)

        monkeypatch.setattr(hz, "offdiag_check", rising)
        checks = _run_command(["offdiag", "--grid", "32"])
        assert not checks["offdiag-decay(P)"].passed
        assert checks["offdiag-decay(P)"].margin == -0.5

    @pytest.mark.parametrize("eps, passed", [([1.0, 1.0 + 5e-7], True),
                                             ([2.0, 0.5, 1.0], False),
                                             ([1.0, np.nan, 0.5], False)])
    def test_ibp_eps_margin_is_the_pairwise_rule(self, eps, passed, monkeypatch):
        rows = [hz.IbpRow(R=0.5 * (k + 1), I_RT=0.0, bound=1.0, eps_R=e, time_term_quad=0.0,
                          time_term_exact=0.0, flux_term=0.0, potential_term=0.0)
                for k, e in enumerate(eps)]
        monkeypatch.setattr(hz, "run_scenario", lambda spec, embedding=True: None)
        monkeypatch.setattr(hz, "ibp_upper_check", lambda ev: hz.IbpReport(rows, 0.0, 0.0))
        assert _run_command(["ibp", "--grid", "32"])["ibp-eps-nonincreasing"].passed == passed

    def test_ibp_margins_are_its_summary_lines(self, monkeypatch):
        reports = []
        ibp_upper_check = hz.ibp_upper_check

        def recorded(ev):
            reports.append(ibp_upper_check(ev))
            return reports[-1]

        monkeypatch.setattr(hz, "ibp_upper_check", recorded)
        checks = _run_command(["ibp", "--grid", "32"])
        names = list(reports[0].margins)
        assert names == list(checks)
        assert all(n.startswith("ibp-upper-bound(R=") for n in names[:-4])
        assert names[-4:] == ["ibp-eps-nonincreasing", "ibp-flux-decay",
                              "ibp-initial-nodewise-bound", "ibp-final-nonpositive"]
        # the nodewise bound reads as a relative slack, not the 1e-300 floor
        assert checks["ibp-initial-nodewise-bound"].margin > 0.1

    def test_ibp_radii_that_print_alike_keep_the_worst_margin(self):
        rows = [hz.IbpRow(R=0.5, I_RT=i, bound=1.0, eps_R=0.0, time_term_quad=0.0,
                          time_term_exact=0.0, flux_term=1.0, potential_term=0.0)
                for i in (0.0, 2.0, np.nan)]
        rep = hz.IbpReport(rows[:2], 1.0, 1.0)
        assert rep.margins["ibp-upper-bound(R=0.5)"] == -1.0
        assert np.isnan(hz.IbpReport(rows[::2], 1.0, 1.0).margins["ibp-upper-bound(R=0.5)"])

    @pytest.mark.parametrize("shift, failing", [(0.0, None),
                                                (1.0, "ibp-final-nonpositive"),
                                                (-1e6, "ibp-initial-nodewise-bound")],
                             ids=["as-is", "positive-final-b", "large-initial-b"])
    def test_ibp_nodewise_and_final_margins(self, shift, failing, monkeypatch):
        compose_b = hz.compose_b
        monkeypatch.setattr(hz, "compose_b", lambda *args: compose_b(*args) + shift)
        checks = _run_command(["ibp", "--grid", "32"])
        for name in ("ibp-initial-nodewise-bound", "ibp-final-nonpositive"):
            assert checks[name].passed == (name != failing)
            assert checks[name].margin != 0.0

    def test_arrangement_gap_fails_with_negative_margin(self, monkeypatch):
        monkeypatch.setattr(hz, "ARRANGEMENT_TOL", -1.0)
        checks = _run_command(["pointwise", "--grid", "32"])
        assert len(checks) == 2 and checks["pointwise-lower-bound"].passed
        check = checks["chain-rule-arrangements"]
        assert not check.passed and check.margin <= -1.0

    @pytest.mark.parametrize("sum_margin, energy_margin, gap",
                             [(1.0, -1.0, 0.0), (5e-4, 1.0, 0.0), (1.0, 1.0, 1e-6)],
                             ids=["energy-form", "quad-error", "arrangement-gap"])
    def test_sweep_margin_covers_every_form(self, sum_margin, energy_margin, gap,
                                            monkeypatch):
        g = Grid(cells=(4,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
        op = ops.DiscreteOperator(None, None, None,
                                  coefficients=ops.CoefficientField.identity(g))
        ev = hz.EvolvedScenario(None, op, None, None)
        em = hz.EmbeddingReport(
            E_T=1.0, tail=0.0, norm_f_p=1.0, norm_g_q=1.0, gamma=1.0, sum_bound=2.0,
            sum_margin=sum_margin, lambda_star=1.0, product_bound=2.0, product_margin=1.0,
            ratio_empirical=0.5, energy_bound=2.0, energy_margin=energy_margin,
            quad_error_est=1e-3)
        pw = hz.PointwiseReport(worst_slack=0.1, eps_h=0.01, lhs=None, rhs=None, slack=None,
                                arrangement_gap=gap)
        monkeypatch.setattr(hz, "run_scenarios", lambda specs, embedding=True: [ev] * len(specs))
        monkeypatch.setattr(hz, "pointwise_check", lambda ev: pw)
        monkeypatch.setattr(hz, "embedding_check", lambda ev: em)
        checks = _run_command(["sweep", "--p", "4"])
        assert len(checks) == 2 * len(ps.PRESET_NAMES)
        assert not any(c.passed for c in checks.values())

    def test_convexity_margin_includes_the_tolerance(self, monkeypatch):
        certify = bl.certify_batch

        def just_below_zero(*args, **kwargs):
            res = certify(*args, **kwargs)
            res["margin_hessian"] = np.full_like(res["margin_hessian"], -5e-11)
            return res

        monkeypatch.setattr(bl, "certify_batch", just_below_zero)
        check = _run_command(["bellman-verify", "--p", "4", "--points", "50"])[
            "convexity+drift-tau(p=4)"]
        assert check.passed and check.margin == pytest.approx(5e-11, rel=1e-9)

    def test_ellipticity_margin_includes_the_tolerance(self, monkeypatch):
        # L_h - 1e-11 I moves the slack of A = I to about -3e-10, within -1e-9
        assemble = ops.assemble

        def shifted(*args, **kwargs):
            op = assemble(*args, **kwargs)
            op.matrix = (op.matrix - 1e-11 * sp.identity(op.n)).tocsr()
            return op

        monkeypatch.setattr(cli.ops, "assemble", shifted)
        check = _run_command(["operator-verify", "--preset", "identity", "--grid", "8"])[
            "discrete-ellipticity"]
        assert check.passed and 0.0 < check.margin < 1e-9

    def test_sqrt_margin_scales_with_sup_norm(self, tmp_path, monkeypatch):
        # A = 3 I: the reconstruction tolerance is 3e-12, and a root off by
        # a relative 3.3e-13 leaves an error of about 2e-12
        cfg = tmp_path / "three.scenario"
        cfg.write_text("[grid]\ndim = 1\ncells = 8\n"
                       "[coefficients]\nvalues = " + "3 " * 9 + "\n")
        sqrt = ops.matrix_sqrt_spd
        monkeypatch.setattr(cli.ops, "matrix_sqrt_spd", lambda M: sqrt(M) * (1.0 + 3.3e-13))
        check = _run_command(["operator-verify", "--config", str(cfg)])["sqrt-reconstruction"]
        assert check.passed and check.margin == pytest.approx(1e-12, rel=0.1)

    def test_symmetrization_passes_on_rotation(self):
        check = _run_command(["operator-verify", "--preset", "rotation", "--grid", "16,16"])[
            "symmetrization"]
        assert check.passed

    @pytest.mark.parametrize("wrong_sym", [lambda A: A.values,
                                           lambda A: A.values + np.swapaxes(A.values, -1, -2)],
                             ids=["unsymmetrized", "wrong-quadratic-form"])
    def test_symmetrization_fails_on_a_wrong_symmetric_part(self, wrong_sym, monkeypatch):
        # the raw rotation field is not symmetric; twice its symmetric part
        # is, but doubles every quadratic form.  The square root refuses
        # non-symmetric input, so it gets the symmetric part of what it is
        # given and the command reaches its summary
        sqrt = ops.matrix_sqrt_spd
        monkeypatch.setattr(ops.CoefficientField, "sym", property(wrong_sym))
        monkeypatch.setattr(cli.ops, "matrix_sqrt_spd",
                            lambda M: sqrt(0.5 * (M + np.swapaxes(M, -1, -2))))
        check = _run_command(["operator-verify", "--preset", "rotation", "--grid", "16,16"])[
            "symmetrization"]
        assert not check.passed and check.margin < -1e-3


@pytest.mark.parametrize("argv", [
    ["bellman-verify", "--points", "50"],
    ["operator-verify", "--grid", "8"],
    ["semigroup-verify"],
    ["pointwise", "--grid", "16"],
    ["embed", "--grid", "16"],
    ["ibp", "--grid", "32"],
    ["offdiag", "--grid", "32"],
    ["sweep", "--p", "2"],
], ids=lambda argv: argv[0])
def test_every_table_is_columns_or_field_rows(argv):
    _, tables = COMMANDS[argv[0]](make_parser().parse_args(argv))
    assert tables
    for header, rows in tables.values():
        assert isinstance(rows, (Columns, FieldRows))
        if isinstance(rows, Columns):
            assert len(rows.columns) == len(header)
            assert all(isinstance(c, np.ndarray) for c in rows.columns)
        else:
            assert len(rows.coords) + 1 + len(rows.fields) == len(header)


def test_bellman_verify_returns_numpy_columns():
    header, rows = COMMANDS["bellman-verify"](
        make_parser().parse_args(["bellman-verify", "--points", "50"]))[1]["bellman"]
    assert isinstance(rows, Columns) and len(rows) == 200
    assert [c.shape for c in rows.columns] == [(200,)] * len(header)
    assert rows.columns[header.index("valid")].dtype == bool
    assert rows.columns[header.index("index")].dtype.kind == "i"


@pytest.mark.parametrize("workload", sorted(_benchmark_workloads()))
def test_benchmark_workload_contract(workload, tmp_path):
    # the benchmark counts each repetition's PASS lines and CSV rows against
    # WORKLOADS; a command that drops a summary line fails it there
    cli_args, n_checks, rows, _ = _benchmark_workloads()[workload]
    rc = main([*cli_args, "--seed", "1", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert sum(ln.startswith("PASS") for ln in lines) == n_checks
    assert not any(ln.startswith("FAIL") for ln in lines)
    written = {p.stem: len(p.read_text().splitlines()) - 1 for p in tmp_path.glob("*.csv")}
    assert written == rows


def _run_benchmark_child(tmp_path, cli_args, trace):
    """One repetition of perfbench/child.py; its result record."""
    root = pathlib.Path(__file__).resolve().parents[1]
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", str(result), *(["--trace"] if trace else []),
         "--", *cli_args, "--out", str(tmp_path / "out"), "--quiet"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_trace_contract_of_evolve(tmp_path):
    # the benchmark's traced repetition wraps semigroup.evolve and reads
    # its stats; a return shape it cannot count would crash --trace runs
    spans = _run_benchmark_child(tmp_path, ["pointwise", "--preset", "identity",
                                            "--grid", "16,16", "--p", "4"], trace=True)["spans"]
    evolves = [s for s in spans if s["name"] == "semigroup.evolve"]
    assert len(evolves) == 1
    assert {"steps", "krylov_iters", "worst_residual"} <= evolves[0]["counts"].keys()
    assert evolves[0]["counts"]["steps"] > 0


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_benchmark_row_counts_of_pointwise(trace, tmp_path):
    # the benchmark child reports len(rows) of each table, and a traced
    # repetition's reports.emit span sums them; both count the CSV lines
    record = _run_benchmark_child(tmp_path, ["pointwise", "--preset", "random-accretive",
                                             "--grid", "12,12", "--p", "4"], trace)
    written = len((tmp_path / "out" / "pointwise.csv").read_text().splitlines()) - 1
    assert written > 0
    assert record["rows"] == {"pointwise": written}
    if trace:
        emits = [s for s in record["spans"] if s["name"] == "reports.emit"]
        assert [s["counts"]["rows"] for s in emits] == [written]


def test_python_dash_m_runs_the_cli():
    from divbell import __version__

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "divbell", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__
