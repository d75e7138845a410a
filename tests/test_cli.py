"""Tests for the scenario file format, presets, and the CLI runner."""

import filecmp

import numpy as np
import pytest

import divbell.bellman as bl
import divbell.harness as hz
import divbell.presets as ps
from divbell.cli import COMMANDS, main, make_parser
from divbell.errors import ConfigError
from divbell.grids import Boundary, Grid
from divbell.operators import check_accretive
from divbell.reports import fmt
from divbell.scenario import build_scenario, parse_scenario_text
from divbell.semigroup import evolve
from oracles import _assemble_neg_hess

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
        assert check_accretive(A) > 0.0
        assert np.all(V.values >= 0.0)

    def test_random_accretive_clamped(self):
        g = Grid(cells=(16, 16), lo=(-4.0, -4.0), hi=(4.0, 4.0),
                 boundary=Boundary.DIRICHLET)
        A = ps.coefficient_preset("random-accretive", g, seed=11, gamma_min=0.5)
        assert check_accretive(A) >= 0.5 - 1e-12

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
                           for row in [header] + rows)
        assert (tmp_path / "a" / "pointwise.csv").read_text() == expected

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
        # P_t f and P_t g do not depend on p: f and g are evolved once per
        # (preset, dim) pair and shared by the 4 default exponents
        calls = [0]

        def counting_evolve(*args, **kwargs):
            calls[0] += 1
            return evolve(*args, **kwargs)

        monkeypatch.setattr(hz, "evolve", counting_evolve)
        rc = main(["sweep", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert calls[0] == 2 * len(ps.PRESET_NAMES) * 2
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

    def test_embed_and_ibp_and_offdiag(self, tmp_path):
        for cmd in ("embed", "ibp", "offdiag"):
            rc = main([cmd, "--preset", "identity", "--grid", "64",
                       "--T", "0.4", "--out", str(tmp_path / cmd), "--quiet"])
            assert rc == 0, cmd

    def test_solver_nonconvergence_exits_three(self, tmp_path):
        # a stiff 2D step with one Krylov cycle cannot reach rtol 1e-15
        cfg = tmp_path / "stall.scenario"
        cfg.write_text("[grid]\ndim = 2\ncells = 64 64\n"
                       "[time]\nT = 0.5\ndt = 0.5\n"
                       "[solver]\ntol = 1e-15\nmax-iter = 1\n")
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
    ], ids=["unknown-section", "unknown-key", "removed-method", "removed-preconditioner",
            "zero-tol", "nan-tol", "zero-max-iter", "negative-max-iter",
            "negative-stride", "non-integer-cells", "empty-datum"])
    def test_invalid_scenario_file_exits_two(self, text, where, tmp_path, capsys):
        cfg = tmp_path / "bad.scenario"
        cfg.write_text("[grid]\ndim = 1\ncells = 32\n" + text)
        rc = main(["pointwise", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and where in err
