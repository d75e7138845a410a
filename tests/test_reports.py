"""Tests for CSV emission, export tables, and the summary renderer."""

import numpy as np
import pytest

import divbell.operators as ops
import divbell.presets as ps
import divbell.reports as rp
import divbell.semigroup as sg
from divbell.errors import ConfigError, DomainError
from divbell.grids import Boundary, Grid, GridFunction
from divbell.scenario import build_scenario, parse_scenario_text


def test_fmt_17_significant_digits_roundtrip():
    xs = [1.0 / 3.0, 2.25, 1e-300, -0.1, 123456789.123456789]
    for x in xs:
        assert float(rp.fmt(x)) == x
    assert rp.fmt(True) == "1"
    assert rp.fmt(3) == "3"


def _reference_text(header, columns) -> str:
    """Header and rows rendered value by value: ``fmt`` of each Python value."""
    rows = zip(*(c.tolist() for c in columns))
    return "".join(",".join(map(rp.fmt, row)) + "\n" for row in [header, *rows])


def test_columns_render_every_kind_as_fmt(tmp_path):
    # one column per accepted dtype kind, special floats included
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 1.0 / 3.0])
    columns = [
        floats,
        np.array([np.nan, np.inf, -np.inf, -0.0, 1e-45, 3e38, 1.0 / 3.0], dtype=np.float32),
        np.array([True, False, True, True, False, False, True]),
        np.array([0, -7, 2 ** 62, -(2 ** 63), 1, 2, 3], dtype=np.int64),
        np.arange(-3, 4, dtype=np.int8),
        np.array([0, 1, 2 ** 64 - 1, 5, 6, 7, 8], dtype=np.uint64),
        np.array(["x%sy", "", "a,b", "%d", "nan", "True", "\u03b3"]),
    ]
    header = [c.dtype.str for c in columns]
    path = tmp_path / "t.csv"
    rp.write_csv(str(path), header, rp.Columns(*columns))
    assert path.read_text(encoding="utf-8") == _reference_text(header, columns)
    assert path.read_text(encoding="utf-8").splitlines()[1].startswith("nan,nan,1,0,-3,0,x%sy")


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
def test_columns_chunk_edges(offset):
    n = rp.Columns.CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n), np.arange(n), rng.standard_normal(n) > 0,
               np.array(["P", "P_tilde"])[rng.integers(0, 2, n)]]
    table = rp.Columns(*columns)
    assert len(table) == n
    chunks = list(table.lines())
    assert len(chunks) == -(-n // rp.Columns.CHUNK_ROWS)
    assert all(chunk.count("\n") <= rp.Columns.CHUNK_ROWS for chunk in chunks)
    assert "".join(chunks) == _reference_text([], columns)[1:]


@pytest.mark.parametrize("columns", [[np.empty(0), np.array([], dtype=bool)], []],
                         ids=["no-rows", "no-columns"])
def test_columns_without_rows(columns, tmp_path):
    table = rp.Columns(*columns)
    assert len(table) == 0 and list(table.lines()) == []
    path = tmp_path / "e.csv"
    rp.write_csv(str(path), ["a", "b"], table)
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("columns", [
    [np.array([1.0, None], dtype=object)],
    [[1.0, None]],
    [["a", 1.0]],
    [[1, "b"]],
    [np.zeros(3), np.zeros(2)],
    [np.zeros((2, 2))],
    [np.zeros(2, dtype=complex)],
], ids=["object-array", "object-list", "mixed-str-float", "mixed-int-str", "unequal",
        "2d", "complex"])
def test_columns_reject_what_they_cannot_render(columns):
    with pytest.raises(DomainError):
        rp.Columns(*columns)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("cells", [(5,), (4, 3), (3, 2, 4)], ids=["1d", "2d", "3d"])
def test_field_rows_match_fmt_of_their_rows(cells, boundary, tmp_path):
    # the per-snapshot lines equal the fmt rendering of the iterated rows,
    # special values included
    g = Grid(cells=cells, lo=(-1.0,) * len(cells), hi=(2.0,) * len(cells),
             boundary=boundary)
    times = np.array([0.0, 0.1, 1.0 / 3.0, 2.5])
    rng = np.random.default_rng(len(cells))
    fields = rng.standard_normal((3, times.size, g.n_nodes))
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
    for fld in fields:
        fld.flat[rng.choice(fld.size, len(special), replace=False)] = special
    rows = rp.FieldRows(g.node_coords(), times, fields)
    assert len(rows) == times.size * g.n_nodes
    listed = list(rows)
    assert len(listed) == len(rows)
    assert all(type(x) is float for row in listed for x in row)
    coords = [np.tile(c.ravel(), times.size) for c in g.node_coords()]
    np.testing.assert_array_equal(
        np.array(listed),
        np.column_stack(coords + [np.repeat(times, g.n_nodes)]
                        + [f.ravel() for f in fields]))
    header = ["x", "y", "z"][:len(cells)] + ["t", "a", "b", "c"]
    path = tmp_path / "f.csv"
    rp.write_csv(str(path), header, rows)
    expected = "".join(",".join(rp.fmt(x) for x in row) + "\n" for row in [header] + listed)
    assert path.read_text() == expected
    for bad_times in (times[1:], times.reshape(2, 2)):
        with pytest.raises(DomainError):
            rp.FieldRows(g.node_coords(), bad_times, fields)


def test_empty_report_and_summary(tmp_path):
    s = rp.Summary()
    paths = rp.emit_report(s, {}, str(tmp_path))
    assert len(paths) == 1
    assert "0/0 checks passed" in (tmp_path / "summary.txt").read_text()
    assert s.all_passed


@pytest.mark.parametrize("margin, passed", [(1e-300, True), (0.0, False), (-0.0, False),
                                            (float("nan"), False), (float("inf"), True)])
def test_summary_verdict_is_a_positive_margin(margin, passed):
    s = rp.Summary()
    s.add("check", margin)
    assert s.checks[0].passed is passed
    assert s.all_passed is passed
    assert s.render().startswith("PASS" if passed else "FAIL")


def test_unwritable_outdir_raises_config_error(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(ConfigError):
        rp.emit_report(rp.Summary(), {}, str(target))  # a file, not a dir


def test_gridfunction_table(tmp_path):
    # node-ordered rows of coordinates and a complex field, as the CLI
    # tables build them, written through write_csv
    g = Grid(cells=(4, 4), lo=(0.0, 0.0), hi=(1.0, 1.0), boundary=Boundary.DIRICHLET)
    u = GridFunction(g, np.arange(9).reshape(3, 3) * (1 + 2j))
    rows = rp.Columns(*(c.ravel() for c in g.node_coords()), u.flat.real, u.flat.imag)
    path = tmp_path / "u.csv"
    rp.write_csv(str(path), ["x", "y", "re", "im"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 9
    assert lines[2] == "0.25,0.5,1,2"


def test_trajectory_and_stats_tables(tmp_path):
    # one CSV row per snapshot and node, and one solver record per step
    g = Grid(cells=(8,), lo=(0.0,), hi=(1.0,), boundary=Boundary.PERIODIC)
    L = ops.assemble(g, ops.CoefficientField.identity(g), ops.PotentialField.zero(g))
    f = ps.make_bump(g, 0.5, 0.2, 1.0)
    traj = sg.evolve(L, f, sg.TimeGrid(dt=0.01, T=0.03), sg.SolverConfig(tol=1e-12))
    assert traj.values.shape == (len(traj.times), g.n_nodes)
    residual = np.array([st.residual for st in traj.stats])
    rows = rp.Columns(np.arange(1, len(traj.stats) + 1), [st.method for st in traj.stats],
                      [st.iterations for st in traj.stats], residual)
    paths = rp.emit_report(rp.Summary(), {"stats": (["step", "method", "iterations",
                                                      "residual"], rows)}, str(tmp_path))
    assert len((tmp_path / "stats.csv").read_text().splitlines()) == 1 + 3
    assert str(tmp_path / "summary.txt") in paths
    assert np.all(residual <= 1e-11)


def test_scenario_inline_coefficient_values():
    # 1D grid with 3 cells: 4 vertex samples of a 1x1 matrix
    text = """
[grid]
dim = 1
cells = 3
lo = 0.0
hi = 3.0
[coefficients]
values = 1.0 2.0 2.0 1.0
[data]
f = bump 1.5 0.6 0.5
g = bump 1.5 0.55 0.4
"""
    spec = build_scenario(parse_scenario_text(text))
    assert spec.coefficients.values.ravel().tolist() == [1.0, 2.0, 2.0, 1.0]

    bad = text.replace("values = 1.0 2.0 2.0 1.0", "values = 1.0 -2.0 2.0 1.0")
    with pytest.raises(ConfigError, match="accretive"):
        build_scenario(parse_scenario_text(bad))
