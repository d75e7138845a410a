"""Flat key-value scenario files and scenario construction.

The format is line-based and human-diffable: ``[section]`` headers, one
``key = value`` pair per line, ``#`` comments, arrays inline as
space-separated tokens.  Parse errors carry the line number and field.
Section names, key names and values are case-insensitive.  Three rules
hold for every input, each a configuration error (exit 2), never ignored:

* a NaN or infinite number, whether a file or a command-line flag gave it;
* a key given twice in one section (a section header given twice merges
  its keys, so the key may not repeat across them either);
* a command-line flag that the command does not read, such as ``--grid``
  for ``sweep``; ``--out``, ``--seed`` and ``--quiet`` every command accepts.

An unknown section or key is a configuration error too.
``SCENARIO_KEYS`` gives each key's kind, default and range.  The accepted
keys, with the defaults that depend on other keys:

* ``[grid]`` dim, cells, lo, hi, boundary: cells 128 in 1D and 24 per axis
  otherwise, one entry sets every axis; lo -4 and hi 4 on every axis
* ``[bellman]`` p
* ``[coefficients]`` preset, beta, gamma-min, values: values, one d x d
  matrix per vertex, replace the preset's field and must be accretive
* ``[potential]`` values: one value per node, replacing the preset's
* ``[data]`` f, g: ``bump <center...> <radius> <amp>`` with radius > 0;
  by default two bumps well inside the box
* ``[time]`` T, dt, scheme, snapshot-stride: dt at most T, by default
  min(h^2, T / 200), shortened so that it divides T; the stride divides
  the step count, and 0 takes about 64 uniform snapshots
* ``[solver]`` tol, max-iter
* ``[cutoff]`` radii: two or more distinct radii, read in ascending
  order whatever order they are given in; 2R at most the box half-width;
  by default a quarter, three eighths and a half of the half-width

Example::

    [grid]
    dim = 2
    cells = 32 32
    lo = -4.0 -4.0
    hi = 4.0 4.0
    boundary = dirichlet

    [bellman]
    p = 2.0

    [coefficients]
    preset = rotation
    beta = 0.5

    [data]
    f = bump -0.3 -0.3 1.4 0.9
    g = bump 0.3 0.3 1.2 0.7

    [time]
    T = 0.3
    scheme = crank-nicolson

    [cutoff]
    radii = 1.0 1.5 2.0
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .bellman import BellmanParams
from .errors import ConfigError, DivbellError
from .grids import Boundary, Grid
from .harness import ScenarioSpec
from .operators import CoefficientField, PotentialField
from .presets import (BETA, GAMMA_MIN, PRESET_NAMES, coefficient_preset, default_data,
                      make_bump, potential_preset)
from .semigroup import Scheme, SolverConfig, TimeGrid

# section -> key -> (kind, default, range).  A word's range is the words it
# may be, a number's a bound that each of its values exceeds (-inf: none).
# A default of None is worked out from other keys.
SCENARIO_KEYS = {
    "grid": {"dim": ("int", 1, 0),
             "cells": ("int list", None, -math.inf),
             "lo": ("float list", None, -math.inf),
             "hi": ("float list", None, -math.inf),
             "boundary": ("word", Grid.boundary.value, tuple(b.value for b in Boundary))},
    "bellman": {"p": ("float", 2.0, -math.inf)},
    "coefficients": {"preset": ("word", "identity", PRESET_NAMES),
                     "beta": ("float", BETA, -math.inf),
                     "gamma-min": ("float", GAMMA_MIN, -math.inf),
                     "values": ("float list", None, -math.inf)},
    "potential": {"values": ("float list", None, -math.inf)},
    "data": {"f": ("text", None, None), "g": ("text", None, None)},
    "time": {"T": ("float", 0.3, 0),
             "dt": ("float", None, 0),
             "scheme": ("word", TimeGrid.scheme.value, tuple(s.value for s in Scheme)),
             "snapshot-stride": ("int", 0, -1)},
    "solver": {"tol": ("float", SolverConfig.tol, 0),
               "max-iter": ("int", SolverConfig.max_iter, 0)},
    "cutoff": {"radii": ("float list", None, 0)},
}


def parse_scenario_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip().lower() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: [{current}] {key}: duplicate key")
        sections[current][key] = value
    return sections


def load_scenario_file(path: str) -> dict[str, dict[str, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc


def _parse(where: str, kind: str, raw: str):
    """The value of ``kind`` that the text ``raw`` spells."""
    if kind in ("word", "text"):
        return raw
    number = float if kind.startswith("float") else int
    try:
        values = tuple(map(number, raw.split() if kind.endswith("list") else [raw]))
    except ValueError as exc:
        raise ConfigError(f"{where}: expected {kind}, got {raw!r}") from exc
    return values if kind.endswith("list") else values[0]


def _read(sections: dict[str, dict[str, str]]) -> dict[tuple[str, str], object]:
    """The typed value of every key that the parsed ``sections`` set."""
    given = {}
    for section, keys in sections.items():
        if section not in SCENARIO_KEYS:
            raise ConfigError(f"[{section}]: unknown section, choose from "
                              f"{sorted(SCENARIO_KEYS)}")
        names = {name.lower(): name for name in SCENARIO_KEYS[section]}
        for key, raw in keys.items():
            if key not in names:
                raise ConfigError(f"[{section}] {key}: unknown key, choose from "
                                  f"{tuple(SCENARIO_KEYS[section])}")
            kind = SCENARIO_KEYS[section][names[key]][0]
            given[section, names[key]] = _parse(f"[{section}] {names[key]}", kind, raw)
    return given


def _check(where: str, kind: str, allowed, value) -> None:
    """``value`` against the rules of ``kind`` and the range ``allowed``:
    every number finite, whatever its key."""
    if kind == "word" and value not in allowed:
        raise ConfigError(f"{where}: {value!r} is not one of {allowed}")
    if kind in ("word", "text"):
        return
    numbers = np.atleast_1d(np.asarray(value, dtype=float))
    if not numbers.size:
        raise ConfigError(f"{where}: expected one or more numbers")
    ok = np.isfinite(numbers) & (numbers > allowed)
    if not ok.all():
        rule = f" > {allowed:g}" if allowed > -math.inf else ""
        raise ConfigError(f"{where}: expected finite numbers{rule}, got {numbers[~ok][0]:g}")


@contextlib.contextmanager
def _named(where: str):
    """Report a domain error raised in the block as a configuration error
    of ``where``."""
    try:
        yield
    except (ValueError, DivbellError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _bump(grid: Grid, key: str, raw: str):
    """The datum that ``[data] key = bump <center...> <radius> <amp>`` sets."""
    where, toks, d = f"[data] {key}", raw.split(), grid.dim
    nums = _parse(where, "float list", " ".join(toks[1:]))
    if toks[:1] != ["bump"] or len(nums) != d + 2 or not nums[d] > 0.0:
        raise ConfigError(f"{where}: expected 'bump <center...> <radius> <amp>' with {d} "
                          f"center coordinates and a positive radius, got {raw!r}")
    _check(where, "float list", -math.inf, nums)
    return make_bump(grid, nums[:d], nums[d], nums[d + 1])


def build_scenario(sections: dict[str, dict[str, str]] | None = None, *,
                   preset: str | None = None, dim: int | None = None,
                   cells: tuple[int, ...] | None = None, p: float | None = None,
                   dt: float | None = None, T: float | None = None,
                   seed: int = 0, name: str | None = None) -> ScenarioSpec:
    """Build a validated scenario from a parsed file and/or overrides.

    Keyword overrides win over file values and go through the same checks:
    each key's kind and range, then the checks that relate keys (cells
    against dim, dt against T, the stride against the step count, 2R
    against the box, the bumps against dim) and the fields' own (grid
    shape, accretivity, nonnegative potential, exponent range, data
    nonzero at some node, support margins), all before any computation
    starts.
    """
    given = _read(sections or {})
    overrides = {("coefficients", "preset"): preset, ("grid", "dim"): dim,
                 ("grid", "cells"): cells, ("bellman", "p"): p, ("time", "dt"): dt,
                 ("time", "T"): T}
    given.update((at, value) for at, value in overrides.items() if value is not None)
    for (section, key), value in given.items():
        kind, _, allowed = SCENARIO_KEYS[section][key]
        _check(f"[{section}] {key}", kind, allowed, value)
    v = {(section, key): given.get((section, key), default)
         for section, keys in SCENARIO_KEYS.items() for key, (_, default, _) in keys.items()}

    dim, preset = v["grid", "dim"], v["coefficients", "preset"]
    cells = v["grid", "cells"] or ((128,) if dim == 1 else (24,))
    if len(cells) == 1:
        cells = cells * dim
    if len(cells) != dim:
        raise ConfigError(f"[grid] cells: got {len(cells)} entries for dim {dim}")
    with _named("[grid]"):
        grid = Grid(cells=cells, lo=v["grid", "lo"] or (-4.0,) * dim,
                    hi=v["grid", "hi"] or (4.0,) * dim,
                    boundary=Boundary(v["grid", "boundary"]))
    with _named("[bellman] p"):
        params = BellmanParams(v["bellman", "p"])

    if v["coefficients", "values"] is None:
        A = coefficient_preset(preset, grid, seed=seed, beta=v["coefficients", "beta"],
                               gamma_min=v["coefficients", "gamma-min"])
    else:
        with _named("[coefficients] values"):
            A = CoefficientField(grid, np.reshape(v["coefficients", "values"],
                                                  grid.vertex_shape + (dim, dim)))
    if A.gamma <= 0.0:
        raise ConfigError(f"[coefficients]: the field is not accretive (gamma = {A.gamma})")
    if v["potential", "values"] is None:
        V = potential_preset(preset, grid, seed=seed)
    else:
        with _named("[potential] values"):
            V = PotentialField(grid, np.reshape(v["potential", "values"], grid.node_shape))

    data = dict(zip("fg", default_data(grid)))
    for key in data:
        if v["data", key] is not None:
            data[key] = _bump(grid, key, v["data", key])
        if not np.any(data[key].values):
            raise ConfigError(f"[data] {key}: the datum vanishes at every node of a grid of "
                              f"spacing {min(grid.spacing):g}; widen it or refine the grid")

    T, h = v["time", "T"], min(grid.spacing)
    dt = v["time", "dt"] or min(h * h, T / 200.0)
    if dt > T:
        raise ConfigError(f"[time] dt: the step {dt} exceeds the horizon T = {T}")
    # the fewest steps that divide T without exceeding dt; the relative
    # guard keeps an exact divisor's count when T / dt rounds just above it
    n = math.ceil(T / dt * (1.0 - 1e-12))
    # by default, the largest stride <= n/64 that divides the step count
    stride = (v["time", "snapshot-stride"]
              or max(k for k in range(1, max(1, n // 64) + 1) if n % k == 0))
    if n % stride:
        raise ConfigError(f"[time] snapshot-stride: {stride} does not divide the "
                          f"step count {n}; snapshots would not be uniform")
    timegrid = TimeGrid(dt=T / n, T=T, scheme=Scheme(v["time", "scheme"]),
                        snapshot_stride=stride)
    solver = SolverConfig(tol=v["solver", "tol"], max_iter=v["solver", "max-iter"])

    half = 0.5 * min(b - a for a, b in zip(grid.lo, grid.hi))
    radii = tuple(sorted(v["cutoff", "radii"] or (0.25 * half, 0.375 * half, 0.5 * half)))
    if 2.0 * radii[-1] > half + 1e-12:
        raise ConfigError(f"[cutoff] radii: 2R = {2 * radii[-1]:g} exceeds the box "
                          f"half-width {half:g}")
    if len(set(radii)) < 2:
        raise ConfigError(f"[cutoff] radii: need two or more distinct radii, got {radii}")

    with _named("[data]"):
        return ScenarioSpec(name=name or preset, grid=grid, coefficients=A,
                            potential=V, f=data["f"], g=data["g"], params=params,
                            timegrid=timegrid, solver=solver, cutoff_radii=radii)
