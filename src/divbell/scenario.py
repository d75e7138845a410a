"""Flat key-value scenario files and scenario construction.

The format is line-based and human-diffable: ``[section]`` headers, one
``key = value`` pair per line, ``#`` comments, arrays inline as
space-separated tokens.  Parse errors carry the line number and field.
Section and key names are case-insensitive.  The accepted keys are:

* ``[grid]`` dim, cells, lo, hi, boundary (dirichlet or periodic)
* ``[bellman]`` p
* ``[coefficients]`` preset, beta, gamma-min, values
* ``[potential]`` values
* ``[data]`` f, g (``bump <center...> <radius> <amp>``, radius > 0)
* ``[time]`` T, dt, scheme (crank-nicolson or backward-euler),
  snapshot-stride (0 or absent: about 64 uniform snapshots)
* ``[solver]`` tol (positive, finite), max-iter (at least 1)
* ``[cutoff]`` radii (one or more, positive, finite, 2R <= box half-width)

An unknown section or key, and a NaN or infinite number, is a
configuration error, never ignored.

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

import math

import numpy as np

from .bellman import BellmanParams
from .errors import ConfigError, DivbellError
from .grids import Boundary, Grid
from .harness import ScenarioSpec
from .operators import CoefficientField, PotentialField
from .presets import (PRESET_NAMES, coefficient_preset, default_data, make_bump,
                      potential_preset)
from .semigroup import Scheme, SolverConfig, TimeGrid


def parse_scenario_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        sections[current][key] = value.strip()
    return sections


def load_scenario_file(path: str) -> dict[str, dict[str, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc


def _get(sections, section, key, default=None):
    return sections.get(section, {}).get(key, default)


def _parse_float(sections, section, key, default):
    raw = _get(sections, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _parse_int(sections, section, key, default):
    raw = _get(sections, section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _parse_numbers(raw, section, key, kind=float):
    try:
        return tuple(kind(tok) for tok in raw.split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number list: {raw!r}") from exc


# Accepted keys per section (lower-cased, as parsed); see the module docstring.
SCENARIO_KEYS = {
    "grid": ("dim", "cells", "lo", "hi", "boundary"),
    "bellman": ("p",),
    "coefficients": ("preset", "beta", "gamma-min", "values"),
    "potential": ("values",),
    "data": ("f", "g"),
    "time": ("t", "dt", "scheme", "snapshot-stride"),
    "solver": ("tol", "max-iter"),
    "cutoff": ("radii",),
}


def build_scenario(sections: dict[str, dict[str, str]] | None = None, *,
                   preset: str | None = None, dim: int | None = None,
                   cells: tuple[int, ...] | None = None, p: float | None = None,
                   dt: float | None = None, T: float | None = None,
                   seed: int = 0, name: str | None = None) -> ScenarioSpec:
    """Build a validated scenario from a parsed file and/or overrides.

    Keyword overrides win over file values; every domain invariant (known
    sections and keys, grid shape, accretivity, nonnegative potential,
    exponent range, data nonzero at some node, support margins, time-grid
    divisibility, solver settings) is checked here, before any computation
    starts.
    """
    s = sections or {}
    for section, keys in s.items():
        if section not in SCENARIO_KEYS:
            raise ConfigError(f"[{section}]: unknown section, choose from "
                              f"{sorted(SCENARIO_KEYS)}")
        for key in keys:
            if key not in SCENARIO_KEYS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key, choose from "
                                  f"{SCENARIO_KEYS[section]}")
    preset = preset or _get(s, "coefficients", "preset", "identity")
    if preset not in PRESET_NAMES:
        raise ConfigError(f"[coefficients] preset: unknown preset {preset!r}, "
                          f"choose from {PRESET_NAMES}")
    if dim is None:
        dim = _parse_int(s, "grid", "dim", 1)
    if cells is None:
        raw = _get(s, "grid", "cells", "128" if dim == 1 else "24 " * dim)
        cells = _parse_numbers(raw, "grid", "cells", int)
    if len(cells) == 1 and dim > 1:
        cells = cells * dim
    if len(cells) != dim:
        raise ConfigError(f"[grid] cells: got {len(cells)} entries for dim {dim}")
    lo = _parse_numbers(_get(s, "grid", "lo", " ".join(["-4.0"] * dim)), "grid", "lo")
    hi = _parse_numbers(_get(s, "grid", "hi", " ".join(["4.0"] * dim)), "grid", "hi")
    braw = _get(s, "grid", "boundary", "dirichlet").lower()
    try:
        boundary = Boundary(braw)
    except ValueError as exc:
        raise ConfigError(f"[grid] boundary: {braw!r} is not dirichlet/periodic") from exc
    try:
        grid = Grid(cells=cells, lo=lo, hi=hi, boundary=boundary)
    except DivbellError as exc:
        raise ConfigError(f"[grid] {exc}") from exc

    if p is None:
        p = _parse_float(s, "bellman", "p", 2.0)
    try:
        params = BellmanParams(p)
    except DivbellError as exc:
        raise ConfigError(f"[bellman] {exc}") from exc

    beta = _parse_float(s, "coefficients", "beta", 0.5)
    gamma_min = _parse_float(s, "coefficients", "gamma-min", 0.5)
    for key, val in (("beta", beta), ("gamma-min", gamma_min)):
        if not math.isfinite(val):
            raise ConfigError(f"[coefficients] {key}: expected a finite number, got {val}")
    araw = _get(s, "coefficients", "values")
    if araw is not None:
        vals = _parse_numbers(araw, "coefficients", "values")
        want = grid.vertex_shape + (dim, dim)
        try:
            A = CoefficientField(grid, np.asarray(vals).reshape(want))
        except (ValueError, DivbellError) as exc:
            raise ConfigError(f"[coefficients] values: {exc}") from exc
        if A.gamma <= 0.0:
            raise ConfigError("[coefficients] values: field is not accretive "
                              f"(gamma = {A.gamma})")
    else:
        A = coefficient_preset(preset, grid, seed=seed, beta=beta, gamma_min=gamma_min)
    vraw = _get(s, "potential", "values")
    if vraw is not None:
        vals = _parse_numbers(vraw, "potential", "values")
        try:
            V = PotentialField(grid, np.asarray(vals).reshape(grid.node_shape))
        except (ValueError, DivbellError) as exc:
            raise ConfigError(f"[potential] values: {exc}") from exc
    else:
        V = potential_preset(preset, grid, seed=seed)

    def parse_datum(key, fallback):
        raw = _get(s, "data", key)
        if raw is None:
            return fallback
        toks = raw.split()
        if toks[:1] != ["bump"] or len(toks) != dim + 3:
            raise ConfigError(
                f"[data] {key}: expected 'bump <center...> <radius> <amp>' "
                f"with {dim} center coordinates, got {raw!r}")
        try:
            nums = [float(t) for t in toks[1:]]
        except ValueError as exc:
            raise ConfigError(f"[data] {key}: not numbers: {raw!r}") from exc
        if not all(map(math.isfinite, nums)) or not nums[dim] > 0.0:
            raise ConfigError(f"[data] {key}: expected finite numbers and a positive "
                              f"radius, got {raw!r}")
        return make_bump(grid, nums[:dim], nums[dim], nums[dim + 1])

    f_default, g_default = default_data(grid)
    f = parse_datum("f", f_default)
    g = parse_datum("g", g_default)
    for key, datum in (("f", f), ("g", g)):
        if not np.any(datum.values):
            raise ConfigError(f"[data] {key}: the datum vanishes at every node of a grid of "
                              f"spacing {min(grid.spacing):g}; widen it or refine the grid")

    if T is None:
        T = _parse_float(s, "time", "t", 0.3)
    if not 0.0 < T < np.inf:
        raise ConfigError(f"[time] T: expected a positive finite time, got {T}")
    if dt is None:
        dt = _parse_float(s, "time", "dt", None)
    if dt is None:
        h = min(grid.spacing)
        dt = min(h * h, T / 200.0)
    elif not dt > 0.0:
        raise ConfigError(f"[time] dt: expected a positive step, got {dt}")
    elif dt > T:
        raise ConfigError(f"[time] dt: the step {dt} exceeds the horizon T = {T}")
    # the fewest steps that divide T without exceeding dt; the relative
    # guard keeps an exact divisor's count when T / dt rounds just above it
    n = math.ceil(T / dt * (1.0 - 1e-12))
    dt = T / n
    sraw = _get(s, "time", "scheme", "crank-nicolson").lower()
    try:
        scheme = Scheme(sraw)
    except ValueError as exc:
        raise ConfigError(f"[time] scheme: {sraw!r}") from exc
    stride = _parse_int(s, "time", "snapshot-stride", 0)
    if stride < 0:
        raise ConfigError(f"[time] snapshot-stride: expected 0 (auto) or a positive "
                          f"stride, got {stride}")
    if stride == 0:
        # uniform snapshots: largest stride <= n/64 that divides the step count
        stride = max(1, n // 64)
        while n % stride:
            stride -= 1
    elif n % stride:
        raise ConfigError(f"[time] snapshot-stride: {stride} does not divide the "
                          f"step count {n}; snapshots would not be uniform")
    timegrid = TimeGrid(dt=dt, T=T, scheme=scheme, snapshot_stride=stride)

    tol = _parse_float(s, "solver", "tol", 1e-10)
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"[solver] tol: expected a positive finite tolerance, got {tol}")
    max_iter = _parse_int(s, "solver", "max-iter", 500)
    if max_iter < 1:
        raise ConfigError(f"[solver] max-iter: expected at least 1, got {max_iter}")
    solver = SolverConfig(tol=tol, max_iter=max_iter)

    half = 0.5 * min(b - a for a, b in zip(grid.lo, grid.hi))
    rraw = _get(s, "cutoff", "radii")
    if rraw is not None:
        radii = _parse_numbers(rraw, "cutoff", "radii")
        if not radii or not all(0.0 < r < np.inf for r in radii):
            raise ConfigError(f"[cutoff] radii: expected one or more positive finite "
                              f"radii, got {rraw!r}")
        if 2.0 * max(radii) > half + 1e-12:
            raise ConfigError(f"[cutoff] radii: 2R = {2 * max(radii):g} exceeds the box "
                              f"half-width {half:g}")
    else:
        radii = (0.25 * half, 0.375 * half, 0.5 * half)

    try:
        return ScenarioSpec(name=name or preset, grid=grid, coefficients=A,
                            potential=V, f=f, g=g, params=params,
                            timegrid=timegrid, solver=solver,
                            cutoff_radii=radii)
    except DivbellError as exc:
        raise ConfigError(str(exc)) from exc
