"""Named scenario families and seeded field generators.

Every preset produces an accretive coefficient field (gamma > 0) and a
nonnegative potential on the requested grid:

* ``identity``          A = I, V = 0
* ``oscillator``        A = I, V = |x|^2
* ``rotation``          A = I + beta * w(x) * J with J antisymmetric and a
                        smooth spatial modulation w (a constant antisymmetric
                        part would drop out of the divergence form exactly)
* ``checker``           piecewise-smooth symmetric A with a sharp-contrast
                        checkerboard pattern, V = 0
* ``random-accretive``  seeded smooth random field, symmetric part clamped
                        so gamma >= gamma_min, plus a seeded smooth V >= 0
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError
from .grids import Grid, GridFunction
from .operators import CoefficientField, PotentialField

PRESET_NAMES = ("identity", "oscillator", "rotation", "checker", "random-accretive")
BETA = 0.5          # rotation: amplitude of the antisymmetric part
GAMMA_MIN = 0.5     # random-accretive: least ellipticity after the clamp


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Per-component stream: one 64-bit seed fans out by fixed labels."""
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                                        spawn_key=(key,)))


def bump_values(coords, center, radius: float, amp: float = 1.0) -> np.ndarray:
    """Smooth compactly supported bump amp * exp(1 - 1/(1 - r^2)) with
    r the scaled distance from ``center``."""
    r2 = np.zeros_like(coords[0])
    for x, c in zip(coords, np.atleast_1d(center)):
        r2 = r2 + ((x - c) / radius) ** 2
    out = np.zeros(coords[0].shape)
    inside = r2 < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def make_bump(grid: Grid, center, radius: float, amp: float = 1.0) -> GridFunction:
    return GridFunction(grid, bump_values(grid.node_coords(), center, radius, amp))


def _box_center(grid: Grid) -> np.ndarray:
    return 0.5 * (np.asarray(grid.lo) + np.asarray(grid.hi))


def _identity_values(coords, dim):
    out = np.zeros(coords[0].shape + (dim, dim))
    for a in range(dim):
        out[..., a, a] = 1.0
    return out


def _rotation_modulation(coords, grid: Grid) -> np.ndarray:
    w = np.ones_like(coords[0])
    for a, x in enumerate(coords):
        w = w * np.sin(2.0 * np.pi * (x - grid.lo[a]) / (grid.hi[a] - grid.lo[a]))
    return w


def _smooth_random(axes, grid: Grid, rng: np.random.Generator,
                   modes: int = 2) -> np.ndarray:
    """Low-order random trigonometric polynomial, O(1) amplitude, on the
    product of the 1D coordinates ``axes``: each mode's cosines are taken
    on the axes and broadcasting forms their product."""
    out = np.zeros(tuple(len(x) for x in axes))
    for _ in range(modes * grid.dim + 1):
        ks = rng.integers(1, modes + 1, size=grid.dim)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.dim)
        term = rng.normal(0.0, 1.0)
        for a, x in enumerate(axes):
            L = grid.hi[a] - grid.lo[a]
            cos = np.cos(2.0 * np.pi * ks[a] * (x - grid.lo[a]) / L + phases[a])
            term = term * cos.reshape([-1 if b == a else 1 for b in range(grid.dim)])
        out = out + term
    return out / np.sqrt(modes * grid.dim + 1)


def coefficient_preset(name: str, grid: Grid, seed: int = 0, beta: float = BETA,
                       gamma_min: float = GAMMA_MIN) -> CoefficientField:
    d = grid.dim
    coords = grid.vertex_coords()
    if name in ("identity", "oscillator"):
        vals = _identity_values(coords, d)
    elif name == "rotation":
        vals = _identity_values(coords, d)
        if d >= 2:
            w = beta * _rotation_modulation(coords, grid)
            vals[..., 0, 1] += w
            vals[..., 1, 0] -= w
    elif name == "checker":
        c = np.ones_like(coords[0])
        for a, x in enumerate(coords):
            L = grid.hi[a] - grid.lo[a]
            c = c * np.tanh(np.sin(4.0 * np.pi * (x - grid.lo[a]) / L) / 0.25)
        vals = _identity_values(coords, d)
        vals[..., 0, 0] += 0.4 * c
        if d >= 2:
            vals[..., 1, 1] += 0.3 * c
            vals[..., 0, 1] += 0.15 * c
            vals[..., 1, 0] += 0.15 * c
    elif name == "random-accretive":
        rng = rng_for(seed, "coefficients")
        axes = [grid.axis_vertices(a) for a in range(d)]
        vals = _identity_values(coords, d)
        for i in range(d):
            for j in range(d):
                vals[..., i, j] += 0.45 * _smooth_random(axes, grid, rng)
        # clamp: raising the diagonal lifts lambda_min(sym part) by the same
        # amount, so the clamped field has gamma >= gamma_min exactly
        deficit = np.maximum(gamma_min - CoefficientField(grid, vals).least_eig, 0.0)
        for a in range(d):
            vals[..., a, a] += deficit
    else:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return CoefficientField(grid, vals)


def potential_preset(name: str, grid: Grid, seed: int = 0) -> PotentialField:
    coords = grid.node_coords()
    if name == "oscillator":
        center = _box_center(grid)
        v = np.zeros_like(coords[0])
        for x, c in zip(coords, center):
            v = v + (x - c) ** 2
        return PotentialField(grid, v)
    if name == "random-accretive":
        rng = rng_for(seed, "potential")
        raw = _smooth_random([grid.axis_nodes(a) for a in range(grid.dim)], grid, rng)
        return PotentialField(grid, 0.5 * raw * raw)
    return PotentialField.zero(grid)


def default_data(grid: Grid) -> tuple[GridFunction, GridFunction]:
    """Two bumps of amplitudes 0.9 and 0.7, supported well inside the box
    (margin at least 25 percent of the box width on every axis)."""
    center = _box_center(grid)
    widths = np.asarray(grid.hi) - np.asarray(grid.lo)
    wmin = widths.min()
    r_f = 0.18 * wmin
    r_g = 0.15 * wmin
    off = 0.05 * wmin
    c_f = center - off / np.sqrt(grid.dim)
    c_g = center + off / np.sqrt(grid.dim)
    return make_bump(grid, c_f, r_f, 0.9), make_bump(grid, c_g, r_g, 0.7)
