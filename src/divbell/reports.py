"""CSV emission and the pass/fail summary shared by all CLI commands."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigError, DomainError


def fmt(x) -> str:
    """Decimal with 17 significant digits (round-trips float64)."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _row_template(types: tuple[type, ...]) -> str | None:
    """One %-template for a CSV line whose values have these exact types,
    rendering each value as ``fmt`` does; None when a type is a subclass of
    int or float, which may format itself differently."""
    convs = []
    for t in types:
        if t is bool or t is int:
            convs.append("%d")
        elif t is float or t is np.float64:
            convs.append("%.17g")
        elif issubclass(t, (int, float)):
            return None
        else:
            convs.append("%s")   # fmt renders every other type with str()
    return ",".join(convs) + "\n"


def _csv_lines(rows):
    """Each row as one CSV line, equal to joining ``fmt`` of its values; rows
    with the same value types share one %-template."""
    templates: dict[tuple[type, ...], str | None] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = _row_template(types)
        tmpl = templates[types]
        yield tmpl % row if tmpl is not None else ",".join(map(fmt, row)) + "\n"


class FieldRows:
    """Rows ``(*coords, t, *values)`` of float fields sampled at every
    snapshot time and node, snapshot-major: row k * n + i holds node i's
    coordinates, ``times[k]`` and ``fld[k, i]`` of each (nt, n) field.

    Iteration yields the rows as tuples of Python floats, the reference
    rendering.  ``lines`` renders the same text one snapshot at a time: each
    node's coordinates and each snapshot's time are formatted once, and no
    row tuple is built.
    """

    def __init__(self, coords, times, fields):
        self.coords = [np.asarray(c, dtype=np.float64).ravel() for c in coords]
        self.times = np.asarray(times, dtype=np.float64)
        self.fields = [np.asarray(f, dtype=np.float64) for f in fields]
        shape = (self.times.size, self.coords[0].size)
        if (any(c.size != shape[1] for c in self.coords)
                or any(f.shape != shape for f in self.fields)):
            raise DomainError(f"fields {[f.shape for f in self.fields]} do not match "
                              f"{shape[0]} times x {shape[1]} nodes")

    def __len__(self) -> int:
        return self.times.size * self.coords[0].size

    def __iter__(self):
        coords = [c.tolist() for c in self.coords]
        for t, *vals in zip(self.times.tolist(), *self.fields):
            yield from zip(*coords, repeat(t), *(v.tolist() for v in vals))

    def lines(self):
        """One string per snapshot, equal to the ``fmt`` CSV lines of its rows."""
        prefixes = ["".join("%.17g," % x for x in node)
                    for node in zip(*(c.tolist() for c in self.coords))]
        values = ",%.17g" * len(self.fields) + "\n"
        for t, *vals in zip(self.times.tolist(), *self.fields):
            line_tail = "%.17g" % t + values
            template = line_tail.join(prefixes) + line_tail
            yield template % tuple(np.column_stack(vals).ravel().tolist())


def write_csv(path: str, header: list[str], rows: list[tuple] | FieldRows) -> None:
    lines = rows.lines() if isinstance(rows, FieldRows) else _csv_lines(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def passes(margin: float) -> bool:
    """The one verdict rule: a check passes when its margin is positive, so
    a margin of 0.0 or NaN fails."""
    return margin > 0.0


@dataclass
class CheckResult:
    name: str
    margin: float
    passed: bool
    note: str = ""


@dataclass
class Summary:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, margin: float, note: str = "") -> None:
        margin = float(margin)
        self.checks.append(CheckResult(name, margin, passes(margin), note))

    def add_margins(self, margins: dict[str, float],
                    notes: dict[str, str] | None = None) -> None:
        """One line per entry of a report's ``margins``, in its order."""
        notes = notes or {}
        for name, margin in margins.items():
            self.add(name, margin, notes.get(name, ""))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(f"{status}  {c.name:<40s} margin={fmt(c.margin)}{note}")
        lines.append(f"{'OK' if self.all_passed else 'FAILED'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"

    def write(self, outdir: str, name: str = "summary.txt") -> str:
        path = os.path.join(outdir, name)
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.render())
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        return path


def ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output directory {path} is not writable")
    return path


def emit_report(summary: Summary,
                tables: dict[str, tuple[list[str], list[tuple] | FieldRows]],
                outdir: str) -> list[str]:
    """Write every named CSV table plus the human-readable summary.

    ``tables`` maps a file stem to (header, rows).  Returns the written
    paths; an empty table set still produces the summary file.
    """
    ensure_outdir(outdir)
    paths = []
    for stem in sorted(tables):
        header, rows = tables[stem]
        path = os.path.join(outdir, stem + ".csv")
        write_csv(path, header, rows)
        paths.append(path)
    paths.append(summary.write(outdir))
    return paths
