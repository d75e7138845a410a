"""CSV emission and the pass/fail summary shared by all CLI commands."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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


# the %-conversion of each accepted numpy dtype kind; on the column's
# ``tolist`` values each renders as ``fmt`` does
KIND_FORMATS = {"f": "%.17g", "b": "%d", "i": "%d", "u": "%d", "U": "%s"}


class Columns:
    """A table held as equal-length 1-D numpy columns, one per CSV field,
    each formatted by its dtype kind (``KIND_FORMATS``).

    A column given as a sequence goes through ``np.asarray``; one that
    would become an object array, or a string array holding non-strings,
    raises DomainError, as do columns of unequal length.  ``lines`` formats
    ``CHUNK_ROWS`` rows at a time, so the text held is O(chunk) whatever
    the row count.
    """

    CHUNK_ROWS = 2048

    def __init__(self, *columns):
        self.columns = []
        for k, col in enumerate(columns):
            arr = np.asarray(col)
            if arr.ndim != 1 or arr.dtype.kind not in KIND_FORMATS:
                raise DomainError(f"column {k}: expected a 1-D float, integer, boolean "
                                  f"or string column, got {arr.dtype} of shape {arr.shape}")
            if (arr.dtype.kind == "U" and not isinstance(col, np.ndarray)
                    and not all(isinstance(v, str) for v in col)):
                raise DomainError(f"column {k} mixes strings with other values")
            self.columns.append(arr)
        sizes = [c.size for c in self.columns]
        if len(set(sizes)) > 1:
            raise DomainError(f"columns of unequal lengths {sizes}")
        self.template = ",".join(KIND_FORMATS[c.dtype.kind] for c in self.columns) + "\n"

    def __len__(self) -> int:
        return self.columns[0].size if self.columns else 0

    def lines(self):
        """One string per chunk of ``CHUNK_ROWS`` rows, equal to the ``fmt``
        CSV lines of its rows: one %-template over the chunk's values,
        interleaved row by row."""
        n, k = len(self), len(self.columns)
        chunk = self.template * self.CHUNK_ROWS
        for lo in range(0, n, self.CHUNK_ROWS):
            hi = min(lo + self.CHUNK_ROWS, n)
            values = [None] * ((hi - lo) * k)
            for j, col in enumerate(self.columns):
                values[j::k] = col[lo:hi].tolist()
            template = chunk if hi - lo == self.CHUNK_ROWS else self.template * (hi - lo)
            yield template % tuple(values)


class FieldRows:
    """Rows ``(*coords, t, *values)`` of float fields sampled at every
    snapshot time and node, snapshot-major: row k * n + i holds node i's
    coordinates, ``times[k]`` and ``fld[k, i]`` of each (nt, n) field.

    ``lines`` renders the CSV text one snapshot at a time: each node's
    coordinates and each snapshot's time are formatted once, and no row
    tuple is built.
    """

    def __init__(self, coords, times, fields):
        self.coords = [np.asarray(c, dtype=np.float64).ravel() for c in coords]
        self.times = np.asarray(times, dtype=np.float64)
        self.fields = [np.asarray(f, dtype=np.float64) for f in fields]
        shape = (self.times.size, self.coords[0].size)
        if (self.times.ndim != 1 or any(c.size != shape[1] for c in self.coords)
                or any(f.shape != shape for f in self.fields)):
            raise DomainError(f"fields {[f.shape for f in self.fields]} do not match "
                              f"{shape[0]} times x {shape[1]} nodes")

    def __len__(self) -> int:
        return self.times.size * self.coords[0].size

    def lines(self):
        """One string per snapshot, equal to the ``fmt`` CSV lines of its rows."""
        prefixes = ["".join("%.17g," % x for x in node)
                    for node in zip(*(c.tolist() for c in self.coords))]
        values = ",%.17g" * len(self.fields) + "\n"
        for t, *vals in zip(self.times.tolist(), *self.fields):
            line_tail = "%.17g" % t + values
            template = line_tail.join(prefixes) + line_tail
            yield template % tuple(np.column_stack(vals).ravel().tolist())


def write_csv(path: str, header: list[str], rows: Columns | FieldRows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(rows.lines())
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
                tables: dict[str, tuple[list[str], Columns | FieldRows]],
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
