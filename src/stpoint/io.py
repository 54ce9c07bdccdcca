"""Readers and writers for the package's file formats.

Pattern CSV: header ``x,y,t[,mark1,...]``, one event per row, UTF-8,
'.' decimal separator.  Network JSON: ``{"vertices": [[x,y], ...],
"segments": [[u,v], ...]}`` with 0-based vertex indices.  Covariate
node/sample CSV: header ``x,y,t,value``; a complete regular grid in
x-fastest order round-trips back into a CovariateGrid.  Summary
surfaces serialize long-format as ``r,h,estimate,theoretical`` (an
``id`` column in front for per-event sets).  Intensity CSV: a single
``intensity`` column, row-aligned with the pattern file.

CSV floats are written with 17 significant digits and JSON floats with
the shortest exact repr, so every value round-trips bit-for-bit.

One writer serves every CSV, the CLI's score and p-value tables too.  It
works a block of rows at a time: in each numeric column of the block it
formats every distinct value once (floats as ``%.17g``, told apart by their
bits; ids and flags as ``%d``) and gathers the strings back into rows, so
grid axes, lags and ids that repeat a few levels cost a few formats per
block.  Labels are quoted once per level as ``csv.writer`` quotes a field
inside a row.  One reader serves every numeric CSV: it checks the header
line, then calls ``np.loadtxt`` once; blank lines are skipped, ``#`` is not
a comment, and ragged rows are refused.  Pattern files, whose marks can
hold quoted text, are read with ``csv.reader``.
"""

from __future__ import annotations

import csv
import json
import warnings
from functools import partial
from io import StringIO
from typing import Optional

import numpy as np

from .core import PointPattern, SpatialWindow, TimeInterval, pattern_from_table
from .covariates import CovariateGrid
from .network import LinearNetwork
from .summaries import ListaSet, SummarySurface

__all__ = [
    "fmt_float",
    "json_dumps",
    "write_pattern_csv",
    "read_pattern_csv",
    "write_network_json",
    "read_network_json",
    "write_covariate_csv",
    "read_covariate_csv",
    "grid_from_nodes",
    "write_surface_csv",
    "read_surface_csv",
    "write_intensity_csv",
    "read_intensity_csv",
]


_FLOAT = "%.17g"
_FORMATS = {"f": _FLOAT, "i": "%d", "u": "%d", "b": "%d"}
_BLOCK_ROWS = 8192


def fmt_float(v) -> str:
    return _FLOAT % float(v)


def json_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as a field inside a row."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def _cells(col: np.ndarray) -> list:
    """The CSV text of each value of ``col``.  Object values (quoted text)
    pass as they are; numeric ones take the ``_FORMATS`` entry of their kind,
    each distinct value formatted once.  Floats are told apart by their bits,
    so -0.0 and 0.0 stay apart."""
    if col.dtype.kind == "O":
        return col.tolist()
    key = np.asarray(col, dtype=np.float64).view(np.int64) if col.dtype.kind == "f" else col
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    # one ``%`` call for all levels; no number format prints a comma
    fmt = ",".join([_FORMATS[col.dtype.kind]] * len(first))
    levels = np.array((fmt % tuple(col[first].tolist())).split(","), dtype=object)
    return levels[inverse.ravel()].tolist()


def _write_csv(path, header, columns) -> None:
    """Header line, then rows; float columns print as ``%.17g``, integer and
    bool ones as ``%d``, object ones (quoted text) as they are.  Rows go out
    ``_BLOCK_ROWS`` at a time, and each block formats each distinct value of
    a numeric column once.  Columns of unequal length are refused."""
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"{path}: columns of unequal length {[len(c) for c in columns]}")
    n, k = len(columns[0]), len(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_quote(h) for h in header) + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - lo)
            # cell, comma, cell, ..., cell, newline: one list joined once,
            # with no string made per row
            text = [","] * (2 * k * rows)
            for j, c in enumerate(columns):
                text[2 * j :: 2 * k] = _cells(c[lo : lo + rows])
            text[2 * k - 1 :: 2 * k] = ["\n"] * rows
            fh.write("".join(text))


def _read_rows(path, names, bad_header=None, entry="entry") -> np.ndarray:
    """Float rows of a CSV with columns ``names``.  The first line is a header
    if it starts with ``names[0]``; given ``bad_header``, it must equal ``names``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
    if not line:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in next(csv.reader([line]), [])]
    if bad_header and header != names:
        raise ValueError(f"{path}: {bad_header}")
    load = partial(np.loadtxt, path, delimiter=",", comments=None, ndmin=2,
                   skiprows=int(header[:1] == names[:1]))
    shape_error = ValueError(f"{path}: expected rows of {','.join(names)}")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = load(encoding="utf-8")
        except ValueError:
            # latin-1 decodes any byte, so this parse fails only on ragged rows
            try:
                ragged = load(dtype=str, encoding="latin-1").shape[1] != len(names)
            except ValueError:
                ragged = True
            raise shape_error if ragged else ValueError(f"{path}: non-numeric {entry}") from None
    if data.size and data.shape[1] != len(names):
        raise shape_error
    return data.reshape(-1, len(names))


# ---------------------------------------------------------------------------
# point patterns


def write_pattern_csv(pattern: PointPattern, path) -> None:
    cols = [pattern.x, pattern.y, pattern.t]
    for mark in pattern.marks.values():
        if mark.kind == "continuous":
            cols.append(mark.values)
        else:
            quoted = np.array([_quote(str(v)) for v in mark.levels], dtype=object)
            cols.append(quoted[mark.values])
    _write_csv(path, ["x", "y", "t", *pattern.marks], cols)


def read_pattern_csv(
    path,
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    network: Optional[LinearNetwork] = None,
    snap_max: Optional[float] = None,
) -> PointPattern:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header[:3] != ["x", "y", "t"]:
        raise ValueError(f"{path}: header must start with x,y,t")
    return pattern_from_table(
        rows[1:],
        names=header[3:],
        window=window,
        interval=interval,
        network=network,
        snap_max=snap_max,
    )


# ---------------------------------------------------------------------------
# linear networks


def write_network_json(network: LinearNetwork, path) -> None:
    obj = {
        "vertices": [[float(x), float(y)] for x, y in network.vertices],
        "segments": [[int(u), int(v)] for u, v in network.segments],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_dumps(obj))


def read_network_json(path) -> LinearNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "vertices" not in obj or "segments" not in obj:
        raise ValueError(f"{path}: expected keys 'vertices' and 'segments'")
    return LinearNetwork(
        np.asarray(obj["vertices"], dtype=float),
        np.asarray(obj["segments"], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# covariates


_COVARIATE_HEADER = ["x", "y", "t", "value"]


def write_covariate_csv(grid: CovariateGrid, path) -> None:
    _write_csv(path, _COVARIATE_HEADER, list(grid.node_table().T))


def read_covariate_csv(path) -> np.ndarray:
    """Rows of (x, y, t, value) from a sample or grid-node CSV."""
    out = _read_rows(path, _COVARIATE_HEADER, "header must be x,y,t,value")
    if len(out) == 0:
        raise ValueError(f"{path}: expected rows of x,y,t,value")
    return out


def _uniform_axis(vals: np.ndarray, what: str):
    if len(vals) < 2:
        raise ValueError(f"covariate grid needs at least 2 {what} nodes")
    steps = np.diff(vals)
    step = float(steps[0])
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * max(1.0, abs(step)):
        raise ValueError(f"covariate {what} nodes are not uniformly spaced")
    return float(vals[0]), step, len(vals)


def grid_from_nodes(samples: np.ndarray, name: str = "cov") -> CovariateGrid:
    """Rebuild a regular grid from node rows in x-fastest order.

    Raises if the rows do not enumerate a complete, uniformly spaced
    grid; scattered samples must go through interpolate_idw instead.
    """
    samples = np.asarray(samples, dtype=float)
    xs = np.unique(samples[:, 0])
    ys = np.unique(samples[:, 1])
    ts = np.unique(samples[:, 2])
    nx, ny, nt = len(xs), len(ys), len(ts)
    if nx * ny * nt != len(samples):
        raise ValueError("covariate rows do not form a complete regular grid")
    x0, dx, _ = _uniform_axis(xs, "x")
    y0, dy, _ = _uniform_axis(ys, "y")
    t0, dt, _ = _uniform_axis(ts, "t")
    tt, yy, xx = np.meshgrid(ts, ys, xs, indexing="ij")
    expect = np.column_stack([xx.ravel(), yy.ravel(), tt.ravel()])
    if not np.array_equal(expect, samples[:, :3]):
        raise ValueError("covariate rows are not in x-fastest grid order")
    values = samples[:, 3].reshape(nt, ny, nx)
    return CovariateGrid(name, x0, dx, nx, y0, dy, ny, t0, dt, nt, values)


# ---------------------------------------------------------------------------
# summary surfaces


_SURFACE_HEADER = ["r", "h", "estimate", "theoretical"]


def write_surface_csv(surface, path) -> None:
    """Long-format surface CSV; ListaSet gains a leading id column.

    A SummarySurface is written as a stack of one surface, with no id
    column: the rows run over the surfaces, then r, then h.
    """
    lista = isinstance(surface, ListaSet)
    est = surface.est if lista else surface.est[None]
    n, nr, nh = est.shape
    rs, hs = np.tile(np.repeat(surface.rs, nh), n), np.tile(surface.hs, n * nr)
    header, columns = _SURFACE_HEADER, [rs, hs, est.ravel(), np.tile(surface.theo.ravel(), n)]
    if lista:
        ids = np.repeat(np.asarray(surface.ids, dtype=np.int64), nr * nh)
        header, columns = ["id", *header], [ids, *columns]
    _write_csv(path, header, columns)


def read_surface_csv(path, statistic: str = "K") -> SummarySurface:
    """Rebuild a single surface written by write_surface_csv."""
    data = _read_rows(path, _SURFACE_HEADER, "expected header r,h,estimate,theoretical")
    rs = np.unique(data[:, 0])
    hs = np.unique(data[:, 1])
    if len(data) == 0 or len(rs) * len(hs) != len(data):
        raise ValueError(f"{path}: rows do not cover a full lag grid")
    est = data[:, 2].reshape(len(rs), len(hs))
    theo = data[:, 3].reshape(len(rs), len(hs))
    return SummarySurface(rs, hs, est, theo, statistic)


# ---------------------------------------------------------------------------
# per-event intensities


def write_intensity_csv(values, path) -> None:
    _write_csv(path, ["intensity"], [np.asarray(values, dtype=float)])


def read_intensity_csv(path) -> np.ndarray:
    """Per-event intensities; the ``intensity`` header line is optional."""
    vals = _read_rows(path, ["intensity"], entry="intensity entry")[:, 0]
    if vals.size == 0:
        raise ValueError(f"{path}: no intensity values")
    if (vals <= 0).any() or not np.isfinite(vals).all():
        raise ValueError(f"{path}: intensities must be positive and finite")
    return vals
