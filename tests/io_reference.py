"""Per-row CSV writers and per-value readers (test-only reference).

The package writes every CSV through one block writer and reads every
numeric CSV through one ``np.loadtxt`` reader.  This module keeps the
codec they replace: a ``csv.writer`` row per event, node or lag with
``format(v, ".17g")`` on each float, the CLI's hand-built score and
p-value tables, and readers that call ``float`` on each value.  The
package must write the same bytes and read bit-identical arrays.
"""

import csv

import numpy as np

from stpoint import ListaSet, SummarySurface


def fmt_float(v) -> str:
    return format(float(v), ".17g")


def write_pattern_csv(pattern, path) -> None:
    cols = [pattern.x, pattern.y, pattern.t]
    header = ["x", "y", "t"]
    formats = [True, True, True]  # numeric column flags
    for name, mark in pattern.marks.items():
        header.append(name)
        if mark.kind == "continuous":
            cols.append(mark.values)
            formats.append(True)
        else:
            cols.append(mark.labels)
            formats.append(False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i in range(pattern.n):
            w.writerow(
                [fmt_float(c[i]) if f else str(c[i]) for c, f in zip(cols, formats)]
            )


def write_covariate_csv(grid, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "y", "t", "value"])
        for row in grid.node_table():
            w.writerow([fmt_float(v) for v in row])


def write_surface_csv(surface, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if isinstance(surface, ListaSet):
            w.writerow(["id", "r", "h", "estimate", "theoretical"])
            for pid, surf in zip(surface.ids, surface.surfaces):
                for i, r in enumerate(surf.rs):
                    for j, h in enumerate(surf.hs):
                        w.writerow(
                            [str(int(pid))]
                            + [fmt_float(v) for v in (r, h, surf.est[i, j], surf.theo[i, j])]
                        )
        else:
            w.writerow(["r", "h", "estimate", "theoretical"])
            for i, r in enumerate(surface.rs):
                for j, h in enumerate(surface.hs):
                    w.writerow(
                        [fmt_float(v) for v in (r, h, surface.est[i, j], surface.theo[i, j])]
                    )


def write_intensity_csv(values, path) -> None:
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["intensity"])
        for v in values:
            w.writerow([fmt_float(v)])


def scores_csv(scores, flagged_ids) -> str:
    """The text of the CLI's ``scores.csv`` (``pvalues.csv`` is the same
    table with the header ``id,pvalue,significant``)."""
    flagged = set(int(i) for i in flagged_ids)
    lines = ["id,score,flagged"]
    for i, score in enumerate(scores, start=1):
        lines.append(f"{i},{format(float(score), '.17g')},{int(i in flagged)}")
    return "\n".join(lines) + "\n"


def read_covariate_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header != ["x", "y", "t", "value"]:
        raise ValueError(f"{path}: header must be x,y,t,value")
    try:
        out = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    except ValueError:
        raise ValueError(f"{path}: non-numeric entry")
    if out.ndim != 2 or out.shape[1] != 4 or out.shape[0] == 0:
        raise ValueError(f"{path}: expected rows of x,y,t,value")
    return out


def read_surface_csv(path, statistic: str = "K") -> SummarySurface:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["r", "h", "estimate", "theoretical"]:
        raise ValueError(f"{path}: expected header r,h,estimate,theoretical")
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    rs = np.unique(data[:, 0])
    hs = np.unique(data[:, 1])
    if len(rs) * len(hs) != len(data):
        raise ValueError(f"{path}: rows do not cover a full lag grid")
    est = data[:, 2].reshape(len(rs), len(hs))
    theo = data[:, 3].reshape(len(rs), len(hs))
    return SummarySurface(rs, hs, est, theo, statistic)


def read_intensity_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    start = 1 if rows[0] and rows[0][0].strip() == "intensity" else 0
    try:
        vals = np.array([float(r[0]) for r in rows[start:]], dtype=float)
    except ValueError:
        raise ValueError(f"{path}: non-numeric intensity entry")
    if vals.size == 0:
        raise ValueError(f"{path}: no intensity values")
    if (vals <= 0).any() or not np.isfinite(vals).all():
        raise ValueError(f"{path}: intensities must be positive and finite")
    return vals
