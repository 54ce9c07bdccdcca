"""Core types for spatio-temporal point patterns.

A pattern is a finite set of events (x, y, t) observed on a bounded
rectangular window crossed with a closed time interval, optionally marked
and optionally constrained to a linear network.  All record types here are
immutable after construction; arrays are stored read-only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .network import LinearNetwork, _check_points, snap_to_network

__all__ = [
    "SpatialWindow",
    "TimeInterval",
    "MarkColumn",
    "PointPattern",
    "pattern_from_table",
    "temporal_multiplicity",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpatialWindow:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (np.isfinite([self.x0, self.x1, self.y0, self.y1]).all()):
            raise ValueError("window bounds must be finite")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("window must have positive extent on both axes")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y) -> np.ndarray:
        return (x >= self.x0) & (x <= self.x1) & (y >= self.y0) & (y <= self.y1)


@dataclass(frozen=True)
class TimeInterval:
    """Closed interval [t0, t1] with t1 > t0."""

    t0: float
    t1: float

    def __post_init__(self):
        if not np.isfinite([self.t0, self.t1]).all():
            raise ValueError("time bounds must be finite")
        if self.t1 <= self.t0:
            raise ValueError("time interval must have positive length")

    @property
    def length(self) -> float:
        return self.t1 - self.t0

    def contains(self, t) -> np.ndarray:
        return (t >= self.t0) & (t <= self.t1)


def temporal_multiplicity(interval: TimeInterval, t: float, tau: float):
    """Number of times t - tau, t + tau that fall inside the interval.

    Vectorised over t and tau.  Both boundary comparisons are inclusive, so
    the value is 2, 1 or 0; tau = 0 at an interior time gives 2.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    left = (t - tau) >= interval.t0
    right = (t + tau) <= interval.t1
    return left.astype(np.int64) + right.astype(np.int64)


@dataclass(frozen=True)
class MarkColumn:
    """One mark column, either continuous or categorical.

    Continuous marks store float values.  Categorical marks store integer
    codes into ``levels``, which is kept sorted lexicographically so that
    the first level is the treatment-coding reference.
    """

    kind: str
    values: np.ndarray
    levels: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise ValueError(f"unknown mark kind {self.kind!r}")
        if self.kind == "categorical":
            if self.levels is None or len(self.levels) == 0:
                raise ValueError("categorical mark needs a level set")
            codes = np.asarray(self.values, dtype=np.int64)
            if codes.size and (codes.min() < 0 or codes.max() >= len(self.levels)):
                raise ValueError("categorical codes out of range")
            object.__setattr__(self, "values", _readonly(codes))
        else:
            object.__setattr__(
                self, "values", _readonly(np.asarray(self.values, dtype=float))
            )

    @property
    def labels(self) -> np.ndarray:
        if self.kind != "categorical":
            raise ValueError("labels only defined for categorical marks")
        return np.asarray(self.levels, dtype=object)[self.values]

    def take(self, idx) -> "MarkColumn":
        return MarkColumn(self.kind, self.values[idx], self.levels)


@dataclass(frozen=True)
class PointPattern:
    """Events (x, y, t) on window x interval, optionally on a network.

    ``coords`` has shape (n, 3) with columns x, y, t.  For network patterns
    ``net_seg``/``net_off`` give each event's segment index and arc offset
    from the segment's first vertex.
    """

    coords: np.ndarray
    window: SpatialWindow
    interval: TimeInterval
    marks: dict = field(default_factory=dict)
    network: Optional[LinearNetwork] = None
    net_seg: Optional[np.ndarray] = None
    net_off: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError("coords must have shape (n, 3)")
        if not np.isfinite(c).all():
            raise ValueError("coordinates must be finite")
        if not self.window.contains(c[:, 0], c[:, 1]).all():
            raise ValueError("events must lie inside the spatial window")
        if not self.interval.contains(c[:, 2]).all():
            raise ValueError("events must lie inside the time interval")
        object.__setattr__(self, "coords", _readonly(c))
        for name, m in self.marks.items():
            if len(m.values) != len(c):
                raise ValueError(f"mark {name!r} length does not match events")
        if self.network is not None:
            if self.net_seg is None or self.net_off is None:
                raise ValueError("network pattern needs net_seg and net_off")
            seg = np.asarray(self.net_seg)  # _check_points refuses 0.9, then casts
            off = np.asarray(self.net_off, dtype=float)
            if len(seg) != len(c) or len(off) != len(c):
                raise ValueError("network coordinates length mismatch")
            seg, off = (_readonly(a) for a in _check_points(self.network, seg, off))
            xy = self.network.segment_point(seg, off)
            if len(c) and np.max(np.hypot(xy[:, 0] - c[:, 0], xy[:, 1] - c[:, 1])) > 1e-9:
                raise ValueError("network coordinates inconsistent with (x, y)")
            object.__setattr__(self, "net_seg", seg)
            object.__setattr__(self, "net_off", off)
        elif self.net_seg is not None or self.net_off is not None:
            raise ValueError("net_seg/net_off given without a network")

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def x(self) -> np.ndarray:
        return self.coords[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.coords[:, 1]

    @property
    def t(self) -> np.ndarray:
        return self.coords[:, 2]

    @property
    def volume(self) -> float:
        """Measure of the domain: |W|*|T| planar, |L|*|T| on a network."""
        if self.network is not None:
            return self.network.total_length * self.interval.length
        return self.window.area * self.interval.length

    def subset(self, idx) -> "PointPattern":
        idx = np.asarray(idx)
        if idx.size == 0:  # np.asarray([]) is float, not an index
            idx = idx.astype(np.intp)
        return PointPattern(
            self.coords[idx],
            self.window,
            self.interval,
            {k: m.take(idx) for k, m in self.marks.items()},
            self.network,
            None if self.net_seg is None else self.net_seg[idx],
            None if self.net_off is None else self.net_off[idx],
        )

    def __str__(self):
        kind = "network" if self.network is not None else "planar"
        lines = [
            f"Spatio-temporal {kind} point pattern",
            f"{self.n} points",
            f"Enclosing window: rectangle = [{self.window.x0:g}, {self.window.x1:g}] "
            f"x [{self.window.y0:g}, {self.window.y1:g}]",
            f"Time period: [{self.interval.t0:g}, {self.interval.t1:g}]",
        ]
        if self.marks:
            lines.append("Marks: " + ", ".join(self.marks))
        return "\n".join(lines)


def _infer_mark(name: str, raw: list) -> MarkColumn:
    # numeric if every value parses as float; otherwise categorical with
    # lexicographically sorted level set
    try:
        vals = np.array([float(v) for v in raw], dtype=float)
    except (TypeError, ValueError):
        labels = [str(v) for v in raw]
        levels = tuple(sorted(set(labels)))
        index = {lv: i for i, lv in enumerate(levels)}
        codes = np.array([index[v] for v in labels], dtype=np.int64)
        return MarkColumn("categorical", codes, levels)
    if not np.isfinite(vals).all():
        raise ValueError(f"mark {name!r} has non-finite values")
    return MarkColumn("continuous", vals)


def pattern_from_table(
    rows: Iterable[Sequence],
    names: Optional[Sequence[str]] = None,
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    network: Optional[LinearNetwork] = None,
    snap_max: Optional[float] = None,
) -> PointPattern:
    """Build a pattern from rows of (x, y, t, mark1, ...).

    Unless supplied, the window and interval are the exact coordinate
    ranges of the data.  Extra columns become marks named mark1, mark2, ...
    (or ``names``), typed by inspection: all-numeric columns are continuous,
    anything else categorical.

    With a network, each (x, y) is snapped to its nearest network location;
    points further than ``snap_max`` (default 5% of the network's bounding
    box diagonal) raise.
    """
    table = [tuple(r) for r in rows]
    if not table:
        raise ValueError("empty table")
    ncol = len(table[0])
    if ncol < 3:
        raise ValueError("rows need at least x, y, t")
    if any(len(r) != ncol for r in table):
        raise ValueError("ragged rows")
    try:
        coords = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in table])
    except (TypeError, ValueError):
        raise ValueError("x, y, t must be numeric")
    if not np.isfinite(coords).all():
        raise ValueError("x, y, t must be finite")

    nmarks = ncol - 3
    if names is None:
        names = [f"mark{i + 1}" for i in range(nmarks)]
    if len(names) != nmarks:
        raise ValueError("names length does not match extra columns")
    marks = {
        str(nm): _infer_mark(str(nm), [r[3 + j] for r in table])
        for j, nm in enumerate(names)
    }

    net_seg = net_off = None
    if network is not None:
        if snap_max is None:
            snap_max = 0.05 * network.bbox_diagonal
        net_seg, net_off, snapped, dist = snap_to_network(
            network, coords[:, 0], coords[:, 1]
        )
        bad = dist > snap_max
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"point {k} is {dist[k]:.6g} from the network, "
                f"beyond snap_max={snap_max:.6g}"
            )
        coords = coords.copy()
        coords[:, 0] = snapped[:, 0]
        coords[:, 1] = snapped[:, 1]

    if window is None:
        window = SpatialWindow(
            float(coords[:, 0].min()),
            float(coords[:, 0].max()),
            float(coords[:, 1].min()),
            float(coords[:, 1].max()),
        )
    if interval is None:
        interval = TimeInterval(float(coords[:, 2].min()), float(coords[:, 2].max()))

    return PointPattern(coords, window, interval, marks, network, net_seg, net_off)
