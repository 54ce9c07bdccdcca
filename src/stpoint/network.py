"""Linear networks: geometry, shortest paths, equidistant counts.

A network is an undirected graph of straight segments.  Points live on
segments as (segment id, arc offset from the segment's first vertex).
Shortest-path distances are measured along the network; a point interior
to a segment acts as a temporary degree-2 vertex.

The equidistant count m(u, r) is the number of network locations at
shortest-path distance exactly r from u.  On each segment the distance to
the origin is a tent-shaped piecewise-linear function of arc position, so
the count reduces to counting branch crossings per segment plus vertex
hits, with a fixed tolerance for coincidences.

Pair tables take their origins in blocks.  One label-correcting search
relaxes the vertex distances of every origin in a block together, with
the same float sums as a Dijkstra search per origin, and the equidistant
counts of a block are read off each origin's segment end distances and
tent peaks, sorted as (origin, breakpoint) keys; only lags within a few
VERTEX_TOL of a peak or of 0 go through the tolerance rule of
``equidistant_counts``: every end distance lies next to a peak or to 0
(``_block_counts`` gives the argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

__all__ = [
    "LinearNetwork",
    "NetworkPoint",
    "snap_to_network",
    "network_distance",
    "point_vertex_distances",
    "pairwise_network_distances",
    "equidistant_count",
    "equidistant_counts",
]

VERTEX_TOL = 1e-9


@dataclass(frozen=True)
class LinearNetwork:
    """Undirected graph of straight planar segments."""

    vertices: np.ndarray
    segments: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        s = np.asarray(self.segments, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (V, 2)")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        if s.ndim != 2 or s.shape[1] != 2:
            raise ValueError("segments must have shape (S, 2)")
        if len(s) == 0:
            raise ValueError("network needs at least one segment")
        if s.min() < 0 or s.max() >= len(v):
            raise ValueError("segment vertex index out of range")
        if (s[:, 0] == s[:, 1]).any():
            raise ValueError("zero-length segment (loop) not allowed")
        key = np.sort(s, axis=1)
        if len(np.unique(key, axis=0)) != len(s):
            raise ValueError("duplicate segment")
        d = v[s[:, 1]] - v[s[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        if (lengths <= 0).any():
            raise ValueError("segment endpoints coincide")
        v.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "segments", s)

    @cached_property
    def lengths(self) -> np.ndarray:
        d = self.vertices[self.segments[:, 1]] - self.vertices[self.segments[:, 0]]
        out = np.hypot(d[:, 0], d[:, 1])
        out.setflags(write=False)
        return out

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())

    @cached_property
    def cum_start(self) -> np.ndarray:
        """Arc-length coordinate of each segment's start, in segment order."""
        out = np.concatenate([[0.0], np.cumsum(self.lengths)[:-1]])
        out.setflags(write=False)
        return out

    @property
    def bbox_diagonal(self) -> float:
        v = self.vertices
        return float(np.hypot(v[:, 0].max() - v[:, 0].min(), v[:, 1].max() - v[:, 1].min()))

    @cached_property
    def _csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every segment, grouped by source vertex.

        Returns (indptr, neighbor, length): the edges leaving vertex v sit at
        positions indptr[v]:indptr[v + 1] of the last two arrays.
        """
        s = self.segments
        src = np.concatenate([s[:, 0], s[:, 1]])
        order = np.argsort(src, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=len(self.vertices)))])
        return indptr, np.concatenate([s[:, 1], s[:, 0]])[order], np.tile(self.lengths, 2)[order]

    @cached_property
    def adjacency(self) -> list:
        """adjacency[v] = list of (neighbor vertex, edge length)."""
        adj = [[] for _ in range(len(self.vertices))]
        for (u, v), ell in zip(self.segments, self.lengths):
            adj[u].append((int(v), float(ell)))
            adj[v].append((int(u), float(ell)))
        return adj

    def segment_point(self, seg, off) -> np.ndarray:
        """Planar coordinates of arc positions (seg, off), seg ids in [0, S)."""
        seg = _segment_ids(self, seg)
        off = np.asarray(off, dtype=float)
        a = self.vertices[self.segments[seg, 0]]
        b = self.vertices[self.segments[seg, 1]]
        frac = (off / self.lengths[seg])[..., None]
        return a + frac * (b - a)

    def arc_position(self, seg, off) -> np.ndarray:
        """Global arc-length coordinate in [0, total_length)."""
        return self.cum_start[_segment_ids(self, seg)] + np.asarray(off, float)

    def location_at(self, arc) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of arc_position: global arc coordinate -> (seg, off)."""
        arc = np.asarray(arc, dtype=float)
        ends = np.cumsum(self.lengths)
        seg = np.searchsorted(ends, arc, side="right")
        seg = np.clip(seg, 0, len(self.lengths) - 1)
        off = np.clip(arc - self.cum_start[seg], 0.0, self.lengths[seg])
        return seg.astype(np.int64), off


@dataclass(frozen=True)
class NetworkPoint:
    """A location on a network: segment id plus offset from its start."""

    seg: int
    off: float

    def coords(self, network: LinearNetwork) -> Tuple[float, float]:
        xy = network.segment_point([self.seg], [self.off])[0]
        return float(xy[0]), float(xy[1])


def _as_seg_off(network: LinearNetwork, point) -> Tuple[int, float]:
    """(seg, off) of a NetworkPoint or pair, refused unless 0 <= seg < S."""
    seg, off = (point.seg, point.off) if isinstance(point, NetworkPoint) else point
    return int(_segment_ids(network, seg)), float(off)


def snap_to_network(network: LinearNetwork, x, y):
    """Nearest network location for each planar point.

    Returns (seg, off, snapped_xy, distance).  Ties are broken toward the
    lowest segment index.  Points are taken in row blocks of
    ``_origin_blocks``, so no (points x segments) table is built whole.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.stack([x, y], axis=-1)
    a = network.vertices[network.segments[:, 0]]
    b = network.vertices[network.segments[:, 1]]
    ab = b - a
    ell2 = (ab**2).sum(axis=1)
    seg = np.empty(len(p), dtype=np.int64)
    off, dist = np.empty(len(p)), np.empty(len(p))
    snapped = np.empty((len(p), 2))
    for rows in _origin_blocks(network, len(p), 0):
        q = p[rows]
        # projection parameter clamped to the segment, for all point/segment pairs
        ap = q[:, None, :] - a[None, :, :]
        tt = np.clip((ap * ab[None, :, :]).sum(axis=2) / ell2[None, :], 0.0, 1.0)
        proj = a[None, :, :] + tt[:, :, None] * ab[None, :, :]
        d2 = ((q[:, None, :] - proj) ** 2).sum(axis=2)
        s = np.argmin(d2, axis=1)  # argmin takes the first minimum: lowest index
        idx = np.arange(len(q))
        seg[rows] = s
        off[rows] = tt[idx, s] * network.lengths[s]
        snapped[rows] = proj[idx, s]
        dist[rows] = np.sqrt(d2[idx, s])
    return seg, off, snapped, dist


def _integers(values, message: str) -> np.ndarray:
    """values as int64, refused with message unless all are integers (3.0 is, 0.9 is not)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        values = values.astype(float)
        if not (np.isfinite(values) & (values == np.floor(values))).all():
            raise ValueError(message)
    return values.astype(np.int64, copy=False)


def _segment_ids(network: LinearNetwork, seg) -> np.ndarray:
    """Segment ids as int64, refused unless each is an integer in [0, S)."""
    seg = _integers(seg, "segment ids must be integers")
    if ((seg < 0) | (seg >= len(network.segments))).any():
        raise ValueError(f"segment id outside [0, {len(network.segments)})")
    return seg


def _check_points(network: LinearNetwork, seg, off) -> Tuple[np.ndarray, np.ndarray]:
    """(seg, off) arrays, refused unless each offset lies on its segment.

    An offset may overshoot its segment by VERTEX_TOL at either end.
    """
    seg = _segment_ids(network, seg)
    off = np.asarray(off, dtype=float)
    ell = network.lengths[seg]
    if not ((off >= -VERTEX_TOL) & (off <= ell + VERTEX_TOL)).all():  # NaN fails too
        raise ValueError("offset outside segment")
    return seg, off


def _vertex_distances(network: LinearNetwork, seg, off) -> np.ndarray:
    """Shortest-path distances from the points (seg[i], off[i]) to every vertex.

    Returns shape (len(seg), V), +inf where unreachable.  Every origin
    starts at its segment's two endpoints, and all origins relax together
    (label correcting): each round adds the edge lengths to the (origin,
    vertex) labels that improved in the round before and keeps the smaller
    label with ``np.minimum.at``, until none improves.  A label is the
    left-to-right float sum ((off + w1) + w2) + ... along one path, and a
    rounded a + w is never below a, so the labels settle on the least such
    sum over paths: the fixed point a Dijkstra search reaches, bit for bit.
    """
    seg, off = _check_points(network, seg, off)
    ell = network.lengths[seg]
    off = np.where(off < 0.0, 0.0, off)  # as min(max(off, 0.0), ell): keeps -0.0
    off = np.where(off > ell, ell, off)
    nv = len(network.vertices)
    dist = np.full((len(seg), nv), np.inf)
    flat = dist.reshape(-1)
    base = np.arange(len(seg)) * nv
    start = np.concatenate([base + network.segments[seg, 0], base + network.segments[seg, 1]])
    flat[start] = np.concatenate([off, ell - off])
    indptr, nbr, wt = network._csr
    mark = np.zeros(flat.size, dtype=bool)  # labels improved this round
    front = start
    while front.size:
        row, node = np.divmod(front, nv)
        deg = indptr[node + 1] - indptr[node]
        edge = np.repeat(indptr[node] - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        key = np.repeat(row * nv, deg) + nbr[edge]
        cand = np.repeat(flat[front], deg) + wt[edge]
        better = cand < flat[key]
        key = key[better]
        np.minimum.at(flat, key, cand[better])
        mark[key] = True
        front = np.flatnonzero(mark)
        mark[front] = False
    return dist


def point_vertex_distances(network: LinearNetwork, point) -> np.ndarray:
    """Shortest-path distance from a network point to every vertex.

    The search starts from the point's two segment endpoints; unreachable
    vertices get +inf.
    """
    seg, off = _as_seg_off(network, point)
    return _vertex_distances(network, [seg], [off])[0]


def network_distance(network: LinearNetwork, a, b) -> float:
    """Shortest-path distance between two network points (inf if disconnected)."""
    (seg_a, off_a), (seg_b, off_b) = _as_seg_off(network, a), _as_seg_off(network, b)
    seg, off = _check_points(network, [seg_a, seg_b], [off_a, off_b])
    return float(_pair_geometry(network, (seg[:1], off[:1]), (seg[1:], off[1:]))[0][0, 0])


def pairwise_network_distances(network: LinearNetwork, seg, off) -> np.ndarray:
    """Matrix of shortest-path distances between points (seg[i], off[i]).

    Shares the pair-geometry path of the network second-order summaries.
    """
    seg, off = _segment_ids(network, seg), np.asarray(off, dtype=float)
    out = np.empty((len(seg), len(seg)))
    for rows in _origin_blocks(network, len(seg), len(seg)):
        out[rows] = _pair_geometry(network, (seg[rows], off[rows]), (seg, off))[0]
    np.fill_diagonal(out, 0.0)
    return out


_CELLS = 2**17  # table cells per block of origins


def _origin_blocks(network, n_origins: int, n_partners: int) -> list:
    """Slices of consecutive origins, each with about _CELLS cells per table.

    A block's tables have one row per origin and one column per partner,
    vertex or (sub)segment; per partner only when network is None.  The
    origins are pair-table origins, the pairs of a lag fold, mark-imputation
    query points or IDW grid nodes (against samples).  There is always at
    least one, maybe empty, slice.
    """
    net = () if network is None else (len(network.vertices), len(network.segments) + 1)
    step = max(1, _CELLS // max(n_partners, 1, *net))
    return [slice(lo, lo + step) for lo in range(0, max(n_origins, 1), step)]


def _pair_geometry(network, origins, partners, reach=-np.inf):
    """Distances and equidistant counts from each origin to each partner.

    origins and partners are (seg, off) array pairs; all origins are
    handled at once, so callers pass blocks from ``_origin_blocks``.
    m(origin, d) is evaluated only where d <= reach.  Unreachable partners
    get m = 0, partners beyond the reach m = 1, which no lag up to the
    reach can see.  Returns (dist, m, dv): dist and m of shape
    (len(origins[0]), len(partners[0])), and dv the origins' vertex
    distances, of shape (len(origins[0]), V), +inf where unreachable.
    """
    seg_o = np.asarray(origins[0], dtype=np.int64)
    off_o = np.asarray(origins[1], dtype=float)
    seg_p = _segment_ids(network, partners[0])
    off_p = np.asarray(partners[1], dtype=float)
    dv = _vertex_distances(network, seg_o, off_o)
    ell = network.lengths[seg_p]
    ends = network.segments[seg_p]
    dist = np.minimum(dv[:, ends[:, 0]] + off_p, dv[:, ends[:, 1]] + (ell - off_p))
    row, col = np.nonzero(seg_o[:, None] == seg_p)  # the direct route
    dist[row, col] = np.minimum(dist[row, col], np.abs(off_p[col] - off_o[row]))
    m = np.ones(dist.shape, dtype=np.int64)
    unreachable = np.isinf(dist)
    row, col = np.nonzero((dist <= reach) & ~unreachable)
    if row.size:
        m[row, col] = _block_counts(network, seg_o, off_o, dv, row, dist[row, col])
    m[unreachable] = 0
    return dist, m, dv


def _rank(values, cap, row, x, side):
    """Rank of each x[q] among the values of row row[q], with its neighbours.

    A row's values up to cap count (NaN and values past it are dropped).
    Returns (rank, below, above): rank[q] is np.searchsorted of x[q] in row
    row[q]'s sorted values, and below and above are the values just before
    and at that rank, -inf and +inf past the row's ends.  All rows share one
    sorted array of complex keys row + i value, which numpy orders by real
    part, then imaginary part.
    """
    r, c = np.nonzero(values <= cap)
    keys = np.empty(r.size, dtype=complex)
    keys.real, keys.imag = r, values[r, c]  # not r + 1j * value: 1j * inf is nan+infj
    keys.sort()
    query = np.empty(len(x), dtype=complex)
    query.real, query.imag = row, x
    at = np.searchsorted(keys, query, side)
    bounds = np.searchsorted(r, np.arange(len(values) + 1))  # row k: keys[bounds[k]:bounds[k + 1]]
    first, stop = bounds[row], bounds[row + 1]
    sorted_values = np.concatenate([[-np.inf], keys.imag, [np.inf]])
    below = np.where(at > first, sorted_values[at], -np.inf)
    above = np.where(at < stop, sorted_values[at + 1], np.inf)
    return at - first, below, above


def _block_counts(network, seg, off, dv, row, rs) -> np.ndarray:
    """m(origin row[q], rs[q]) for every q, as ``equidistant_counts`` gives it.

    Origin k is (seg[k], off[k]) with vertex distances dv[k].  On each
    (sub)segment the distance to the origin is a tent that rises from both
    end distances to its peak.  A lag r further than a few VERTEX_TOL from
    every end, peak and 0 meets the tent once per end below r unless r is
    past the peak, so m = #{ends < r} - 2 #{peaks <= r}; no vertex lies at
    r.  Both counts, and the peaks next to each lag, come from searches over
    the sorted (origin, breakpoint) keys of ``_rank``.  Lags at or below
    VERTEX_TOL count 1.  The other lags within margin of a peak or of 0,
    where the tolerance rule may decide, go to ``equidistant_counts``.

    The ends need no test of their own.  An end is +inf, 0 or the label
    d(v) of a reachable vertex v, and that label is the peak of a tent, or
    lies within VERTEX_TOL of 0:

    - the search sets d(v) = fl(d(u) + l) along a segment (u, v) of length
      l, which is never the origin's own (its direct label is not above
      d(u) + l).  That segment's tent, from d(u) and d(v) over l, peaks at
      d(u) + ((d(v) + l) - d(u)) / 2, which is d(v) within the float slop
      of the distances;
    - or d(v) is the origin's own distance along its segment, off or l -
      off after clamping to [0, l].  The piece from the origin to v then
      peaks at d(v) within VERTEX_TOL / 2, or, when that piece is left out
      as shorter than VERTEX_TOL, d(v) is within VERTEX_TOL of 0.

    So a lag further than margin from every peak and from 0 is more than
    margin - VERTEX_TOL - slop, at least 3 VERTEX_TOL, from every end.
    """
    da, db, ell = _segment_tables(network, seg, off, dv)
    with np.errstate(invalid="ignore"):  # inf - inf on unreachable rows
        peaks = da + ((db + ell) - da) / 2.0
    # float slop of the tent arithmetic grows with the size of the distances
    scale = max(dv[np.isfinite(dv)].max(initial=0.0), rs.max(initial=0.0)) + network.lengths.max()
    margin = 4.0 * VERTEX_TOL + 64.0 * np.finfo(float).eps * scale
    cap = rs.max(initial=0.0) + 2.0 * margin  # breakpoints beyond it change nothing
    e = _rank(np.concatenate([da, db], axis=1), cap, row, rs, "left")[0]
    p, peak_below, peak_above = _rank(peaks, cap, row, rs, "right")
    counts = e - 2 * p
    gap = np.minimum.reduce([rs, rs - peak_below, peak_above - rs])
    near = gap <= margin
    counts[rs <= VERTEX_TOL] = 1
    slow = np.flatnonzero(near & (rs > VERTEX_TOL))  # sorted by origin, as row is
    for q in np.split(slow, np.flatnonzero(np.diff(row[slow])) + 1):
        if q.size:
            k = row[q[0]]
            counts[q] = equidistant_counts(network, (seg[k], off[k]), rs[q], dv=dv[k])
    return counts


def _segment_tables(network, seg, off, dv):
    """Per-(sub)segment end distances for each origin (seg[k], off[k]).

    Returns (da, db, ell), each of shape (len(seg), S + 1), from the vertex
    distances dv of shape (len(seg), V).  Column s holds segment s, except
    that each origin's own segment is split there: the piece from its start
    vertex to the origin takes the segment's column, the piece from the
    origin to its end vertex column S.  A piece no longer than VERTEX_TOL is
    left out, as ends at +inf.
    """
    segs, k, s = network.segments, np.arange(len(seg)), len(network.segments)
    da = np.empty((len(seg), s + 1))
    db = np.empty_like(da)
    ell = np.empty_like(da)
    da[:, :s] = dv[:, segs[:, 0]]
    db[:, :s] = dv[:, segs[:, 1]]
    ell[:, :s] = network.lengths
    ls = network.lengths[seg]
    head = off > VERTEX_TOL  # piece from the start vertex to the origin
    tail = ls - off > VERTEX_TOL  # piece from the origin to the end vertex
    da[k, seg] = np.where(head, dv[k, segs[seg, 0]], np.inf)
    db[k, seg] = np.where(head, 0.0, np.inf)
    ell[k, seg] = off
    da[:, s] = np.where(tail, 0.0, np.inf)
    db[:, s] = np.where(tail, dv[k, segs[seg, 1]], np.inf)
    ell[:, s] = ls - off
    return da, db, ell


def equidistant_counts(network: LinearNetwork, point, rs, dv=None) -> np.ndarray:
    """m(point, r) for each r in rs; m(point, 0) = 1 by convention."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    if not (rs >= 0).all():  # NaN fails too
        raise ValueError("r must be nonnegative")
    seg, off = _as_seg_off(network, point)
    if dv is None:
        dv = point_vertex_distances(network, (seg, off))
    tables = _segment_tables(network, np.array([seg]), np.array([off]), dv[None, :])
    da, db, ell = (t[0] for t in tables)
    tol = VERTEX_TOL
    rmax = rs.max(initial=0.0)
    # no lag up to rmax crosses a (sub)segment whose nearer end is at rmax
    # or beyond, or hits a vertex beyond rmax + tol; this also drops the
    # unreachable ones and the pieces left out
    ok = np.minimum(da, db) < rmax
    da, db, ell = da[ok], db[ok], ell[ok]

    r = rs[None, :]
    s1 = r - da[:, None]
    s2 = ell[:, None] + db[:, None] - r
    sstar = ((db + ell - da) / 2.0)[:, None]
    asc = (s1 > tol) & (s1 < ell[:, None] - tol) & (s1 <= sstar + tol)
    desc = (s2 > tol) & (s2 < ell[:, None] - tol) & (s2 >= sstar - tol)
    both = asc & desc & (np.abs(s1 - s2) <= tol)
    interior = asc.sum(axis=0) + desc.sum(axis=0) - both.sum(axis=0)

    near = dv[np.isfinite(dv) & (dv <= rmax + tol)]
    hits = np.abs(near[:, None] - r) <= tol
    counts = interior + hits.sum(axis=0)
    counts[rs <= tol] = 1
    return counts.astype(np.int64)


def equidistant_count(network: LinearNetwork, point, r: float) -> int:
    """Number of network locations at distance exactly r from the point."""
    return int(equidistant_counts(network, point, [r])[0])
