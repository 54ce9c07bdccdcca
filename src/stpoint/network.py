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
"""

from __future__ import annotations

import heapq
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
    def adjacency(self) -> list:
        """adjacency[v] = list of (neighbor vertex, edge length)."""
        adj = [[] for _ in range(len(self.vertices))]
        for (u, v), ell in zip(self.segments, self.lengths):
            adj[u].append((int(v), float(ell)))
            adj[v].append((int(u), float(ell)))
        return adj

    def segment_point(self, seg, off) -> np.ndarray:
        """Planar coordinates of arc positions (seg, off)."""
        seg = np.asarray(seg, dtype=np.int64)
        off = np.asarray(off, dtype=float)
        a = self.vertices[self.segments[seg, 0]]
        b = self.vertices[self.segments[seg, 1]]
        frac = (off / self.lengths[seg])[..., None]
        return a + frac * (b - a)

    def arc_position(self, seg, off) -> np.ndarray:
        """Global arc-length coordinate in [0, total_length)."""
        return self.cum_start[np.asarray(seg, dtype=np.int64)] + np.asarray(off, float)

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


def _as_seg_off(point) -> Tuple[int, float]:
    if isinstance(point, NetworkPoint):
        return int(point.seg), float(point.off)
    seg, off = point
    return int(seg), float(off)


def snap_to_network(network: LinearNetwork, x, y):
    """Nearest network location for each planar point.

    Returns (seg, off, snapped_xy, distance).  Ties are broken toward the
    lowest segment index.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.stack([x, y], axis=-1)
    a = network.vertices[network.segments[:, 0]]
    b = network.vertices[network.segments[:, 1]]
    ab = b - a
    ell2 = (ab**2).sum(axis=1)
    # projection parameter clamped to the segment, for all point/segment pairs
    ap = p[:, None, :] - a[None, :, :]
    tt = np.clip((ap * ab[None, :, :]).sum(axis=2) / ell2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + tt[:, :, None] * ab[None, :, :]
    d2 = ((p[:, None, :] - proj) ** 2).sum(axis=2)
    seg = np.argmin(d2, axis=1)  # argmin takes the first minimum: lowest index
    idx = np.arange(len(p))
    off = tt[idx, seg] * network.lengths[seg]
    snapped = proj[idx, seg]
    dist = np.sqrt(d2[idx, seg])
    return seg.astype(np.int64), off, snapped, dist


def point_vertex_distances(network: LinearNetwork, point) -> np.ndarray:
    """Shortest-path distance from a network point to every vertex.

    Dijkstra seeded with the point's two segment endpoints; unreachable
    vertices get +inf.
    """
    seg, off = _as_seg_off(point)
    ell = float(network.lengths[seg])
    if not -VERTEX_TOL <= off <= ell + VERTEX_TOL:  # NaN fails too
        raise ValueError("offset outside segment")
    off = min(max(off, 0.0), ell)
    u, v = (int(k) for k in network.segments[seg])
    dist = np.full(len(network.vertices), np.inf)
    heap = []
    for start, d0 in ((u, off), (v, ell - off)):
        if d0 < dist[start]:
            dist[start] = d0
            heapq.heappush(heap, (d0, start))
    adj = network.adjacency
    done = np.zeros(len(network.vertices), dtype=bool)
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for nb, w in adj[node]:
            nd = d + w
            if nd < dist[nb]:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist


def network_distance(network: LinearNetwork, a, b) -> float:
    """Shortest-path distance between two network points (inf if disconnected)."""
    seg_a, off_a = _as_seg_off(a)
    seg_b, off_b = _as_seg_off(b)
    dv = point_vertex_distances(network, (seg_a, off_a))
    u, v = network.segments[seg_b]
    ell = float(network.lengths[seg_b])
    best = min(dv[u] + off_b, dv[v] + (ell - off_b))
    if seg_a == seg_b:
        best = min(best, abs(off_a - off_b))
    return float(best)


def pairwise_network_distances(network: LinearNetwork, seg, off) -> np.ndarray:
    """Matrix of shortest-path distances between points (seg[i], off[i]).

    Shares the pair-geometry path of the network second-order summaries.
    """
    seg_off = (np.asarray(seg, dtype=np.int64), np.asarray(off, dtype=float))
    out, _ = _pair_geometry(network, seg_off, seg_off)
    np.fill_diagonal(out, 0.0)
    return out


def _pair_geometry(network, origins, partners, reach=-np.inf):
    """Distances and equidistant counts from each origin to each partner.

    origins and partners are (seg, off) array pairs.  One Dijkstra per
    origin gives its distances to all partners; m(origin, d) is evaluated
    only where d <= reach.  Unreachable partners get m = 0, partners beyond
    the reach m = 1, which no lag up to the reach can see.  Returns
    (dist, m), both of shape (len(origins[0]), len(partners[0])).
    """
    seg_p, off_p = partners
    ends_u = network.segments[seg_p, 0]
    ends_v = network.segments[seg_p, 1]
    ell = network.lengths[seg_p]
    dist = np.empty((len(origins[0]), len(seg_p)))
    m = np.ones(dist.shape, dtype=np.int64)
    for i, origin in enumerate(zip(origins[0].tolist(), origins[1].tolist())):
        dv = point_vertex_distances(network, origin)
        d = np.minimum(dv[ends_u] + off_p, dv[ends_v] + (ell - off_p))
        same = seg_p == origin[0]
        d[same] = np.minimum(d[same], np.abs(off_p[same] - origin[1]))
        near = d <= reach
        if near.any():
            m[i, near] = equidistant_counts(network, origin, d[near], dv=dv)
        m[i, np.isinf(d)] = 0
        dist[i] = d
    return dist, m


def _segment_tables(network, point, dv):
    """Per-(sub)segment endpoint distances, splitting the origin's segment."""
    seg, off = _as_seg_off(point)
    segs = network.segments
    da = dv[segs[:, 0]].copy()
    db = dv[segs[:, 1]].copy()
    ell = network.lengths.copy()
    keep = np.ones(len(segs), dtype=bool)
    keep[seg] = False
    extra = []
    ls = float(network.lengths[seg])
    if off > VERTEX_TOL:  # piece from the start vertex to the origin
        extra.append((float(dv[segs[seg, 0]]), 0.0, off))
    if ls - off > VERTEX_TOL:  # piece from the origin to the end vertex
        extra.append((0.0, float(dv[segs[seg, 1]]), ls - off))
    da = np.concatenate([da[keep], [e[0] for e in extra]])
    db = np.concatenate([db[keep], [e[1] for e in extra]])
    ell = np.concatenate([ell[keep], [e[2] for e in extra]])
    return da, db, ell


def equidistant_counts(network: LinearNetwork, point, rs, dv=None) -> np.ndarray:
    """m(point, r) for each r in rs; m(point, 0) = 1 by convention."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    if not (rs >= 0).all():  # NaN fails too
        raise ValueError("r must be nonnegative")
    if dv is None:
        dv = point_vertex_distances(network, point)
    da, db, ell = _segment_tables(network, point, dv)
    tol = VERTEX_TOL
    rmax = rs.max(initial=0.0)
    # no lag up to rmax crosses a (sub)segment whose nearer end is at rmax
    # or beyond, or hits a vertex beyond rmax + tol; this also drops the
    # unreachable ones (endpoints of one segment are co-reachable)
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
