"""Dense all-pairs reference for the network pair engine (test-only).

The package finds the shortest paths of a block of origins together,
lists only the pairs some lag can see, and evaluates the equidistant
count m(u, d) only for pairs whose distance d can reach a lag, from
sorted breakpoints where it can.  This module keeps the plain rule it
must reproduce: a binary-heap Dijkstra per origin (``dijkstra``) for the
distances, one ``equidistant_counts`` call per origin fed that search's
vertex distances, and m evaluated for every ordered pair, however far
apart.  ``per_origin_pair_geometry`` computes what the package's
``_pair_geometry`` returns, one origin at a time.  ``dense_pairs`` takes
and returns what ``stpoint.summaries._pairs`` does, for network patterns,
but lists every ordered pair, so a test can swap it in and run the
unchanged accumulators on top.
"""

import heapq

import numpy as np

from stpoint.network import VERTEX_TOL, equidistant_counts


def dijkstra(net, point):
    """Vertex distances from (seg, off) by a binary-heap Dijkstra; inf if unreachable."""
    seg, off = int(point[0]), float(point[1])
    ell = float(net.lengths[seg])
    if not -VERTEX_TOL <= off <= ell + VERTEX_TOL:  # NaN fails too
        raise ValueError("offset outside segment")
    off = min(max(off, 0.0), ell)
    u, v = (int(k) for k in net.segments[seg])
    dist = np.full(len(net.vertices), np.inf)
    heap = []
    for start, d0 in ((u, off), (v, ell - off)):
        if d0 < dist[start]:
            dist[start] = d0
            heapq.heappush(heap, (d0, start))
    done = np.zeros(len(net.vertices), dtype=bool)
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for nb, w in net.adjacency[node]:
            nd = d + w
            if nd < dist[nb]:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist


def per_origin_pair_geometry(net, origins, partners, reach=-np.inf):
    """(dist, m) as ``stpoint.network._pair_geometry`` returns, one origin at a time."""
    seg_p, off_p = partners
    ends_u = net.segments[seg_p, 0]
    ends_v = net.segments[seg_p, 1]
    ell = net.lengths[seg_p]
    dist = np.empty((len(origins[0]), len(seg_p)))
    m = np.ones(dist.shape, dtype=np.int64)
    for i, origin in enumerate(zip(origins[0].tolist(), origins[1].tolist())):
        dv = dijkstra(net, origin)
        d = np.minimum(dv[ends_u] + off_p, dv[ends_v] + (ell - off_p))
        same = seg_p == origin[0]
        d[same] = np.minimum(d[same], np.abs(off_p[same] - origin[1]))
        near = d <= reach
        if near.any():
            m[i, near] = equidistant_counts(net, origin, d[near], dv=dv)
        m[i, np.isinf(d)] = 0
        dist[i] = d
    return dist, m


def dense_distances(net, seg, off):
    """Shortest-path distance matrix, one heap Dijkstra per row."""
    seg = np.asarray(seg, dtype=np.int64)
    off = np.asarray(off, dtype=float)
    n = len(seg)
    ends_u = net.segments[seg, 0]
    ends_v = net.segments[seg, 1]
    ell = net.lengths[seg]
    out = np.zeros((n, n))
    for i in range(n):
        dv = dijkstra(net, (int(seg[i]), float(off[i])))
        d = np.minimum(dv[ends_u] + off, dv[ends_v] + (ell - off))
        same = seg == seg[i]
        d[same] = np.minimum(d[same], np.abs(off[same] - off[i]))
        out[i] = d
    np.fill_diagonal(out, 0.0)
    return out


def dense_pairs(X, Z, cfg, lam=None):
    """Every ordered pair (x_i, z_j) of two network patterns, flat.

    Same contract as ``stpoint.summaries._pairs`` except that no pair is
    left out: (i, j, d, dt, w, skipped) in row-major order, i != j when
    ``Z is X``, with dead pairs (m = 0) at weight 0 and distance +inf.
    """
    net = X.network
    dt = np.abs(X.t[:, None] - Z.t[None, :])
    ends_u = net.segments[Z.net_seg, 0]
    ends_v = net.segments[Z.net_seg, 1]
    ell = net.lengths[Z.net_seg]
    dist = np.empty((X.n, Z.n))
    m_l = np.empty((X.n, Z.n), dtype=np.int64)
    for i in range(X.n):
        origin = (int(X.net_seg[i]), float(X.net_off[i]))
        dv = dijkstra(net, origin)
        d = np.minimum(dv[ends_u] + Z.net_off, dv[ends_v] + (ell - Z.net_off))
        same = Z.net_seg == X.net_seg[i]
        d[same] = np.minimum(d[same], np.abs(Z.net_off[same] - X.net_off[i]))
        dist[i] = d
        m_l[i] = equidistant_counts(net, origin, d, dv=dv)
    # both times lie in the interval, so the partner's own side of t_i does:
    # m_T is 1 plus the far side, evaluated as temporal_multiplicity does
    ti, t0, t1 = X.t[:, None], X.interval.t0, X.interval.t1
    m_t = 1 + np.where(Z.t[None, :] <= ti, ti + dt <= t1, ti - dt >= t0)
    dead = m_l == 0
    listed = np.ones(dead.shape, dtype=bool)
    if Z is X:
        np.fill_diagonal(dead, False)
        np.fill_diagonal(listed, False)
    denom = (m_l * m_t).astype(float)
    denom[dead] = 1.0
    num = 1.0 if lam is None else 1.0 / (lam[:, None] * lam[None, :])
    w = num / denom
    w[dead] = 0.0
    dist[dead] = np.inf
    i, j = np.nonzero(listed)
    return i, j, dist[i, j], dt[i, j], w[i, j], int(dead.sum())
