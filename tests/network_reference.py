"""Dense all-pairs reference for the network pair tables (test-only).

The package evaluates the equidistant count m(u, d) only for pairs whose
distance d can reach a lag.  This module keeps the plain rule it must
reproduce: one Dijkstra per origin for the distances, a second one inside
each ``equidistant_counts`` call, and m evaluated for every ordered pair,
however far apart.  ``dense_pair_tables`` and ``dense_cross_tables`` take
and return what ``stpoint.summaries._pair_tables`` and ``_cross_tables``
do, for network patterns, so a test can swap them in and run the unchanged
accumulators on top.
"""

import numpy as np

from stpoint.core import temporal_multiplicity
from stpoint.network import equidistant_counts, point_vertex_distances


def dense_distances(net, seg, off):
    """Shortest-path distance matrix, one Dijkstra per row."""
    seg = np.asarray(seg, dtype=np.int64)
    off = np.asarray(off, dtype=float)
    n = len(seg)
    ends_u = net.segments[seg, 0]
    ends_v = net.segments[seg, 1]
    ell = net.lengths[seg]
    out = np.zeros((n, n))
    for i in range(n):
        dv = point_vertex_distances(net, (int(seg[i]), float(off[i])))
        d = np.minimum(dv[ends_u] + off, dv[ends_v] + (ell - off))
        same = seg == seg[i]
        d[same] = np.minimum(d[same], np.abs(off[same] - off[i]))
        out[i] = d
    np.fill_diagonal(out, 0.0)
    return out


def dense_pair_tables(pattern, lam, cfg):
    """(dist, dt, contrib, skipped) for ordered pairs of a network pattern."""
    n = pattern.n
    t = pattern.t
    net = pattern.network
    dt = np.abs(t[:, None] - t[None, :])
    inv = 1.0 / (lam[:, None] * lam[None, :])
    dist = dense_distances(net, pattern.net_seg, pattern.net_off)
    m_l = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        origin = (int(pattern.net_seg[i]), float(pattern.net_off[i]))
        dv = point_vertex_distances(net, origin)
        m_l[i] = equidistant_counts(net, origin, dist[i], dv=dv)
    m_t = temporal_multiplicity(pattern.interval, t[:, None], dt)
    dead = (m_l == 0) | (m_t == 0)
    np.fill_diagonal(dead, False)
    skipped = int(dead.sum())
    denom = (m_l * m_t).astype(float)
    denom[denom == 0] = 1.0
    contrib = inv / denom
    contrib[dead] = 0.0
    dist[dead] = np.inf
    np.fill_diagonal(contrib, 0.0)
    np.fill_diagonal(dist, np.inf)
    return dist, dt, contrib, skipped


def dense_cross_tables(X, Z, cfg):
    """(dist, dt, base, dead) for pairs (x_i, z_j) of two network patterns."""
    net = X.network
    dt = np.abs(X.t[:, None] - Z.t[None, :])
    ends_u = net.segments[Z.net_seg, 0]
    ends_v = net.segments[Z.net_seg, 1]
    ell = net.lengths[Z.net_seg]
    dist = np.empty((X.n, Z.n))
    m_l = np.empty((X.n, Z.n), dtype=np.int64)
    for i in range(X.n):
        origin = (int(X.net_seg[i]), float(X.net_off[i]))
        dv = point_vertex_distances(net, origin)
        d = np.minimum(dv[ends_u] + Z.net_off, dv[ends_v] + (ell - Z.net_off))
        same = Z.net_seg == X.net_seg[i]
        d[same] = np.minimum(d[same], np.abs(Z.net_off[same] - X.net_off[i]))
        dist[i] = d
        m_l[i] = equidistant_counts(net, origin, d, dv=dv)
    m_t = temporal_multiplicity(X.interval, X.t[:, None], dt)
    dead = (m_l == 0) | (m_t == 0)
    denom = (m_l * m_t).astype(float)
    denom[denom == 0] = 1.0
    base = 1.0 / denom
    base[dead] = 0.0
    dist[dead] = np.inf
    return dist, dt, base, dead
