"""Second-order summary statistics, global and local.

Inhomogeneous K and pair-correlation surfaces over a grid of spatial and
temporal lags, for planar patterns (translation or no edge correction) and
network patterns (geometric correction by equidistant counts m(u, r) and
temporal multiplicities).  Local versions return one surface per event, as
one (n, len(rs), len(hs)) stack in a ``ListaSet``; their average over
events reproduces the global estimate exactly, which is the main internal
consistency check.

Pair (i, j) contributions, ordered pairs i != j:

    planar K:   1/(lam_i lam_j w_ij),  w_ij the translation proportion
    planar g:   kernel-smoothed version, Epanechnikov in lag and time
    network K:  1/(lam_i lam_j m(u_i, d_ij) m_T(t_i, |dt_ij|))

Pairs beyond the lag reach are never built.  The reach is the largest lag
any grid node can see, in distance and in time: r_max and h_max for K,
r_max + b_r and h_max + b_h for g.  ``_pairs`` yields the pairs within it
one row block of ``network._origin_blocks`` at a time, row-major.  A block
tries only its time slice of partners, those within the time reach of its
origins (planar and network alike).  A planar block keeps the pairs inside
the lag box |dx|, |dy| <= r_max, dt <= h_max first and takes distances for
those only: a faithfully rounded hypot is never below max(|dx|, |dy|), so
no pair within the reach is lost.  Network distances and equidistant
counts come from ``network._pair_geometry`` for the slice only, the counts
for the pairs within the distance reach.  Each block is folded into the
running sums of the surface as it is made, so no pair outlives its block,
and ``_fold`` cuts it into steps of the same cell budget for its (pair,
lag node) cells; the sums are those of one sequential ``bincount`` over
all pairs, keyed by lag node or by (origin, lag node).  Network pairs
with no weight are skipped and counted in ``skipped_pairs``: pairs in
different connected components, plus pairs whose equidistant count
rounds to 0.  Beyond the time slice only the first kind exists, and it
is counted with no partner distances built: a partner is reachable
exactly when its segment's start vertex is, which the block's vertex
distances from ``_pair_geometry`` tell.  The temporal count m_T is never
0: both events lie in the interval, so the partner's own side of t_i
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .core import PointPattern
from .network import _integers, _origin_blocks, _pair_geometry, point_vertex_distances

__all__ = [
    "SummaryConfig",
    "SummarySurface",
    "ListaSet",
    "second_order_global",
    "second_order_local",
]


@dataclass(frozen=True)
class SummaryConfig:
    """Grid and estimator choices for second-order summaries."""

    statistic: str = "K"  # "K" or "g"
    rs: Optional[np.ndarray] = None
    hs: Optional[np.ndarray] = None
    correction: str = "translation"  # planar only: "translation" | "none"; networks refuse "none"
    normalize: bool = True  # network only
    br: Optional[float] = None  # pcf bandwidths, default 0.1 * max lag
    bh: Optional[float] = None


def _network_rmax(pattern: PointPattern) -> float:
    net = pattern.network
    mean_len = net.total_length / len(net.segments)
    rmax = 2.5 * mean_len
    reach = point_vertex_distances(net, (0, 0.0))
    finite = reach[np.isfinite(reach)]
    if len(finite) and finite.max() > 0:
        rmax = min(rmax, float(finite.max()))
    return rmax


def resolve_config(pattern: PointPattern, config: Optional[SummaryConfig]) -> SummaryConfig:
    cfg = config if config is not None else SummaryConfig()
    if cfg.statistic not in ("K", "g"):
        raise ValueError("statistic must be 'K' or 'g'")
    if cfg.correction not in ("translation", "none"):
        raise ValueError("correction must be 'translation' or 'none'")
    if cfg.correction == "none" and pattern.network is not None:
        raise ValueError("correction='none' applies only to planar patterns")
    rs, hs = cfg.rs, cfg.hs
    if rs is None:
        if pattern.network is None:
            rmax = min(pattern.window.width, pattern.window.height) / 4.0
        else:
            rmax = _network_rmax(pattern)
        rs = rmax * np.arange(1, 11) / 10.0
    if hs is None:
        hmax = pattern.interval.length / 4.0
        hs = hmax * np.arange(1, 11) / 10.0
    rs, hs = np.asarray(rs, dtype=float), np.asarray(hs, dtype=float)
    for name, lags in (("rs", rs), ("hs", hs)):
        if lags.ndim != 1 or lags.size == 0:
            raise ValueError(f"lag grid {name} must be a non-empty 1-d array")
    if (np.diff(rs) <= 0).any() or (np.diff(hs) <= 0).any():
        raise ValueError("lag grids must be strictly increasing")
    if not (rs[0] > 0 and hs[0] > 0 and np.isfinite(rs).all() and np.isfinite(hs).all()):
        raise ValueError("lags must be positive and finite")
    if pattern.network is None and rs[-1] > min(pattern.window.width, pattern.window.height) / 2.0:
        raise ValueError("largest spatial lag exceeds half the shorter window side")
    br = cfg.br if cfg.br is not None else 0.1 * float(rs[-1])
    bh = cfg.bh if cfg.bh is not None else 0.1 * float(hs[-1])
    if not (0 < br < np.inf and 0 < bh < np.inf):  # NaN fails too
        raise ValueError("bandwidths must be positive and finite")
    return replace(cfg, rs=rs, hs=hs, br=br, bh=bh)


@dataclass(frozen=True)
class SummarySurface:
    """Estimate and theoretical Poisson surface over the lag grids.

    ``skipped_pairs`` counts the ordered network pairs left out for want of
    weight: pairs in different connected components, plus pairs whose
    equidistant count rounds to 0.  The second kind is counted within the
    lag reach only, where the count is evaluated, and appears only where
    VERTEX_TOL is below the float resolution of the distances.  It is 0
    for planar patterns.
    """

    rs: np.ndarray
    hs: np.ndarray
    est: np.ndarray
    theo: np.ndarray
    statistic: str
    skipped_pairs: int = 0

    def __str__(self):
        return (
            f"{self.statistic}-function surface on {len(self.rs)} x "
            f"{len(self.hs)} lags, r <= {self.rs[-1]:g}, h <= {self.hs[-1]:g}"
        )


@dataclass(frozen=True)
class ListaSet:
    """Local surfaces, one per event, as one stack over one lag grid.

    ids are the 1-based event numbers and est their surfaces, of shape
    (len(ids), len(rs), len(hs)); rs, hs, theo and statistic are those of
    ``SummarySurface`` and shared by every event.  skipped_pairs is that of
    the whole pattern: pairs in different connected components, plus pairs
    whose equidistant count rounds to 0.
    """

    ids: np.ndarray
    rs: np.ndarray
    hs: np.ndarray
    est: np.ndarray
    theo: np.ndarray
    statistic: str
    skipped_pairs: int = 0

    @cached_property
    def surfaces(self) -> tuple:
        """One ``SummarySurface`` per event, made on first use."""
        rs, hs, theo = self.rs, self.hs, self.theo
        return tuple(SummarySurface(rs, hs, e, theo, self.statistic) for e in self.est)

    def mean_surface(self) -> SummarySurface:
        if not len(self):
            raise ValueError("the set has no surfaces to average")
        est = self.est.mean(axis=0)
        return SummarySurface(self.rs, self.hs, est, self.theo, self.statistic, self.skipped_pairs)

    def __len__(self):
        return len(self.ids)


def _check_lam(pattern, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if (lam <= 0).any() or not np.isfinite(lam).all():  # a scalar too, before it is broadcast
        raise ValueError("intensities must be positive and finite")
    if lam.ndim == 0:
        lam = np.full(pattern.n, float(lam))
    if lam.shape != (pattern.n,):
        raise ValueError("lam must be scalar or one value per event")
    return lam


def _canonical_order(pattern, lam=None) -> np.ndarray:
    """Row order by (t, x, y), ties broken by network position, then lam.

    Pair sums taken in this order do not depend on the input row order:
    rows that agree in every key contribute alike.
    """
    keys = [] if lam is None else [lam]
    if pattern.network is not None:
        keys += [pattern.net_off, pattern.net_seg]
    return np.lexsort((*keys, pattern.y, pattern.x, pattern.t))


def _time_slice(X, rows, tz, hmax):
    """Bounds lo:hi of the block's time slice in the sorted partner times tz.

    The slice reaches hmax plus a rounding margin beyond the earliest and
    latest times of the origins in rows, so every partner whose float lag
    to one of them is at most hmax lies inside.
    """
    t = X.t[rows]
    pad = hmax + 4.0 * np.finfo(float).eps * (abs(tz).max() + abs(t).max() + hmax)
    lo = np.searchsorted(tz, t.min() - pad, side="left")
    return lo, np.searchsorted(tz, t.max() + pad, side="right")


def _planar_block(X, Z, rows, j, rmax, hmax, correction):
    """Planar pairs (i, j, d, dt, corr), i in rows, with d <= rmax, dt <= hmax.

    The partners tried are the columns j, in row order, so the pairs come
    out row-major; corr is the translation proportion, or 1.  The box
    dx, dy <= rmax, dt <= hmax is tested first, and d = hypot(dx, dy) is
    taken for the pairs inside it only.  No pair with d <= rmax is lost: a
    faithfully rounded hypot is never below max(dx, dy).
    """
    dx, dy, dt = (a[rows, None] - b[j] for a, b in ((X.x, Z.x), (X.y, Z.y), (X.t, Z.t)))
    for a in (dx, dy, dt):  # in place: one fresh table per axis and block
        np.abs(a, out=a)
    box = np.flatnonzero((dt <= hmax) & (dx <= rmax) & (dy <= rmax))
    d = np.hypot(dx.take(box), dy.take(box))
    near = d <= rmax
    flat, d = box[near], d[near]
    dx, dy, dt = dx.take(flat), dy.take(flat), dt.take(flat)
    r, c = np.divmod(flat, len(j))
    corr = np.ones(len(r))
    if correction == "translation":
        corr = (X.window.width - dx) * (X.window.height - dy) * (X.interval.length - dt)
        corr = corr / (X.window.area * X.interval.length)
    return r + rows.start, j[c], d, dt, corr


def _network_block(X, Z, rows, j, rmax, hmax):
    """Network pairs (i, j, d, dt, corr), i in rows, and the block's dead pairs.

    The partners tried are the columns j, in row order; corr is m(x_i, d)
    m_T(t_i, |dt|), with m evaluated for d <= rmax only.  A pair is dead
    when it is unreachable or its m is 0.  The count covers every partner
    in Z, in two parts that do not overlap:

    - unreachable pairs, from the block's vertex distances dv: a partner is
      reachable exactly when its segment's start vertex is;
    - reachable pairs with m = 0, among the columns j.  Beyond the time
      slice no pair is within the lag reach, so m is 1 there.  The partner
      itself lies at distance d, so m >= 1 in exact arithmetic; m = 0
      comes only where VERTEX_TOL is below the float resolution of the
      distances, and the partner sits just past it from a vertex.

    Both times lie in X's interval (Z is X, or a ``localtest`` pool
    checked to share it), so the partner's own side of t_i is inside it:
    m_T is 1 plus the far side, t_i + |dt| <= t1 when t_j <= t_i and
    t_i - |dt| >= t0 otherwise, as ``temporal_multiplicity`` evaluates
    that side.
    """
    net, origins = X.network, (X.net_seg[rows], X.net_off[rows])
    dist, m_l, dv = _pair_geometry(net, origins, (Z.net_seg[j], Z.net_off[j]), rmax)
    seen, start = np.isfinite(dv), net.segments[Z.net_seg, 0]
    dead = len(dv) * Z.n - int((seen @ np.bincount(start, minlength=dv.shape[1])).sum())
    dead += int(((m_l == 0) & np.isfinite(dist)).sum())
    dt = np.abs(X.t[rows, None] - Z.t[j])
    r, c = np.nonzero((m_l > 0) & (dist <= rmax) & (dt <= hmax))
    i, jc, dt = r + rows.start, j[c], dt[r, c]
    far = np.where(Z.t[jc] <= X.t[i], X.t[i] + dt <= X.interval.t1, X.t[i] - dt >= X.interval.t0)
    return i, jc, dist[r, c], dt, m_l[r, c] * (1 + far), dead


def _pairs(X: PointPattern, Z: PointPattern, cfg: SummaryConfig, lam=None):
    """Ordered pairs (x_i, z_j) that some lag node can see, block by block.

    Yields (i, j, d, dt, w, dead) for each row block of origins of
    ``network._origin_blocks``, its pairs within the lag reach in row-major
    (i, then j) order: a superset of those with a side="left" bin or a
    nonzero kernel value; ``Z is X`` means self pairs, i != j.  w is num
    over the edge correction with x_i as origin: the translation proportion
    (planar) or m(x_i, d) m_T(t_i, |dt|) (network), with num =
    1/(lam_i lam_j) given lam, else 1.  Dead pairs, whose correction
    vanishes, are left out; ``dead`` counts the block's dead network pairs,
    with every partner (``_network_block``), and is 0 for planar blocks.
    Each block tries only its time slice of partners (``_time_slice``).
    """
    rmax, hmax, dead = cfg.rs[-1], cfg.hs[-1], 0
    if cfg.statistic == "g":  # the kernels reach one bandwidth further
        rmax, hmax = rmax + cfg.br, hmax + cfg.bh
    zo = np.argsort(Z.t, kind="stable")
    tz = Z.t[zo]
    for rows in _origin_blocks(X.network, X.n, Z.n):
        lo, hi = _time_slice(X, rows, tz, hmax)
        j = np.sort(zo[lo:hi])
        if X.network is None:
            i, j, d, dt, corr = _planar_block(X, Z, rows, j, rmax, hmax, cfg.correction)
        else:
            i, j, d, dt, corr, dead = _network_block(X, Z, rows, j, rmax, hmax)
        # planar pairs spanning the full window extent carry zero correction
        keep = (corr > 0) & ((i != j) | (Z is not X))
        i, j = i[keep], j[keep]
        num = 1.0 if lam is None else 1.0 / (lam[i] * lam[j])
        yield i, j, d[keep], dt[keep], num / corr[keep], dead


def _global_prefactor(pattern, lam, cfg) -> float:
    if pattern.network is None or cfg.normalize:
        return 1.0 / pattern.volume
    return 1.0 / float(np.sum(1.0 / lam))


def _theoretical(pattern, cfg) -> np.ndarray:
    rs, hs = cfg.rs, cfg.hs
    if cfg.statistic == "g":
        return np.ones((len(rs), len(hs)))
    if pattern.network is None:
        return 2.0 * math.pi * np.outer(rs**2, hs)
    return np.outer(rs, hs)


def _kernel_band(lags, grid, bw):
    """Epanechnikov kernel values at the grid nodes within bw of each lag.

    Returns (nodes, values), both of shape (len(lags), width), width the
    largest number of such nodes over the lags; unused slots hold value 0.
    """
    lo = np.searchsorted(grid, lags - bw, side="left")
    hi = np.searchsorted(grid, lags + bw, side="right")
    nodes = lo[:, None] + np.arange(int((hi - lo).max(initial=0)))
    used = nodes < hi[:, None]
    nodes = np.where(used, nodes, 0)
    u = (grid[nodes] - lags[:, None]) / bw
    return nodes, np.where(used & (np.abs(u) <= 1.0), 0.75 * (1.0 - u * u) / bw, 0.0)


def _band_nodes(grid, bw):
    """The most grid nodes that one kernel band, 2 bw wide, can cover."""
    return int((np.searchsorted(grid, grid + 2.0 * bw, side="right") - np.arange(len(grid))).max())


def _fold(acc, cfg, rows, d, dt, w):
    """Add pair weights into the flat running sums acc, as one sequential bincount.

    ``rows`` assigns each pair to an output row.  K bins a pair at its
    side="left" node; g spreads it over the nodes by the Epanechnikov
    product kernel.  The pairs go in the steps ``network._origin_blocks``
    cuts for their (pair, node) cells; each step's bincount starts the
    nodes it touches from their running totals and adds its pairs in the
    order given: call after call, the one-pass sums, bit for bit.
    """
    nr, nh = len(cfg.rs), len(cfg.hs)
    rows, cells = np.broadcast_to(rows, np.shape(d)), 1  # cells: lag nodes one pair adds to
    if cfg.statistic == "g":
        cells = _band_nodes(cfg.rs, cfg.br) * _band_nodes(cfg.hs, cfg.bh)
    for s in _origin_blocks(None, len(d), cells):
        if cfg.statistic == "K":
            a = np.searchsorted(cfg.rs, d[s], side="left")
            b = np.searchsorted(cfg.hs, dt[s], side="left")
            ok = (a < nr) & (b < nh)
            key, val = ((rows[s] * nr + a) * nh + b)[ok], w[s][ok]
        else:
            a, ks = _kernel_band(d[s], cfg.rs, cfg.br)
            b, kt = _kernel_band(dt[s], cfg.hs, cfg.bh)
            key = (rows[s, None, None] * nr + a[:, :, None]) * nh + b[:, None, :]
            key, val = key.ravel(), (ks[:, :, None] * (w[s, None] * kt)[:, None, :]).ravel()
        if key.size:
            k0, k1 = key.min(), key.max() + 1
            key = np.concatenate([np.arange(k1 - k0), np.subtract(key, k0, out=key)])
            acc[k0:k1] = np.bincount(key, weights=np.concatenate([acc[k0:k1], val]))


def _scaled(pattern, cfg, pref, acc):
    """Surfaces from folded sums: K cumulated over both lag axes, planar g over 4 pi r."""
    acc = acc.reshape(-1, len(cfg.rs), len(cfg.hs))
    if cfg.statistic == "K":
        acc = np.cumsum(np.cumsum(acc, axis=1), axis=2)
    elif pattern.network is None:
        pref = (pref / (4.0 * math.pi * cfg.rs))[:, None]
    return acc * pref


def _lag_sums(pattern, cfg, pref, d, dt, w, rows=0, nrows=1):
    """Surfaces from flat pair weights, ``rows`` their output rows, scaled by pref."""
    acc = np.zeros(nrows * len(cfg.rs) * len(cfg.hs))
    _fold(acc, cfg, rows, d, dt, w)
    return _scaled(pattern, cfg, pref, acc)


def _surfaces(pattern, lam, config, nrows):
    """(cfg, order, est, skipped): nrows surfaces, 1 (global) or n (local).

    Events are summed in canonical order, ``order``, and est has one row,
    or one per event in that order.  Each pair block of ``_pairs`` is
    folded as it is made, so no pair table outlives its block.
    """
    if pattern.n < 1:
        raise ValueError("need at least 1 event")
    cfg = resolve_config(pattern, config)
    lam = _check_lam(pattern, lam)
    order = _canonical_order(pattern, lam)
    pattern, lam = pattern.subset(order), lam[order]
    acc, skipped = np.zeros(nrows * len(cfg.rs) * len(cfg.hs)), 0
    for i, _, d, dt, w, dead in _pairs(pattern, pattern, cfg, lam):
        _fold(acc, cfg, i if nrows > 1 else 0, d, dt, w)
        skipped += dead
    pref = _global_prefactor(pattern, lam, cfg) * nrows
    return cfg, order, _scaled(pattern, cfg, pref, acc), skipped


def second_order_global(pattern, lam, config=None) -> SummarySurface:
    """Global inhomogeneous K or pair-correlation surface.

    Events are summed in canonical (t, x, y) order, so the surface does not
    depend on the input row order.  A single-event pattern has no pairs
    and yields the all-zero estimate.
    """
    cfg, _, (est,), skipped = _surfaces(pattern, lam, config, 1)
    return SummarySurface(cfg.rs, cfg.hs, est, _theoretical(pattern, cfg), cfg.statistic, skipped)


def second_order_local(pattern, lam, config=None, ids=None) -> ListaSet:
    """Local surfaces (one per event); their mean equals the global surface.

    Surfaces come in input row order, each summed as in
    ``second_order_global``, so permuting the rows permutes the surfaces.
    """
    n = pattern.n
    if ids is None:
        ids = np.arange(1, n + 1)
    else:
        ids = _integers(ids, "ids must be integers")
        if ids.ndim != 1 or ids.size == 0 or ids.min() < 1 or ids.max() > n:
            raise ValueError("ids must be a 1-d array of 1-based event numbers")
    cfg, order, est, skipped = _surfaces(pattern, lam, config, n)
    est = est[np.argsort(order)[ids - 1]]
    return ListaSet(ids, cfg.rs, cfg.hs, est, _theoretical(pattern, cfg), cfg.statistic, skipped)
