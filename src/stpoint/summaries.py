"""Second-order summary statistics, global and local.

Inhomogeneous K and pair-correlation surfaces over a grid of spatial and
temporal lags, for planar patterns (translation or no edge correction) and
network patterns (geometric correction by equidistant counts m(u, r) and
temporal multiplicities).  Local versions return one surface per event;
their average over events reproduces the global estimate exactly, which is
the main internal consistency check.

Pair (i, j) contributions, ordered pairs i != j:

    planar K:   1/(lam_i lam_j w_ij),  w_ij the translation proportion
    planar g:   kernel-smoothed version, Epanechnikov in lag and time
    network K:  1/(lam_i lam_j m(u_i, d_ij) m_T(t_i, |dt_ij|))

Equidistant counts are evaluated only for pairs within the lag reach, the
largest distance any lag can see: r_max for K, r_max + b_r for g.  Network
pairs with no weight are skipped and counted in ``skipped_pairs``:
unreachable pairs (different connected components), pairs whose temporal
count is zero, and pairs within the lag reach whose equidistant count is
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import PointPattern, temporal_multiplicity
from .network import _pair_geometry, point_vertex_distances

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
    correction: str = "translation"  # planar only: "translation" | "none"
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
    rs, hs = cfg.rs, cfg.hs
    if rs is None:
        if pattern.network is None:
            rmax = min(pattern.window.width, pattern.window.height) / 4.0
        else:
            rmax = _network_rmax(pattern)
        rs = rmax * np.arange(1, 11) / 10.0
    rs = np.asarray(rs, dtype=float)
    if hs is None:
        hmax = pattern.interval.length / 4.0
        hs = hmax * np.arange(1, 11) / 10.0
    hs = np.asarray(hs, dtype=float)
    if (np.diff(rs) <= 0).any() or (np.diff(hs) <= 0).any():
        raise ValueError("lag grids must be strictly increasing")
    if rs[0] <= 0 or hs[0] <= 0:
        raise ValueError("lags must be positive")
    if pattern.network is None and rs[-1] > min(pattern.window.width, pattern.window.height) / 2.0:
        raise ValueError("largest spatial lag exceeds half the shorter window side")
    br = cfg.br if cfg.br is not None else 0.1 * float(rs[-1])
    bh = cfg.bh if cfg.bh is not None else 0.1 * float(hs[-1])
    if br <= 0 or bh <= 0:
        raise ValueError("bandwidths must be positive")
    return replace(cfg, rs=rs, hs=hs, br=br, bh=bh)


@dataclass(frozen=True)
class SummarySurface:
    """Estimate and theoretical Poisson surface over the lag grids.

    ``skipped_pairs`` counts the ordered network pairs left out for want of
    weight: unreachable pairs, plus pairs with a zero temporal count or,
    within the lag reach, a zero equidistant count.  It is 0 for planar
    patterns.
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
    """Local surfaces, one per event; ids are 1-based event numbers."""

    ids: np.ndarray
    surfaces: tuple
    statistic: str
    skipped_pairs: int = 0

    def mean_surface(self) -> SummarySurface:
        est = np.mean([s.est for s in self.surfaces], axis=0)
        s0 = self.surfaces[0]
        return SummarySurface(s0.rs, s0.hs, est, s0.theo, s0.statistic, self.skipped_pairs)

    def __len__(self):
        return len(self.surfaces)


def _check_lam(pattern, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        lam = np.full(pattern.n, float(lam))
    if lam.shape != (pattern.n,):
        raise ValueError("lam must be scalar or one value per event")
    if (lam <= 0).any() or not np.isfinite(lam).all():
        raise ValueError("intensities must be positive and finite")
    return lam


def _cross_tables(X: PointPattern, Z: PointPattern, cfg: SummaryConfig, num=1.0):
    """Distance, time-lag and weight tables for ordered pairs (x_i, z_j).

    The weight is num over the edge correction with x_i as origin: the
    translation proportion (planar) or m(x_i, d_ij) m_T(t_i, |dt_ij|)
    (network).  Dead pairs, whose correction vanishes, get weight 0 and
    distance +inf so they never bin.  Returns (dist, dt, weight, dead).
    """
    dt = np.abs(X.t[:, None] - Z.t[None, :])
    if X.network is None:
        dx = np.abs(X.x[:, None] - Z.x[None, :])
        dy = np.abs(X.y[:, None] - Z.y[None, :])
        dist = np.hypot(dx, dy)
        if cfg.correction == "translation":
            w = (X.window.width - dx) * (X.window.height - dy)
            w = w * (X.interval.length - dt)
            w = w / (X.window.area * X.interval.length)
            # pairs spanning the full window extent carry zero weight;
            # their lags always exceed the admissible grids, so drop them
            dead = w <= 0
        else:
            w = np.ones_like(dist)
            dead = np.zeros(dist.shape, dtype=bool)
    else:
        # lag reach: the largest distance any lag can see
        reach = cfg.rs[-1] + (cfg.br if cfg.statistic == "g" else 0.0)
        dist, m_l = _pair_geometry(
            X.network, (X.net_seg, X.net_off), (Z.net_seg, Z.net_off), reach
        )
        m_t = temporal_multiplicity(X.interval, X.t[:, None], dt)
        dead = (m_l == 0) | (m_t == 0)
        w = (m_l * m_t).astype(float)
    w[dead] = 1.0
    weight = num / w
    weight[dead] = 0.0
    dist[dead] = np.inf
    return dist, dt, weight, dead


def _pair_tables(pattern: PointPattern, lam: np.ndarray, cfg: SummaryConfig):
    """Tables for ordered pairs (i, j): the cross case X = Z, num = 1/(lam_i lam_j).

    Returns (dist, dt, contrib, skipped); the diagonal carries contribution
    0 and distance +inf, and skipped counts the dead network pairs.
    """
    inv = 1.0 / (lam[:, None] * lam[None, :])
    dist, dt, contrib, dead = _cross_tables(pattern, pattern, cfg, inv)
    skipped = 0 if pattern.network is None else int(dead.sum())
    np.fill_diagonal(contrib, 0.0)
    np.fill_diagonal(dist, np.inf)
    return dist, dt, contrib, skipped


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


def _bin_indices(dist, dt, cfg):
    ri = np.searchsorted(cfg.rs, dist, side="left")
    hi = np.searchsorted(cfg.hs, dt, side="left")
    valid = (ri < len(cfg.rs)) & (hi < len(cfg.hs))
    return ri, hi, valid


def _kernel_columns(lags, grid, bw) -> np.ndarray:
    """Epanechnikov kernel values, shape (*lags.shape, len(grid))."""
    u = (grid[None, :] - np.asarray(lags).reshape(-1, 1)) / bw
    out = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u) / bw, 0.0)
    return out


def second_order_global(pattern, lam, config=None) -> SummarySurface:
    """Global inhomogeneous K or pair-correlation surface.

    A single-event pattern has no pairs and yields the all-zero estimate.
    """
    if pattern.n < 1:
        raise ValueError("need at least 1 event")
    cfg = resolve_config(pattern, config)
    lam = _check_lam(pattern, lam)
    dist, dt, contrib, skipped = _pair_tables(pattern, lam, cfg)
    pref = _global_prefactor(pattern, lam, cfg)
    nr, nh = len(cfg.rs), len(cfg.hs)

    if cfg.statistic == "K":
        ri, hi, valid = _bin_indices(dist, dt, cfg)
        acc = np.zeros((nr, nh))
        np.add.at(acc, (ri[valid], hi[valid]), contrib[valid])
        est = np.cumsum(np.cumsum(acc, axis=0), axis=1) * pref
    else:
        finite = np.isfinite(dist)
        c = contrib[finite]
        ks = _kernel_columns(dist[finite], cfg.rs, cfg.br)
        kt = _kernel_columns(dt[finite], cfg.hs, cfg.bh)
        est = ks.T @ (c[:, None] * kt)
        if pattern.network is None:
            est = est * (pref / (4.0 * math.pi * cfg.rs))[:, None]
        else:
            est = est * pref
    return SummarySurface(cfg.rs, cfg.hs, est, _theoretical(pattern, cfg), cfg.statistic, skipped)


def second_order_local(pattern, lam, config=None, ids=None) -> ListaSet:
    """Local surfaces (one per event); their mean equals the global surface."""
    if pattern.n < 1:
        raise ValueError("need at least 1 event")
    cfg = resolve_config(pattern, config)
    lam = _check_lam(pattern, lam)
    dist, dt, contrib, skipped = _pair_tables(pattern, lam, cfg)
    pref = _global_prefactor(pattern, lam, cfg) * pattern.n
    theo = _theoretical(pattern, cfg)
    nr, nh = len(cfg.rs), len(cfg.hs)
    n = pattern.n
    if ids is None:
        ids = np.arange(1, n + 1)
    else:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0 or ids.min() < 1 or ids.max() > n:
            raise ValueError("ids must be 1-based event numbers")

    surfaces = []
    if cfg.statistic == "K":
        ri, hi, valid = _bin_indices(dist, dt, cfg)
        for i in ids - 1:
            acc = np.zeros((nr, nh))
            row = valid[i]
            np.add.at(acc, (ri[i][row], hi[i][row]), contrib[i][row])
            est = np.cumsum(np.cumsum(acc, axis=0), axis=1) * pref
            surfaces.append(SummarySurface(cfg.rs, cfg.hs, est, theo, "K"))
    else:
        for i in ids - 1:
            row = np.isfinite(dist[i])
            c = contrib[i][row]
            ks = _kernel_columns(dist[i][row], cfg.rs, cfg.br)
            kt = _kernel_columns(dt[i][row], cfg.hs, cfg.bh)
            est = ks.T @ (c[:, None] * kt)
            if pattern.network is None:
                est = est * (pref / (4.0 * math.pi * cfg.rs))[:, None]
            else:
                est = est * pref
            surfaces.append(SummarySurface(cfg.rs, cfg.hs, est, theo, "g"))
    return ListaSet(np.asarray(ids), tuple(surfaces), cfg.statistic, skipped)
