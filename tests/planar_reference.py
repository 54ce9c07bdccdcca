"""Dense all-pairs reference for the planar pair engine (test-only).

The package lists only the pairs some lag can see, found one block of
origins at a time, and sums each surface with the sums of one sequential
``bincount``.  This
module keeps the plain rules they must reproduce:

* ``dense_pairs`` takes and returns what ``stpoint.summaries._pairs`` does,
  for planar patterns, but lists every ordered pair with the weights of
  the dense n x n tables: dead pairs (translation proportion <= 0) carry
  weight 0 and distance +inf.
* ``dense_k`` is the dense ``np.add.at`` K accumulator and ``dense_g`` the
  dense matrix-product g accumulator, with its (m, len(grid)) Epanechnikov
  kernel columns.  Both return raw lag sums, before the prefactor.
"""

import numpy as np


def dense_pairs(X, Z, cfg, lam=None):
    """Every ordered pair (x_i, z_j) of two planar patterns, flat."""
    dt = np.abs(X.t[:, None] - Z.t[None, :])
    dx = np.abs(X.x[:, None] - Z.x[None, :])
    dy = np.abs(X.y[:, None] - Z.y[None, :])
    dist = np.hypot(dx, dy)
    if cfg.correction == "translation":
        w = (X.window.width - dx) * (X.window.height - dy)
        w = w * (X.interval.length - dt)
        w = w / (X.window.area * X.interval.length)
        dead = w <= 0
    else:
        w = np.ones_like(dist)
        dead = np.zeros(dist.shape, dtype=bool)
    w[dead] = 1.0
    num = 1.0 if lam is None else 1.0 / (lam[:, None] * lam[None, :])
    weight = num / w
    weight[dead] = 0.0
    dist[dead] = np.inf
    listed = np.ones(dist.shape, dtype=bool)
    if Z is X:
        np.fill_diagonal(listed, False)
    i, j = np.nonzero(listed)
    return i, j, dist[i, j], dt[i, j], weight[i, j], 0


def dense_k(d, dt, w, cfg):
    """K lag sums, cumulated over both lag axes, by ``np.add.at``."""
    ri = np.searchsorted(cfg.rs, d, side="left")
    hi = np.searchsorted(cfg.hs, dt, side="left")
    valid = (ri < len(cfg.rs)) & (hi < len(cfg.hs))
    acc = np.zeros((len(cfg.rs), len(cfg.hs)))
    np.add.at(acc, (ri[valid], hi[valid]), w[valid])
    return np.cumsum(np.cumsum(acc, axis=0), axis=1)


def kernel_columns(lags, grid, bw):
    """Epanechnikov kernel values, shape (len(lags), len(grid))."""
    u = (grid[None, :] - np.asarray(lags).reshape(-1, 1)) / bw
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u) / bw, 0.0)


def dense_g(d, dt, w, cfg):
    """g lag sums of the finite-distance pairs as one matrix product."""
    finite = np.isfinite(d)
    ks = kernel_columns(d[finite], cfg.rs, cfg.br)
    kt = kernel_columns(dt[finite], cfg.hs, cfg.bh)
    return ks.T @ (w[finite][:, None] * kt)
