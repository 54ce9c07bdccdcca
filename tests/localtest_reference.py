"""Dense reference for the local permutation test (test-only).

``localtest`` looks up only each origin's in-range partners and tells the
members of each random subset by comparing their keys with the row's
(n_X - 1)-th smallest key.  This module keeps the plain rules it must
reproduce, for planar patterns:

* ``key_subsets`` draws the same keys, one (k, |pool|) block from each
  origin's child of ``SeedSequence(seed)``, and lists each subset as the
  sorted pool positions of the n_X - 1 smallest keys, by a full argsort.
* ``dense_pvalues`` computes the p-values from explicit subset lists with
  the dense all-pairs table of ``planar_reference.dense_pairs``: each
  surface sums the origin's pairs with the members of its subset that
  some lag can see, in the order the subset lists them.
"""

from dataclasses import replace

import numpy as np

from stpoint import PointPattern
from stpoint.summaries import _canonical_order, _lag_sums, resolve_config

from planar_reference import dense_pairs


def key_subsets(seed, nX, nZ, k):
    """Per origin (canonical order), a (k, nX - 1) array of pool positions."""
    children = np.random.SeedSequence(seed).spawn(nX)
    size, n_pool = nX - 1, nX - 1 + nZ
    if size == 0:
        return [np.empty((k, 0), dtype=int) for _ in children]
    keys = (np.random.default_rng(child).random((k, n_pool)) for child in children)
    return [np.sort(np.argsort(row, axis=1)[:, :size], axis=1) for row in keys]


def dense_pvalues(X, Z, method, k, config, subsets):
    """``localtest`` p-values, in X's row order, from explicit subsets.

    subsets[i] lists the subsets of the i-th background event in canonical
    order, as positions in its pool: the other background events, then Z,
    each in canonical order.
    """
    cfg = resolve_config(X, replace(config, statistic=method))
    order = _canonical_order(X)
    X, Z = X.subset(order), Z.subset(_canonical_order(Z))
    nX, nZ = X.n, Z.n
    XZ = PointPattern(np.vstack([X.coords, Z.coords]), X.window, X.interval)
    _, _, d, dt, w, _ = dense_pairs(X, XZ, cfg)
    d, dt, w = (a.reshape(nX, nX + nZ) for a in (d, dt, w))
    rmax, hmax = cfg.rs[-1], cfg.hs[-1]
    if cfg.statistic == "g":
        rmax, hmax = rmax + cfg.br, hmax + cfg.bh
    pvalues = np.empty(nX)
    for i in range(nX):
        pool = np.concatenate([np.delete(np.arange(nX), i), nX + np.arange(nZ)])
        members = [pool[: nX - 1]] + [pool[s] for s in subsets[i]]
        j = np.concatenate(members)
        row = np.repeat(np.arange(k + 1), [len(m) for m in members])
        seen = (d[i, j] <= rmax) & (dt[i, j] <= hmax)  # dead pairs have d = inf
        j, row = j[seen], row[seen]
        surf = _lag_sums(X, cfg, X.volume / nX, d[i, j], dt[i, j], w[i, j], row, k + 1)
        obs, null = surf[0], surf[1:]
        mean_null = null.mean(axis=0)
        t_obs = float(np.sum((obs - mean_null) ** 2))
        loo_mean = (null.sum(axis=0)[None] - null) / (k - 1) if k > 1 else mean_null[None]
        t_null = np.sum((null - loo_mean) ** 2, axis=(1, 2))
        pvalues[order[i]] = (1.0 + np.sum(t_null >= t_obs)) / (k + 1.0)
    return pvalues
