"""Diagnostics: local permutation test and intensity goodness-of-fit.

``localtest`` compares each event of a background pattern X against an
alternative pattern Z on the same domain: the event's local second-order
surface inside X is ranked against k surfaces of the same event embedded
in random subsets of Z, giving a rank p-value per event.

``globaldiag`` scores an intensity model by the squared discrepancy
between the weighted K surface and its Poisson expectation; ``localdiag``
ranks events by the squared deviation of their local K surface from the
pattern average and flags those beyond a quantile threshold.  ``infl``
returns the flagged events' surfaces for inspection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import PointPattern
from .summaries import (
    ListaSet,
    SummaryConfig,
    SummarySurface,
    _bin_indices,
    _cross_tables,
    _kernel_columns,
    _pair_tables,
    _theoretical,
    resolve_config,
    second_order_global,
    second_order_local,
)

__all__ = [
    "LocalTestResult",
    "localtest",
    "GlobalDiagResult",
    "globaldiag",
    "LocalDiagResult",
    "localdiag",
    "infl",
]


# ---------------------------------------------------------------------------
# local permutation test


@dataclass(frozen=True)
class LocalTestResult:
    pvalues: np.ndarray
    alpha: float
    k: int
    method: str
    n_background: int
    n_alternative: int

    @property
    def significant_ids(self) -> np.ndarray:
        return np.flatnonzero(self.pvalues <= self.alpha) + 1

    def __str__(self):
        return "\n".join(
            [
                "Test of local structure",
                f"Background pattern X: {self.n_background}",
                f"Alternative pattern Z: {self.n_alternative}",
                f"{len(self.significant_ids)} significant points "
                f"at alpha = {self.alpha:g}",
            ]
        )


def _surface_from_subset(flatbins, base_row, sel, nr, nh):
    idx = flatbins[sel]
    ok = idx >= 0
    acc = np.bincount(idx[ok], weights=base_row[sel][ok], minlength=nr * nh)
    return np.cumsum(np.cumsum(acc.reshape(nr, nh), axis=0), axis=1)


def localtest(
    background: PointPattern,
    alternative: PointPattern,
    method: str = "K",
    k: int = 99,
    alpha: float = 0.05,
    config: Optional[SummaryConfig] = None,
    seed: Optional[int] = None,
) -> LocalTestResult:
    """Permutation test for local differences between two patterns.

    For each event x_i of the background X: its local surface among the
    remaining n_X - 1 background events is ranked against k surfaces of
    x_i joined to random (n_X - 1)-subsets of the pooled partner set
    (X minus x_i) union Z, through the squared deviation from the mean
    of the k subset surfaces; p_i = (1 + #{T_j >= T_i})/(k + 1).

    Sampling partners from the pool rather than from Z alone keeps the
    observed partner set exchangeable with the resampled ones under the
    null, which is what makes the rank p-value valid: subsets drawn from
    Z only would nearly coincide whenever the patterns have similar
    sizes, collapsing the null spread and flagging almost every point.
    Intensities are homogeneous, n_X / volume for every surface, since
    each compared pattern holds exactly n_X events.  For a given seed the
    p-values do not depend on the row order of X or Z.
    """
    X, Z = background, alternative
    if X.window != Z.window or X.interval != Z.interval:
        raise ValueError("patterns must share the same window and interval")
    if (X.network is None) != (Z.network is None) or (
        X.network is not None and X.network is not Z.network
    ):
        raise ValueError("patterns must live on the same network")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if 1.0 / (k + 1) > alpha:
        warnings.warn(
            f"k={k} cannot reach significance at alpha={alpha:g}: the smallest "
            f"attainable p-value is 1/(k+1) = {1.0 / (k + 1):.4g}"
        )
    cfg = resolve_config(X, replace(config or SummaryConfig(), statistic=method))
    nX, nZ = X.n, Z.n
    if nX < 1 or nZ < 2:
        raise ValueError("background needs >= 1 event, alternative >= 2")
    nr, nh = len(cfg.rs), len(cfg.hs)
    scale = X.volume / nX
    # canonical event orders, as in globaldiag: each event's random stream
    # and partner pool follow the events, not their input rows
    order = np.lexsort((X.y, X.x, X.t))
    X = X.subset(order)
    Z = Z.subset(np.lexsort((Z.y, Z.x, Z.t)))

    dist_x, dt_x, base_x, _ = _pair_tables(X, np.ones(nX), cfg)
    dist_z, dt_z, base_z, _ = _cross_tables(X, Z, cfg)
    dist = np.hstack([dist_x, dist_z])
    dt = np.hstack([dt_x, dt_z])
    base = np.hstack([base_x, base_z])

    if method == "K":
        ri, hi, valid = _bin_indices(dist, dt, cfg)
        flat = np.where(valid, ri * nh + hi, -1)
    else:
        fin = np.isfinite(dist)

    def surface(i, sel):
        if method == "K":
            return _surface_from_subset(flat[i], base[i], sel, nr, nh)
        sub = sel[fin[i][sel]]
        ks = _kernel_columns(dist[i][sub], cfg.rs, cfg.br)
        kt = _kernel_columns(dt[i][sub], cfg.hs, cfg.bh)
        out = ks.T @ (base[i][sub][:, None] * kt)
        if X.network is None:
            out = out / (4.0 * math.pi * cfg.rs)[:, None]
        return out

    children = np.random.SeedSequence(seed).spawn(nX)
    pvalues = np.empty(nX)
    own = np.arange(nX)
    for i in range(nX):
        others = np.delete(own, i)
        obs = surface(i, others) * scale
        pool = np.concatenate([others, nX + np.arange(nZ)])
        rng = np.random.default_rng(children[i])
        null = np.empty((k, nr, nh))
        for j in range(k):
            sel = rng.choice(pool, size=nX - 1, replace=False)
            null[j] = surface(i, sel) * scale
        mean_null = null.mean(axis=0)
        t_obs = float(np.sum((obs - mean_null) ** 2))
        loo_mean = (null.sum(axis=0)[None] - null) / (k - 1) if k > 1 else mean_null[None]
        t_null = np.sum((null - loo_mean) ** 2, axis=(1, 2))
        pvalues[order[i]] = (1.0 + np.sum(t_null >= t_obs)) / (k + 1.0)

    return LocalTestResult(pvalues, alpha, k, method, nX, nZ)


# ---------------------------------------------------------------------------
# global and local intensity diagnostics


@dataclass(frozen=True)
class GlobalDiagResult:
    surface: SummarySurface
    discrepancy: float

    @property
    def diff(self) -> np.ndarray:
        return self.surface.est - self.surface.theo

    def __str__(self):
        return (
            "Global second-order diagnostic\n"
            f"Sum of squared differences: {self.discrepancy:.4g}"
        )


def globaldiag(pattern: PointPattern, lam, config: Optional[SummaryConfig] = None) -> GlobalDiagResult:
    """Squared discrepancy between the weighted K surface and Poisson K."""
    cfg = replace(config or SummaryConfig(), statistic="K")
    if pattern.n < 2:
        rcfg = resolve_config(pattern, cfg)
        theo = _theoretical(pattern, rcfg)
        surface = SummarySurface(
            rcfg.rs, rcfg.hs, np.zeros_like(theo), theo, "K", 0
        )
    else:
        # canonical event order: bin sums then accumulate in one fixed
        # sequence, so the scalar does not change with input row order
        order = np.lexsort((pattern.y, pattern.x, pattern.t))
        lam = np.asarray(lam, dtype=float)
        if lam.shape == (pattern.n,):
            lam = lam[order]
        surface = second_order_global(pattern.subset(order), lam, cfg)
    disc = float(np.sum((surface.est - surface.theo) ** 2))
    return GlobalDiagResult(surface, disc)


@dataclass(frozen=True)
class LocalDiagResult:
    scores: np.ndarray
    threshold: float
    quantile: float
    listas: ListaSet

    @property
    def flagged_ids(self) -> np.ndarray:
        return np.flatnonzero(self.scores > self.threshold) + 1

    def __str__(self):
        return "\n".join(
            [
                f"Points outlying from the {self.quantile:g} percentile "
                "of the analysed pattern",
                f"Analysed pattern X: {len(self.scores)} points",
                f"{len(self.flagged_ids)} outlying points",
            ]
        )


def localdiag(
    pattern: PointPattern,
    lam,
    p: float = 0.95,
    config: Optional[SummaryConfig] = None,
) -> LocalDiagResult:
    """Rank events by deviation of their local K surface from the average.

    D_i sums (K_i - mean K) squared over the lag grid; events with D_i
    above the order-p empirical quantile (linear interpolation) are
    flagged.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if pattern.n < 2:
        raise ValueError("need at least 2 events")
    cfg = replace(config or SummaryConfig(), statistic="K")
    listas = second_order_local(pattern, lam, cfg)
    stack = np.array([s.est for s in listas.surfaces])
    mean = stack.mean(axis=0)
    scores = np.sum((stack - mean) ** 2, axis=(1, 2))
    threshold = float(np.quantile(scores, p))
    return LocalDiagResult(scores, threshold, p, listas)


def infl(result: LocalDiagResult, ids=None) -> ListaSet:
    """Local surfaces of the flagged (or requested) events."""
    if ids is None:
        ids = result.flagged_ids
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return ListaSet(ids, (), result.listas.statistic, 0)
    n = len(result.scores)
    if ids.min() < 1 or ids.max() > n:
        raise ValueError("ids must be 1-based event numbers")
    surfaces = tuple(result.listas.surfaces[i - 1] for i in ids)
    return ListaSet(ids, surfaces, result.listas.statistic, 0)
