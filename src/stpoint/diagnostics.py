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

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import PointPattern
from .network import _integers, _origin_blocks
from .summaries import (
    ListaSet,
    SummaryConfig,
    SummarySurface,
    _canonical_order,
    _check_lam,
    _lag_sums,
    _pairs,
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
    each compared pattern holds exactly n_X events.

    Event x_i draws its k subsets from its own child of
    ``SeedSequence(seed)``: a (k, |pool|) block of uniform keys over the
    pool in canonical event order, drawn in row blocks of
    ``network._origin_blocks`` (the same keys as one draw), and each
    subset holds the n_X - 1 pool members with the smallest keys of its
    row.  x_i's in-range partners are read from its block of ``_pairs``,
    so memory is set by one block; surfaces sum pairs in pool order.  For
    a given seed the p-values do not depend on the row order of X or Z.
    """
    X, Z = background, alternative
    if X.window != Z.window or X.interval != Z.interval:
        raise ValueError("patterns must share the same window and interval")
    if (X.network is None) != (Z.network is None) or (
        X.network is not None and X.network is not Z.network
    ):
        raise ValueError("patterns must live on the same network")
    k = int(_integers(k, "k must be an integer"))
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
    scale = X.volume / nX
    # canonical event orders, as in the summaries: each event's random
    # stream and partner pool follow the events, not their input rows
    order = _canonical_order(X)
    X = X.subset(order)
    Z = Z.subset(_canonical_order(Z))

    # X against the pooled events [X, Z], one block of origins at a time
    seg = off = None
    if X.network is not None:
        seg, off = np.concatenate([X.net_seg, Z.net_seg]), np.concatenate([X.net_off, Z.net_off])
    XZ = PointPattern(np.vstack([X.coords, Z.coords]), X.window, X.interval, {}, X.network, seg, off)
    children = np.random.SeedSequence(seed).spawn(nX)
    pvalues = np.empty(nX)
    size, n_pool = nX - 1, nX - 1 + nZ
    for origin, partner, d, dt, w, _ in _pairs(X, XZ, cfg):
        # one run of pairs per origin: each origin has one in its own block,
        # as its self pair is always kept (at zero lag the planar translation
        # correction is 1; on a network m = 1 and m_T >= 1)
        for mine in np.split(np.arange(len(origin)), np.flatnonzero(np.diff(origin)) + 1):
            i = origin[mine[0]]
            # origin i's in-range partners, without itself, and their positions
            # in its pool (X minus x_i) then Z; pairs come in ascending partner
            # order, so in pool order
            mine = mine[partner[mine] != i]
            pos = partner[mine] - (partner[mine] > i)
            # row 0 is the observed partner set, rows 1..k the random subsets:
            # each the size smallest of n_pool uniform keys, drawn in row blocks
            # of one stream (the same keys as one draw)
            hit = np.zeros((k + 1, len(mine)), dtype=bool)
            hit[0] = pos < size
            rng = np.random.default_rng(children[i])
            for rows in _origin_blocks(None, k, n_pool) if size else ():  # else all empty
                block = hit[1:][rows]
                keys = rng.random((len(block), n_pool))
                cut = np.partition(keys, size - 1, axis=1)[:, size - 1]
                block[:] = keys[:, pos] <= cut[:, None]
            sub, at = np.nonzero(hit)
            pick = mine[at]
            surf = _lag_sums(X, cfg, scale, d[pick], dt[pick], w[pick], sub, k + 1)
            obs, null = surf[0], surf[1:]
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
    if pattern.n == 0:
        _check_lam(pattern, lam)
        rcfg = resolve_config(pattern, cfg)
        theo = _theoretical(pattern, rcfg)
        surface = SummarySurface(
            rcfg.rs, rcfg.hs, np.zeros_like(theo), theo, "K", 0
        )
    else:
        surface = second_order_global(pattern, lam, cfg)
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
    scores = np.sum((listas.est - listas.mean_surface().est) ** 2, axis=(1, 2))
    threshold = float(np.quantile(scores, p))
    return LocalDiagResult(scores, threshold, p, listas)


def infl(result: LocalDiagResult, ids=None) -> ListaSet:
    """Local surfaces of the flagged (or requested) events."""
    if ids is None:
        ids = result.flagged_ids
    ids = _integers(ids, "ids must be integers")
    if ids.ndim != 1 or (ids.size and (ids.min() < 1 or ids.max() > len(result.scores))):
        raise ValueError("ids must be a 1-d array of 1-based event numbers")
    return replace(result.listas, ids=ids, est=result.listas.est[ids - 1])
