"""Spatio-temporal covariate grids.

Covariates are scattered samples (x, y, t, value) interpolated once onto a
regular 3-d grid by inverse-distance weighting (Shepard), then consumed
everywhere else by nearest-node lookup.  Samples are canonicalised into
lexicographic order before any summation so the interpolation is bit-exact
under permutation of the input rows.

The grid nodes are the tensor product xs x ys x ts, so the interpolation
keeps one table of squared gaps per axis, (n_axis x J) each, and builds
the squared node-sample distances one time slice at a time, in blocks of
consecutive nodes cut by ``network._origin_blocks``, the package's one
cell budget.  The sums are the ones a per-node (dx, dy, dt) difference
row gives, so the grid is bit-identical to evaluating every node against
every sample at once; no table of all nodes is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import SpatialWindow, TimeInterval
from .network import _integers, _origin_blocks

__all__ = ["CovariateGrid", "interpolate_idw", "lookup_nearest"]

SITE_TOL = 1e-12


@dataclass(frozen=True)
class CovariateGrid:
    """Regular grid over window x interval, values laid out x-fastest."""

    name: str
    x0: float
    dx: float
    nx: int
    y0: float
    dy: float
    ny: int
    t0: float
    dt: float
    nt: int
    values: np.ndarray  # shape (nt, ny, nx)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nt) < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if min(self.dx, self.dy, self.dt) <= 0:
            raise ValueError("grid steps must be positive")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.nt, self.ny, self.nx):
            raise ValueError("values must have shape (nt, ny, nx)")
        if not np.isfinite(v).all():
            raise ValueError("grid values must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    @property
    def ts(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    def node_table(self) -> np.ndarray:
        """All nodes as rows (x, y, t, value), x-fastest."""
        tt, yy, xx = np.meshgrid(self.ts, self.ys, self.xs, indexing="ij")
        return np.column_stack(
            [xx.ravel(), yy.ravel(), tt.ravel(), self.values.ravel()]
        )


def _canonical_samples(samples) -> Tuple[np.ndarray, np.ndarray]:
    """Sort samples lexicographically and average exact duplicate sites."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("samples must be rows of (x, y, t, value)")
    if len(arr) == 0:
        raise ValueError("no samples")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    order = np.lexsort((arr[:, 3], arr[:, 2], arr[:, 1], arr[:, 0]))
    arr = arr[order]
    sites = arr[:, :3]
    new_group = np.ones(len(arr), dtype=bool)
    new_group[1:] = (sites[1:] != sites[:-1]).any(axis=1)
    if new_group.all():
        return sites, arr[:, 3]
    # sums per site in sorted order; values ascend in a site, so first != last is a conflict
    gid = np.cumsum(new_group) - 1
    means = np.bincount(gid, weights=arr[:, 3]) / np.bincount(gid)
    first = np.flatnonzero(new_group)
    last = np.append(first[1:], len(arr)) - 1
    conflicting = int(np.sum(arr[first, 3] != arr[last, 3]))
    if conflicting:
        warnings.warn(
            f"{conflicting} duplicate sample site(s) with conflicting values; using the mean",
            stacklevel=3,
        )
    return sites[first], means


def interpolate_idw(
    samples,
    grid: Optional[Tuple[int, int, int]] = None,
    mult: float = 20.0,
    power: float = 2.0,
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    name: str = "cov",
) -> CovariateGrid:
    """Shepard interpolation of scattered samples onto a regular grid.

    Node weights are dist**(-power) over all samples, summed in canonical
    (sorted) sample order.  A node within 1e-12 of a sample site takes that
    sample's value exactly (the first such sample in canonical order).
    Grid size is ``grid`` = (nx, ny, nt) when given (integers >= 2),
    otherwise ceil(mult * J**(1/3)) nodes per axis for J samples; ``mult``
    must be positive and finite either way.  The grid spans the window and
    interval exactly (sample ranges unless supplied).

    The nodes are the tensor product xs x ys x ts, so squared distances
    come from three per-axis tables of squared gaps as (dx² + dy²) + dt²,
    the same float sum as over a per-node (dx, dy, dt) row: the result is
    bit-identical to evaluating every node against every sample at once.
    Each time slice is taken in blocks of consecutive x-fastest nodes from
    ``network._origin_blocks(None, ny * nx, J)``, the cell budget shared
    with the pair tables, so time is O(nodes x J) and memory is bounded by
    that budget.
    """
    if not (math.isfinite(power) and power > 0):
        raise ValueError("power must be positive and finite")
    if not (math.isfinite(mult) and mult > 0):
        raise ValueError("mult must be positive and finite")
    sites, vals = _canonical_samples(samples)
    nsamp = len(sites)
    if grid is None:
        side = max(2, math.ceil(mult * nsamp ** (1.0 / 3.0)))
        nx = ny = nt = side
    else:
        grid = _integers(grid, "grid entries must be integers")
        if grid.shape != (3,):
            raise ValueError("grid must be three integers (nx, ny, nt)")
        nx, ny, nt = grid.tolist()
        if min(nx, ny, nt) < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
    if window is None:
        window = SpatialWindow(
            float(sites[:, 0].min()),
            float(sites[:, 0].max()),
            float(sites[:, 1].min()),
            float(sites[:, 1].max()),
        )
    if interval is None:
        interval = TimeInterval(float(sites[:, 2].min()), float(sites[:, 2].max()))

    def gaps(lo, hi, n, col):
        d = np.linspace(lo, hi, n)[:, None] - sites[None, :, col]
        return d * d

    gx = gaps(window.x0, window.x1, nx, 0)
    gy = gaps(window.y0, window.y1, ny, 1)
    gt = gaps(interval.t0, interval.t1, nt, 2)
    jj, ii = divmod(np.arange(ny * nx), nx)
    out = np.empty((nt, ny * nx))
    for k in range(nt):
        for b in _origin_blocks(None, ny * nx, nsamp):
            # (nodes, J) block of squared distances, samples last, summed in place
            d2 = gx[ii[b]]
            d2 += gy[jj[b]]
            d2 += gt[k]
            hit = d2 < SITE_TOL * SITE_TOL
            # inf weights at exact hits are overwritten below; 0 * inf is fine
            with np.errstate(divide="ignore", invalid="ignore"):
                w = d2 ** (-power / 2.0)
                # plain axis sums keep a fixed reduction order (no BLAS)
                block = np.sum(w * vals, axis=1) / np.sum(w, axis=1)
            any_hit = hit.any(axis=1)
            block[any_hit] = vals[np.argmax(hit[any_hit], axis=1)]
            out[k, b] = block

    dx = (window.x1 - window.x0) / (nx - 1)
    dy = (window.y1 - window.y0) / (ny - 1)
    dt = (interval.t1 - interval.t0) / (nt - 1)
    return CovariateGrid(
        name, window.x0, dx, nx, window.y0, dy, ny, interval.t0, dt, nt, out.reshape(nt, ny, nx)
    )


def lookup_nearest(grid: CovariateGrid, x, y, t) -> np.ndarray:
    """Value at the nearest grid node in index-scaled coordinates.

    Queries outside the grid clamp to the boundary; exact half-way ties
    round toward the lower index.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)

    def nearest(u, origin, step, n):
        frac = (u - origin) / step
        idx = np.ceil(frac - 0.5).astype(np.int64)  # half rounds down
        return np.clip(idx, 0, n - 1)

    i = nearest(x, grid.x0, grid.dx, grid.nx)
    j = nearest(y, grid.y0, grid.dy, grid.ny)
    k = nearest(t, grid.t0, grid.dt, grid.nt)
    return grid.values[k, j, i]
