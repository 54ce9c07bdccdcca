"""Shepard interpolation over every grid node at once (test-only reference).

``stpoint.covariates.interpolate_idw`` builds the squared distance of a
node to each sample from three per-axis tables of squared gaps, one time
slice at a time in blocks of a fixed cell budget.  This module keeps the
rule it replaced: every node of the grid materialised as a row, and a
(nodes x samples x 3) block of coordinate differences per chunk of
65,536 nodes, summed over its short last axis.  The package must return
bit-identical grids.
"""

import math
from typing import Optional, Tuple

import numpy as np

from stpoint.core import SpatialWindow, TimeInterval
from stpoint.covariates import SITE_TOL, CovariateGrid, _canonical_samples

_CHUNK = 65536


def interpolate_idw(
    samples,
    grid: Optional[Tuple[int, int, int]] = None,
    mult: float = 20.0,
    power: float = 2.0,
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    name: str = "cov",
) -> CovariateGrid:
    if power <= 0:
        raise ValueError("power must be positive")
    sites, vals = _canonical_samples(samples)
    nsamp = len(sites)
    if grid is None:
        side = max(2, math.ceil(mult * nsamp ** (1.0 / 3.0)))
        nx = ny = nt = side
    else:
        nx, ny, nt = (int(g) for g in grid)
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

    xs = np.linspace(window.x0, window.x1, nx)
    ys = np.linspace(window.y0, window.y1, ny)
    ts = np.linspace(interval.t0, interval.t1, nt)
    tt, yy, xx = np.meshgrid(ts, ys, xs, indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel(), tt.ravel()])

    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), _CHUNK):
        chunk = nodes[lo : lo + _CHUNK]
        diff = chunk[:, None, :] - sites[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        hit = d2 < SITE_TOL * SITE_TOL
        # inf weights at exact hits are overwritten below; 0 * inf is fine
        with np.errstate(divide="ignore", invalid="ignore"):
            w = d2 ** (-power / 2.0)
            # plain axis sums keep a fixed reduction order (no BLAS)
            num = np.sum(w * vals[None, :], axis=1)
            den = np.sum(w, axis=1)
            block = num / den
        any_hit = hit.any(axis=1)
        if any_hit.any():
            first = np.argmax(hit[any_hit], axis=1)
            block[any_hit] = vals[first]
        out[lo : lo + _CHUNK] = block

    dx = (window.x1 - window.x0) / (nx - 1)
    dy = (window.y1 - window.y0) / (ny - 1)
    dt = (interval.t1 - interval.t0) / (nt - 1)
    return CovariateGrid(
        name, window.x0, dx, nx, window.y0, dy, ny, interval.t0, dt, nt,
        out.reshape(nt, ny, nx),
    )
