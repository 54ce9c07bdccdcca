"""The simulators as they were before they shared one event sampler (test-only).

``sim_poisson``, ``sim_etas`` and ``sim_lgcp`` here are the package's
simulators before the domain defaults, the uniform draw and the
time-sorted assembly became shared helpers of ``stpoint.simulate``, and
before network ``sim_etas`` stopped snapping every event a second time
after its cascade loop.  They are kept unchanged, with the helpers they
called, so a test can check that the package draws the same patterns
from the same seeds.  ``snap_to_network`` is the dense all-pairs search
the package ran before it took points in row blocks.
"""

import math
import warnings
from typing import Optional, Tuple

import numpy as np

from stpoint.core import MarkColumn, PointPattern, SpatialWindow, TimeInterval
from stpoint.lgcp import cov_eval
from stpoint.network import LinearNetwork
from stpoint.simulate import (
    EtasParams,
    IntensitySpec,
    gr_magnitudes,
    omori_times,
    radial_displacements,
)

MAX_GENERATIONS = 10_000
_INFLATE = 1.2


def snap_to_network(network: LinearNetwork, x, y):
    """Nearest network location for each planar point.

    Returns (seg, off, snapped_xy, distance).  Ties are broken toward the
    lowest segment index.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.stack([x, y], axis=-1)
    a = network.vertices[network.segments[:, 0]]
    b = network.vertices[network.segments[:, 1]]
    ab = b - a
    ell2 = (ab**2).sum(axis=1)
    # projection parameter clamped to the segment, for all point/segment pairs
    ap = p[:, None, :] - a[None, :, :]
    tt = np.clip((ap * ab[None, :, :]).sum(axis=2) / ell2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + tt[:, :, None] * ab[None, :, :]
    d2 = ((p[:, None, :] - proj) ** 2).sum(axis=2)
    seg = np.argmin(d2, axis=1)  # argmin takes the first minimum: lowest index
    idx = np.arange(len(p))
    off = tt[idx, seg] * network.lengths[seg]
    snapped = proj[idx, seg]
    dist = np.sqrt(d2[idx, seg])
    return seg.astype(np.int64), off, snapped, dist


def _as_intensity(lam) -> IntensitySpec:
    if isinstance(lam, IntensitySpec):
        return lam
    return IntensitySpec.constant(lam)


def _network_window(network: LinearNetwork) -> SpatialWindow:
    v = network.vertices
    x0, x1 = float(v[:, 0].min()), float(v[:, 0].max())
    y0, y1 = float(v[:, 1].min()), float(v[:, 1].max())
    pad = 0.5 * network.bbox_diagonal
    if x1 <= x0:
        x0, x1 = x0 - pad, x1 + pad
    if y1 <= y0:
        y0, y1 = y0 - pad, y1 + pad
    return SpatialWindow(x0, x1, y0, y1)


def _bound_intensity(lam: IntensitySpec, window, interval, network) -> float:
    """Upper bound for thinning: grid maximum inflated by 20%."""
    if network is None:
        xs = np.linspace(window.x0, window.x1, 32)
        ys = np.linspace(window.y0, window.y1, 32)
        ts = np.linspace(interval.t0, interval.t1, 32)
        gx, gy, gt = np.meshgrid(xs, ys, ts, indexing="ij")
        vals = lam.evaluate(gx.ravel(), gy.ravel(), gt.ravel())
    else:
        arc = np.linspace(0.0, network.total_length, 512)
        seg, off = network.location_at(arc)
        xy = network.segment_point(seg, off)
        ts = np.linspace(interval.t0, interval.t1, 32)
        gx = np.repeat(xy[:, 0], len(ts))
        gy = np.repeat(xy[:, 1], len(ts))
        gt = np.tile(ts, len(arc))
        vals = lam.evaluate(gx, gy, gt)
    if not np.isfinite(vals).all():
        raise ValueError("intensity is not finite on the evaluation grid")
    if (vals < 0).any():
        raise ValueError("intensity is negative on the evaluation grid")
    return float(vals.max()) * _INFLATE


def sim_poisson(
    lam,
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    network: Optional[LinearNetwork] = None,
    seed: Optional[int] = None,
) -> PointPattern:
    """Inhomogeneous Poisson pattern by thinning.

    ``lam`` is a constant or an IntensitySpec.  Candidates are drawn
    uniformly at rate lam_max (grid maximum inflated by 1.2) and kept with
    probability lam/lam_max; survivors are sorted by time.
    """
    lam = _as_intensity(lam)
    if interval is None:
        interval = TimeInterval(0.0, 1.0)
    if network is None:
        if window is None:
            window = SpatialWindow(0.0, 1.0, 0.0, 1.0)
        measure = window.area
    else:
        window = _network_window(network)
        measure = network.total_length
    rng = np.random.default_rng(seed)

    lam_max = _bound_intensity(lam, window, interval, network)
    if lam_max == 0.0:
        warnings.warn("intensity is zero everywhere; returning an empty pattern")
        empty = np.empty((0, 3))
        if network is None:
            return PointPattern(empty, window, interval)
        return PointPattern(
            empty, window, interval, {}, network,
            np.empty(0, dtype=np.int64), np.empty(0),
        )

    n_cand = rng.poisson(lam_max * measure * interval.length)
    if network is None:
        x = rng.uniform(window.x0, window.x1, n_cand)
        y = rng.uniform(window.y0, window.y1, n_cand)
        seg = off = None
    else:
        arc = rng.uniform(0.0, network.total_length, n_cand)
        seg, off = network.location_at(arc)
        xy = network.segment_point(seg, off)
        x, y = xy[:, 0], xy[:, 1]
    t = rng.uniform(interval.t0, interval.t1, n_cand)
    keep = rng.random(n_cand) * lam_max < lam.evaluate(x, y, t)

    order = np.argsort(t[keep], kind="stable")
    coords = np.column_stack([x[keep], y[keep], t[keep]])[order]
    if network is None:
        return PointPattern(coords, window, interval)
    return PointPattern(
        coords, window, interval, {}, network, seg[keep][order], off[keep][order]
    )


def _productivity(params: EtasParams, betacov: float, m) -> np.ndarray:
    a_t = params.c ** (1.0 - params.p) / (params.p - 1.0)
    a_s = math.pi * params.d ** (1.0 - params.q) / (params.q - 1.0)
    return params.k0 * np.exp(betacov * np.asarray(m)) * a_t * a_s


def branching_ratio(
    params: EtasParams, betacov: float, b: float = 1.0, m0: float = 2.5
) -> float:
    """Expected offspring per event averaged over the magnitude law."""
    rate = b * math.log(10.0)
    if betacov >= rate:
        raise ValueError("magnitude productivity diverges: betacov >= b*ln(10)")
    mean_exp = math.exp(betacov * m0) * rate / (rate - betacov)
    a_t = params.c ** (1.0 - params.p) / (params.p - 1.0)
    a_s = math.pi * params.d ** (1.0 - params.q) / (params.q - 1.0)
    return params.k0 * mean_exp * a_t * a_s


def sim_etas(
    params,
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    network: Optional[LinearNetwork] = None,
    betacov: float = 0.5,
    b: float = 1.0,
    m0: float = 2.5,
    seed: Optional[int] = None,
    return_info: bool = False,
):
    """Self-exciting branching pattern.

    Background events arrive as Poisson(mu) uniform on the domain with
    Gutenberg-Richter magnitudes.  An event of magnitude m spawns
    Poisson(k0 * exp(betacov*m) * A_t * A_s) offspring with power-law time
    lags and radial displacements; on networks offspring are snapped back
    to the nearest network location.  Events outside the domain are
    discarded at the end and the survivors are sorted by time, marked with
    magnitude and generation.

    Requires a subcritical cascade (branching ratio < 1); a run exceeding
    10000 generations aborts.
    """
    if not isinstance(params, EtasParams):
        params = EtasParams.from_vector(params)
    if interval is None:
        interval = TimeInterval(0.0, 1.0)
    if network is None:
        if window is None:
            window = SpatialWindow(0.0, 1.0, 0.0, 1.0)
        measure = window.area
    else:
        window = _network_window(network)
        measure = network.total_length

    eta = branching_ratio(params, betacov, b, m0)
    if eta >= 1.0:
        raise ValueError(
            f"supercritical cascade: branching ratio {eta:.6g} >= 1; "
            "expected offspring counts do not converge"
        )

    rng = np.random.default_rng(seed)
    n_bg = rng.poisson(params.mu * measure * interval.length)
    if network is None:
        x = rng.uniform(window.x0, window.x1, n_bg)
        y = rng.uniform(window.y0, window.y1, n_bg)
    else:
        arc = rng.uniform(0.0, network.total_length, n_bg)
        seg, off = network.location_at(arc)
        xy = network.segment_point(seg, off)
        x, y = xy[:, 0], xy[:, 1]
    t = rng.uniform(interval.t0, interval.t1, n_bg)
    m = gr_magnitudes(rng, n_bg, b, m0)

    all_x = [x]
    all_y = [y]
    all_t = [t]
    all_m = [m]
    all_gen = [np.zeros(n_bg, dtype=np.int64)]
    spawners = 0
    offspring_drawn = 0

    generation = 0
    while len(x):
        generation += 1
        if generation > MAX_GENERATIONS:
            raise RuntimeError(
                f"cascade exceeded {MAX_GENERATIONS} generations despite "
                f"branching ratio {eta:.6g}; aborting"
            )
        # parents past the end of the interval cannot place offspring inside
        live = t <= interval.t1
        x, y, t, m = x[live], y[live], t[live], m[live]
        counts = rng.poisson(_productivity(params, betacov, m))
        spawners += len(counts)
        total = int(counts.sum())
        offspring_drawn += total
        if total == 0:
            break
        px = np.repeat(x, counts)
        py = np.repeat(y, counts)
        pt = np.repeat(t, counts)
        tau = omori_times(rng, total, params.c, params.p)
        r = radial_displacements(rng, total, params.d, params.q)
        theta = rng.uniform(0.0, 2.0 * math.pi, total)
        x = px + r * np.cos(theta)
        y = py + r * np.sin(theta)
        t = pt + tau
        if network is not None:
            seg, off, snapped, _dist = snap_to_network(network, x, y)
            x, y = snapped[:, 0], snapped[:, 1]
        m = gr_magnitudes(rng, total, b, m0)
        all_x.append(x)
        all_y.append(y)
        all_t.append(t)
        all_m.append(m)
        all_gen.append(np.full(total, generation, dtype=np.int64))

    x = np.concatenate(all_x)
    y = np.concatenate(all_y)
    t = np.concatenate(all_t)
    m = np.concatenate(all_m)
    gen = np.concatenate(all_gen)

    inside = window.contains(x, y) & interval.contains(t)
    order = np.argsort(t[inside], kind="stable")
    coords = np.column_stack([x[inside], y[inside], t[inside]])[order]
    marks = {
        "magnitude": MarkColumn("continuous", m[inside][order]),
        "generation": MarkColumn("continuous", gen[inside][order].astype(float)),
    }
    if network is None:
        pattern = PointPattern(coords, window, interval, marks)
    else:
        seg, off, snapped, _dist = snap_to_network(network, coords[:, 0], coords[:, 1])
        coords[:, :2] = snapped
        pattern = PointPattern(coords, window, interval, marks, network, seg, off)

    if return_info:
        info = {
            "events_total": int(len(x)),
            "spawners": int(spawners),
            "offspring_drawn": int(offspring_drawn),
            "generations": int(gen.max()) if len(gen) else 0,
            "branching_ratio": float(eta),
        }
        return pattern, info
    return pattern


def sim_lgcp(
    family: str = "separable-exponential",
    params: Optional[dict] = None,
    lam0: float = 100.0,
    grid: Tuple[int, int, int] = (10, 10, 5),
    window: Optional[SpatialWindow] = None,
    interval: Optional[TimeInterval] = None,
    seed: Optional[int] = None,
    return_field: bool = False,
):
    """Simulate a log-Gaussian Cox pattern on a cell grid.

    The latent field S is drawn at cell centres, in (t, y, x) order with x
    fastest, as -sigma^2/2 + sigma (L_t (x) L_s) z for one standard-normal
    draw z, and held constant within cells.  Counts are Poisson(lam0 *
    exp(S) * cell volume), placed uniformly inside their cells.

    L_t and L_s are Cholesky factors of correlation matrices (sigma = 1)
    with a 1e-8 nugget on the diagonal of the second.  For the separable
    family they factor the gt x gt time correlation and the (gx gy) x
    (gx gy) space correlation; for gneiting and iaco-cesare L_t is 1 x 1
    and L_s factors the full correlation over all cells.  sigma = 0 gives
    a Poisson pattern, from the same random stream as any other sigma.
    The separable time correlation carries no nugget, so it must be
    positive definite by itself: with more than one time cell, a time
    spacing dt over beta below about 5e-17 rounds exp(-dt/beta) to 1 and
    raises the "not positive definite" ValueError.

    ``grid`` is three positive integers, (gx, gy, gt), with at most 5000
    cells in all; ``lam0`` must be finite and nonnegative.
    """
    if params is None:
        params = {"sigma": 1.0, "alpha": 0.2, "beta": 0.2}
    if len(grid) != 3 or not all(float(v).is_integer() and v >= 1 for v in grid):
        raise ValueError(f"grid must be three positive integers, got {grid!r}")
    gx, gy, gt = (int(v) for v in grid)
    ncell = gx * gy * gt
    if ncell > 5000:
        raise ValueError(f"grid has {ncell} cells; the limit is 5000")
    # written so that NaN fails too
    if not (0 <= lam0 < math.inf):
        raise ValueError(f"lam0 must be finite and nonnegative, got {lam0!r}")
    sigma = float(params["sigma"])
    if not (0 <= sigma < math.inf):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    if window is None:
        window = SpatialWindow(0.0, 1.0, 0.0, 1.0)
    if interval is None:
        interval = TimeInterval(0.0, 1.0)
    rng = np.random.default_rng(seed)

    ex = window.width / gx
    ey = window.height / gy
    et = interval.length / gt
    cx = window.x0 + (np.arange(gx) + 0.5) * ex
    cy = window.y0 + (np.arange(gy) + 0.5) * ey
    ct = interval.t0 + (np.arange(gt) + 0.5) * et
    tt, yy, xx = np.meshgrid(ct, cy, cx, indexing="ij")
    centers = np.column_stack([xx.ravel(), yy.ravel(), tt.ravel()])

    unit = dict(params, sigma=1.0)
    if family == "separable-exponential":
        # in (t, y, x) order the correlation is R_t (x) R_s, R_s taken over
        # the first time slice
        corr_t = cov_eval(family, unit, 0.0, np.abs(ct[:, None] - ct[None, :]))
        cells = centers[: gx * gy]
        dh = 0.0
    else:
        corr_t = np.ones((1, 1))
        cells = centers
        dh = np.abs(cells[:, 2][:, None] - cells[:, 2][None, :])
    dx = cells[:, 0][:, None] - cells[:, 0][None, :]
    dy = cells[:, 1][:, None] - cells[:, 1][None, :]
    corr_s = cov_eval(family, unit, np.hypot(dx, dy), dh)
    corr_s[np.diag_indices_from(corr_s)] += 1e-8
    try:
        chol_t = np.linalg.cholesky(corr_t)
        chol_s = np.linalg.cholesky(corr_s)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"covariance matrix not positive definite for family {family!r} "
            f"with params {params}"
        )
    z = rng.standard_normal(ncell)
    field = -0.5 * sigma**2 + sigma * (chol_t @ z.reshape(len(chol_t), -1) @ chol_s.T).ravel()

    cellvol = ex * ey * et
    counts = rng.poisson(lam0 * np.exp(field) * cellvol)
    total = int(counts.sum())
    lo = centers - 0.5 * np.array([ex, ey, et])
    starts = np.repeat(lo, counts, axis=0)
    u = rng.random((total, 3))
    coords = starts + u * np.array([ex, ey, et])
    order = np.argsort(coords[:, 2], kind="stable")
    pattern = PointPattern(coords[order], window, interval)
    if return_field:
        return pattern, field.reshape(gt, gy, gx)
    return pattern
