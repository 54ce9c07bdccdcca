"""Simulation of spatio-temporal point patterns.

Two generators: an inhomogeneous Poisson simulator by thinning, and a
self-exciting branching simulator (background Poisson events triggering
power-law decaying offspring cascades) on planar windows or linear
networks.  All randomness comes from one numpy Generator seeded per call.
``lgcp.sim_lgcp`` shares their domain defaults (``_domain``) and their
time-sorted assembly (``_time_sorted``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    MarkColumn,
    PointPattern,
    SpatialWindow,
    TimeInterval,
)
from .formula import Formula, build_design, parse_formula
from .network import LinearNetwork, snap_to_network

__all__ = [
    "IntensitySpec",
    "EtasParams",
    "sim_poisson",
    "sim_etas",
    "branching_ratio",
    "omori_times",
    "radial_displacements",
    "gr_magnitudes",
]

MAX_GENERATIONS = 10_000
_INFLATE = 1.2


@dataclass(frozen=True)
class IntensitySpec:
    """First-order intensity: a constant or a log-linear expression.

    The expression form is exp(design(x, y, t) . par) where the design
    comes from a formula over coordinates and named covariate grids.
    """

    const: Optional[float] = None
    formula: Optional[Formula] = None
    par: Optional[np.ndarray] = None
    covs: Optional[dict] = None

    @classmethod
    def constant(cls, lam: float) -> "IntensitySpec":
        lam = float(lam)
        if not math.isfinite(lam) or lam < 0:
            raise ValueError("constant intensity must be finite and nonnegative")
        return cls(const=lam)

    @classmethod
    def loglinear(cls, formula, par, covs=None) -> "IntensitySpec":
        ast = parse_formula(formula)
        par = np.asarray(par, dtype=float)
        probe = build_design(ast, np.zeros((1, 3)), covs=covs)
        if par.shape != (len(probe.names),):
            raise ValueError(
                f"par has {par.size} entries but the formula needs "
                f"{len(probe.names)} ({', '.join(probe.names)})"
            )
        return cls(formula=ast, par=par, covs=covs)

    def evaluate(self, x, y, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.const is not None:
            return np.full(x.shape, self.const)
        coords = np.column_stack([x, np.asarray(y, float), np.asarray(t, float)])
        design = build_design(self.formula, coords, covs=self.covs)
        return np.exp(design.matrix @ self.par)


def _as_intensity(lam) -> IntensitySpec:
    if isinstance(lam, IntensitySpec):
        return lam
    return IntensitySpec.constant(lam)


def _domain(window, interval, network):
    """(window, interval, spatial measure) of a simulation domain.

    The interval defaults to [0, 1].  On a network the window is the
    network's bounding box, padded along a flat axis, and the measure its
    total length; a window given with a network is refused.  Otherwise the
    window defaults to the unit square and the measure is its area.
    """
    if interval is None:
        interval = TimeInterval(0.0, 1.0)
    if network is None:
        if window is None:
            window = SpatialWindow(0.0, 1.0, 0.0, 1.0)
        return window, interval, window.area
    if window is not None:
        raise ValueError("a window cannot be given with a network; its bounding box is the window")
    v = network.vertices
    x0, x1 = float(v[:, 0].min()), float(v[:, 0].max())
    y0, y1 = float(v[:, 1].min()), float(v[:, 1].max())
    pad = 0.5 * network.bbox_diagonal
    if x1 <= x0:
        x0, x1 = x0 - pad, x1 + pad
    if y1 <= y0:
        y0, y1 = y0 - pad, y1 + pad
    return SpatialWindow(x0, x1, y0, y1), interval, network.total_length


def _uniform_events(rng, n, window, interval, network):
    """n events uniform on the domain: x then y (or the arc position), then t.

    Returns (x, y, t, seg, off); seg and off are None off a network.
    """
    if network is None:
        x = rng.uniform(window.x0, window.x1, n)
        y = rng.uniform(window.y0, window.y1, n)
        seg = off = None
    else:
        seg, off = network.location_at(rng.uniform(0.0, network.total_length, n))
        xy = network.segment_point(seg, off)
        x, y = xy[:, 0], xy[:, 1]
    return x, y, rng.uniform(interval.t0, interval.t1, n), seg, off


def _time_sorted(
    window, interval, x, y, t, network=None, seg=None, off=None, marks=None, keep=slice(None)
):
    """The events selected by ``keep`` as a pattern, in stable time order.

    ``marks`` maps names to continuous values; they and the network
    locations (seg, off) follow their events.
    """
    order = np.argsort(t[keep], kind="stable")
    coords = np.column_stack([x[keep], y[keep], t[keep]])[order]
    marks = {k: MarkColumn("continuous", v[keep][order]) for k, v in (marks or {}).items()}
    if network is None:
        return PointPattern(coords, window, interval, marks)
    return PointPattern(
        coords, window, interval, marks, network, seg[keep][order], off[keep][order]
    )


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
    probability lam/lam_max; survivors are sorted by time.  An intensity
    that is zero everywhere warns and gives an empty pattern.
    """
    lam = _as_intensity(lam)
    window, interval, measure = _domain(window, interval, network)
    rng = np.random.default_rng(seed)
    lam_max = _bound_intensity(lam, window, interval, network)
    if lam_max == 0.0:
        warnings.warn("intensity is zero everywhere; returning an empty pattern")
    n_cand = rng.poisson(lam_max * measure * interval.length)
    x, y, t, seg, off = _uniform_events(rng, n_cand, window, interval, network)
    keep = rng.random(n_cand) * lam_max < lam.evaluate(x, y, t)
    return _time_sorted(window, interval, x, y, t, network, seg, off, keep=keep)


@dataclass(frozen=True)
class EtasParams:
    """Branching-process parameters (mu, k0, c, p, d, q)."""

    mu: float
    k0: float
    c: float
    p: float
    d: float
    q: float

    def __post_init__(self):
        # written so that NaN and inf fail too
        for name, ok, need in (
            ("mu", 0 <= self.mu < math.inf, "nonnegative"),
            ("k0", 0 <= self.k0 < math.inf, "nonnegative"),
            ("c", 0 < self.c < math.inf, "positive"),
            ("d", 0 < self.d < math.inf, "positive"),
            ("p", 1 < self.p < math.inf, "above 1 for an integrable kernel"),
            ("q", 1 < self.q < math.inf, "above 1 for an integrable kernel"),
        ):
            if not ok:
                raise ValueError(f"{name} must be finite and {need}, got {getattr(self, name)!r}")

    @classmethod
    def from_vector(cls, vec) -> "EtasParams":
        vec = [float(v) for v in vec]
        if len(vec) != 6:
            raise ValueError("parameter vector must be (mu, k0, c, p, d, q)")
        return cls(*vec)


def omori_times(rng, n: int, c: float, p: float) -> np.ndarray:
    """Time lags with density proportional to (tau + c)**(-p) on [0, inf)."""
    u = rng.random(n)
    return c * (u ** (1.0 / (1.0 - p)) - 1.0)


def radial_displacements(rng, n: int, d: float, q: float) -> np.ndarray:
    """Radii with density proportional to (r**2 + d)**(-q) * r on [0, inf)."""
    u = rng.random(n)
    return np.sqrt(d * (1.0 - u) ** (-1.0 / (q - 1.0)) - d)


def gr_magnitudes(rng, n: int, b: float, m0: float) -> np.ndarray:
    """Magnitudes m0 + Exponential(rate b*ln 10)."""
    return m0 + rng.exponential(1.0 / (b * math.log(10.0)), n)


def _kernel_masses(params: EtasParams) -> Tuple[float, float]:
    """Integrals A_t and A_s of the time and space trigger kernels."""
    a_t = params.c ** (1.0 - params.p) / (params.p - 1.0)
    a_s = math.pi * params.d ** (1.0 - params.q) / (params.q - 1.0)
    return a_t, a_s


def branching_ratio(
    params: EtasParams, betacov: float, b: float = 1.0, m0: float = 2.5
) -> float:
    """Expected offspring per event averaged over the magnitude law."""
    if not math.isfinite(betacov):
        raise ValueError(f"betacov must be finite, got {betacov!r}")
    if not 0 < b < math.inf:  # written so that NaN fails too
        raise ValueError(f"b must be positive and finite, got {b!r}")
    if not math.isfinite(m0):
        raise ValueError(f"m0 must be finite, got {m0!r}")
    rate = b * math.log(10.0)
    if betacov >= rate:
        raise ValueError("magnitude productivity diverges: betacov >= b*ln(10)")
    try:
        mean_exp = math.exp(betacov * m0) * rate / (rate - betacov)
    except OverflowError:
        raise ValueError(
            "betacov must be small enough that exp(betacov * m0) is finite, "
            f"got betacov={betacov!r} and m0={m0!r}"
        ) from None
    a_t, a_s = _kernel_masses(params)
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
    lags and radial displacements; on networks each generation's offspring
    are snapped once to the nearest network location.  Events outside the
    domain are discarded at the end and the survivors are sorted by time,
    marked with magnitude and generation.

    Requires a subcritical cascade (branching ratio < 1); a run exceeding
    10000 generations aborts.
    """
    if not isinstance(params, EtasParams):
        params = EtasParams.from_vector(params)
    window, interval, measure = _domain(window, interval, network)
    eta = branching_ratio(params, betacov, b, m0)
    if eta >= 1.0:
        raise ValueError(
            f"supercritical cascade: branching ratio {eta:.6g} >= 1; "
            "expected offspring counts do not converge"
        )
    a_t, a_s = _kernel_masses(params)

    rng = np.random.default_rng(seed)
    n_bg = rng.poisson(params.mu * measure * interval.length)
    x, y, t, seg, off = _uniform_events(rng, n_bg, window, interval, network)
    m = gr_magnitudes(rng, n_bg, b, m0)
    drawn = [(x, y, t, seg, off, m, np.zeros(n_bg, dtype=np.int64))]
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
        counts = rng.poisson(params.k0 * np.exp(betacov * m) * a_t * a_s)
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
        drawn.append((x, y, t, seg, off, m, np.full(total, generation, dtype=np.int64)))

    x, y, t, seg, off, m, gen = (
        None if c[0] is None else np.concatenate(c) for c in zip(*drawn)
    )
    inside = window.contains(x, y) & interval.contains(t)
    marks = {"magnitude": m, "generation": gen}
    pattern = _time_sorted(window, interval, x, y, t, network, seg, off, marks, inside)

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
