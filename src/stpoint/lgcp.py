"""Log-Gaussian Cox process tools.

The latent field S has one of three covariance families; the process pair
correlation is g(r, h) = exp(C(r, h)).  Second-order parameters are fitted
by minimum contrast against an empirical pair-correlation surface, on log
parameters with a bounded simplex search.  A grid-based simulator
provides a recovery oracle.  It draws the field at cell centres with mean
-sigma^2/2, so the intensity surface averages to lambda0, from a Cholesky
factor of the cell correlation scaled by sigma (sigma = 0 gives a Poisson
pattern).  For the separable family that factor is the Kronecker product
of a time factor and a space factor, each small; the other families take
a dense factor over all cells.

Covariance families (r spatial lag, h temporal lag):

    separable-exponential: sigma^2 exp(-r/alpha) exp(-h/beta)
    gneiting:              sigma^2/(1+h/beta) exp(-(r/alpha)/(1+h/beta)^(delta/2))
    iaco-cesare:           sigma^2 (1 + (r/alpha)^k1 + (h/beta)^k2)^(-k3)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import PointPattern, SpatialWindow, TimeInterval
from .fit import FittedPoissonModel, LocalPoissonFit, locstppm, stppm
from .optimize import _lockstep
from .simulate import _domain, _time_sorted
from .summaries import SummaryConfig, second_order_global, second_order_local

__all__ = [
    "COV_FAMILIES",
    "cov_eval",
    "MinContrastResult",
    "min_contrast",
    "LgcpFit",
    "stlgcppm",
    "sim_lgcp",
]

COV_FAMILIES = ("separable-exponential", "gneiting", "iaco-cesare")

_LOG_BOUND = math.log(1e8)


def cov_eval(family: str, params: dict, r, h) -> np.ndarray:
    """Covariance C(r, h) for one family.

    ``params`` needs sigma, alpha, beta; gneiting accepts delta (default 1)
    and iaco-cesare kappa1, kappa2, kappa3 (defaults 2, 2, 1.5).
    """
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    sigma = float(params["sigma"])
    alpha = float(params["alpha"])
    beta = float(params["beta"])
    # written so that NaN fails too
    if not (sigma >= 0 and alpha > 0 and beta > 0):
        raise ValueError("sigma must be >= 0 and alpha, beta > 0")
    return _cov(family, _shape_params(family, params), sigma, alpha, beta, r, h)


def _shape_params(family: str, params: dict) -> dict:
    """The family's validated shape parameters, defaults filled in."""
    if family == "separable-exponential":
        return {}
    if family == "gneiting":
        delta = float(params.get("delta", 1.0))
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        return {"delta": delta}
    if family == "iaco-cesare":
        defaults = (("kappa1", 2.0), ("kappa2", 2.0), ("kappa3", 1.5))
        kappa = {k: float(params.get(k, d)) for k, d in defaults}
        if not all(v > 0 for v in kappa.values()):
            raise ValueError("kappa exponents must be positive")
        return kappa
    raise ValueError(f"unknown covariance family {family!r}; choose from {COV_FAMILIES}")


def _cov(family, shape, sigma, alpha, beta, r, h):
    """C(r, h) with sigma, alpha, beta broadcast against r and h; no checks.

    The variance comes from libm pow, as Python's float power gives it
    (numpy squares by multiplication, which can round differently), so
    array and scalar parameters give the same bits.
    """
    var = np.float_power(sigma, 2.0)
    if family == "separable-exponential":
        return var * np.exp(-r / alpha) * np.exp(-h / beta)
    if family == "gneiting":
        denom = 1.0 + h / beta
        return var / denom * np.exp(-(r / alpha) / denom ** (shape["delta"] / 2.0))
    k1, k2, k3 = shape["kappa1"], shape["kappa2"], shape["kappa3"]
    return var * (1.0 + (r / alpha) ** k1 + (h / beta) ** k2) ** (-k3)


@dataclass(frozen=True)
class MinContrastResult:
    family: str
    params: dict
    contrast: float
    n_iter: int
    converged: bool
    boundary: bool

    def __str__(self):
        vals = ", ".join(f"{k}={v:.4g}" for k, v in self.params.items())
        flag = " (boundary solution)" if self.boundary else ""
        return f"minimum contrast [{self.family}]: {vals}{flag}"


_JITTERS = (0.0, 0.5, -0.5)  # restarts from the initial log parameters


def min_contrast(
    surface,
    family: str = "separable-exponential",
    q: float = 0.5,
    weights=None,
    init: Optional[dict] = None,
    extras: Optional[dict] = None,
    diam_tol: float = 1e-8,
) -> MinContrastResult:
    """Fit (sigma, alpha, beta) to an empirical pair-correlation surface.

    Minimises sum of w * (ghat^q - g(psi)^q)^2 over the lag grid by
    Nelder-Mead on log parameters, restarting from 3 deterministic
    jitters of the initial point and keeping the best.  A fit pinned to
    the parameter box (e.g. for a flat surface ghat = 1 driving sigma to
    0) is flagged ``boundary``.  Estimates and weights must be finite, q
    and the initial sigma, alpha and beta positive and finite.

    This is the one-surface case of the batched fit that
    ``stlgcppm(second="local")`` runs over all its local surfaces at once;
    each of those fits is identical to a ``min_contrast`` call.
    """
    ghat = np.asarray(surface.est, dtype=float)
    return _min_contrast_batch(
        surface.rs, surface.hs, ghat[None], family, q, weights, init, extras, diam_tol
    )[0]


def _min_contrast_batch(
    rs, hs, ests, family, q=0.5, weights=None, init=None, extras=None, diam_tol=1e-8
):
    """Minimum contrast for a stack of surfaces ests (S, len(rs), len(hs)).

    All S x 3 (surface, jitter) searches run in one lockstep simplex
    search; ``weights`` is shared by the surfaces.  Returns a tuple of S
    results, each as a lone fit of its surface would give it.
    """
    rs = np.asarray(rs, dtype=float)
    hs = np.asarray(hs, dtype=float)
    ests = np.asarray(ests, dtype=float)
    if ests.shape[1:] != (len(rs), len(hs)):
        raise ValueError("surface estimate shape does not match the lag grids")
    if not np.isfinite(ests).all() or (ests < 0).any():
        raise ValueError("pair-correlation estimates must be finite and nonnegative")
    if weights is None:
        weights = np.ones(ests.shape[1:])
    weights = np.asarray(weights, dtype=float)
    if weights.shape != ests.shape[1:] or not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("weights must be finite, nonnegative and match the surface")
    # written so that NaN fails too
    if not 0 < float(q) < math.inf:
        raise ValueError(f"q must be positive and finite, got {q!r}")
    if init is None:
        init = {"sigma": 1.0, "alpha": float(np.median(rs)), "beta": float(np.median(hs))}
    elif not all(0 < float(init.get(p, math.nan)) < math.inf for p in ("sigma", "alpha", "beta")):
        raise ValueError(f"init must hold sigma, alpha and beta, positive and finite: {init!r}")
    extras = dict(extras or {})
    shape = _shape_params(family, extras)

    r_col, h_row = rs[:, None], hs[None, :]
    ghat_q = ests**q
    n_surf, n_jit = len(ests), len(_JITTERS)
    surface_of = np.repeat(np.arange(n_surf), n_jit)

    def objective(rows, logpsi):
        sigma, alpha, beta = np.exp(logpsi).T[:, :, None, None]
        # the lags stay on their own axes, so the separable family takes
        # its exps on (m, nr) and (m, nh) values; broadcasting gives each
        # cell the bits a full lag grid would
        c = _cov(family, shape, sigma, alpha, beta, r_col, h_row)
        # w * (ghat^q - g^q)^2 in the one (m, nr, nh) buffer, each step
        # rounding as its out-of-place form does
        np.minimum(c, 700.0, out=c)
        np.exp(c, out=c)
        c **= q
        np.subtract(ghat_q[surface_of[rows]], c, out=c)
        np.square(c, out=c)
        c *= weights
        # one contiguous row per point: the same summation as np.sum on
        # a single surface
        return c.reshape(len(rows), -1).sum(axis=1)

    x0 = np.log([init["sigma"], init["alpha"], init["beta"]])
    lo = np.array(
        [-_LOG_BOUND, math.log(np.median(rs)) - _LOG_BOUND, math.log(np.median(hs)) - _LOG_BOUND]
    )
    hi = np.array(
        [_LOG_BOUND, math.log(np.median(rs)) + _LOG_BOUND, math.log(np.median(hs)) + _LOG_BOUND]
    )
    starts = np.tile(x0 + np.array(_JITTERS)[:, None], (n_surf, 1))
    # step 0.5 and at most 2000 iterations, nelder_mead's defaults
    x, fun, n_iter, converged = _lockstep(objective, starts, 0.5, lo, hi, diam_tol, 2000)

    # the best jitter per surface; an earlier one wins ties
    runs = fun.reshape(n_surf, n_jit)
    pick = np.zeros(n_surf, dtype=np.int64)
    for j in range(1, n_jit):
        pick[runs[:, j] < runs[np.arange(n_surf), pick]] = j
    best = np.arange(n_surf) * n_jit + pick
    x, fun, converged = x[best], fun[best], converged[best]
    n_iter = n_iter.reshape(n_surf, n_jit).sum(axis=1)
    params = np.exp(x)
    # one log unit of slack: near the sigma floor the contrast is flat to
    # machine zero (any sigma below ~sqrt(eps) fits ghat = 1 exactly), so
    # the simplex can collapse just short of the edge itself
    at_edge = np.any(x <= lo + 1.0, axis=1) | np.any(x >= hi - 1.0, axis=1)
    return tuple(
        MinContrastResult(
            family,
            {"sigma": float(p[0]), "alpha": float(p[1]), "beta": float(p[2]), **extras},
            float(fun[k]),
            int(n_iter[k]),
            bool(converged[k]),
            bool(at_edge[k]),
        )
        for k, p in enumerate(params)
    )


@dataclass(frozen=True)
class LgcpFit:
    """First- and second-order estimates for a log-Gaussian Cox model."""

    family: str
    first: str
    second: str
    first_fit: object  # FittedPoissonModel or LocalPoissonFit
    second_fit: object  # MinContrastResult or tuple of them
    intensity: np.ndarray
    elapsed: float

    @property
    def params(self) -> dict:
        if isinstance(self.second_fit, MinContrastResult):
            return self.second_fit.params
        raise ValueError("local second-order fit; see second_fit per event")

    def param_table(self) -> np.ndarray:
        if isinstance(self.second_fit, MinContrastResult):
            raise ValueError("global second-order fit has a single parameter set")
        return np.array(
            [[f.params["sigma"], f.params["alpha"], f.params["beta"]] for f in self.second_fit]
        )

    def __str__(self):
        lines = [
            f"Log-Gaussian Cox model [{self.family}]",
            f"first order: {self.first}, second order: {self.second}",
        ]
        if isinstance(self.first_fit, FittedPoissonModel):
            if not self.first_fit.trend.terms:
                lines.append(f"Intensity: {math.exp(self.first_fit.coef[0]):.6g}")
            else:
                for nm, c in zip(self.first_fit.names, self.first_fit.coef):
                    lines.append(f"  {nm}: {c:.4f}")
        else:
            lines.append("local first-order coefficients (medians):")
            ok = self.first_fit.converged
            for j, nm in enumerate(self.first_fit.names):
                lines.append(f"  {nm}: {np.median(self.first_fit.coef[ok, j]):.4f}")
        if isinstance(self.second_fit, MinContrastResult):
            p = self.second_fit.params
            flag = " (boundary solution)" if self.second_fit.boundary else ""
            lines.append(
                f"sigma: {p['sigma']:.4g}  alpha: {p['alpha']:.4g}  beta: {p['beta']:.4g}{flag}"
            )
        else:
            tab = self.param_table()
            med = np.median(tab, axis=0)
            lines.append(
                f"median sigma: {med[0]:.4g}  alpha: {med[1]:.4g}  beta: {med[2]:.4g}"
            )
            on_box = sum(f.boundary for f in self.second_fit)
            lines.append(f"{on_box} of {len(self.second_fit)} local fits on the parameter box")
        lines.append(f"Model fitted in {self.elapsed / 60.0:.3f} minutes")
        return "\n".join(lines)


def stlgcppm(
    pattern: PointPattern,
    trend="~1",
    covs=None,
    family: str = "separable-exponential",
    first: str = "global",
    second: str = "global",
    config: Optional[SummaryConfig] = None,
    nd=None,
    seed: Optional[int] = 0,
) -> LgcpFit:
    """Two-step Cox model fit: intensity model, then minimum contrast.

    ``first`` and ``second`` choose global or local estimation for each
    step.  The empirical pair correlation is weighted by the fitted
    intensity from step one; local second-order fits run one minimum
    contrast per event on its local surface.  Those fits are batched into
    one lockstep simplex search, and each is identical to a lone
    ``min_contrast`` call on its surface.  With ``first="local"`` a
    RuntimeError is raised when the local first-order fit fails to converge
    at any event, since its fitted intensity there is NaN.
    """
    if family not in COV_FAMILIES:
        raise ValueError(f"unknown covariance family {family!r}")
    if first not in ("global", "local") or second not in ("global", "local"):
        raise ValueError("first and second must be 'global' or 'local'")
    started = time.perf_counter()
    if first == "global":
        ffit = stppm(pattern, trend, covs=covs, nd=nd, seed=seed)
        lam = ffit.fitted
    else:
        ffit = locstppm(pattern, trend, covs=covs, nd=nd, seed=seed)
        lam = ffit.fitted
        if np.isnan(lam).any():
            raise RuntimeError(
                "local first-order fit failed to converge at some events"
            )
    cfg = config if config is not None else SummaryConfig()
    if cfg.statistic != "g":
        cfg = replace(cfg, statistic="g")
    # pair-correlation estimates can round below zero; floor them
    if second == "global":
        surf = second_order_global(pattern, lam, cfg)
        sfit = min_contrast(replace(surf, est=np.maximum(surf.est, 0.0)), family=family)
    else:
        listas = second_order_local(pattern, lam, cfg)
        sfit = _min_contrast_batch(listas.rs, listas.hs, np.maximum(listas.est, 0.0), family)
    elapsed = time.perf_counter() - started
    return LgcpFit(family, first, second, ffit, sfit, lam, elapsed)


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

    ``params`` must give sigma, alpha and beta.  ``grid`` is three
    positive integers, (gx, gy, gt), with at most 5000 cells in all;
    ``lam0`` must be finite and nonnegative.
    """
    if params is None:
        params = {"sigma": 1.0, "alpha": 0.2, "beta": 0.2}
    missing = [k for k in ("sigma", "alpha", "beta") if k not in params]
    if missing:
        raise ValueError(f"params must give sigma, alpha and beta; missing {', '.join(missing)}")
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
    window, interval, _area = _domain(window, interval, None)
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
    pattern = _time_sorted(window, interval, *coords.T)
    if return_field:
        return pattern, field.reshape(gt, gy, gx)
    return pattern
