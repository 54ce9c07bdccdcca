"""First-order intensity model fitting by quadrature.

Log-linear Poisson intensity models are fitted by the counting-weight
cubature scheme: data events plus dummy points tile the domain, each point
gets weight (cell volume / points in cell), and a weighted Poisson GLM (or
a logistic approximation with a dummy-intensity offset) maximises the
discretised likelihood.  Local models refit the same GLM with Gaussian
kernel weights centred at each event; separable models fit spatial and
temporal margins independently and renormalise the product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import MarkColumn, PointPattern
from .formula import Formula, build_design, parse_formula

__all__ = [
    "FitError",
    "RankDeficiencyError",
    "DivergenceError",
    "Quadrature",
    "make_quadrature",
    "GlmResult",
    "fit_glm",
    "FittedPoissonModel",
    "stppm",
    "predict_intensity",
    "SeparableFit",
    "sep_fit",
    "LocalPoissonFit",
    "locstppm",
]


class FitError(RuntimeError):
    pass


class RankDeficiencyError(FitError):
    pass


class DivergenceError(FitError):
    pass


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class Quadrature:
    """Data plus dummy points with counting weights.

    ``data_index`` maps data rows back to event indices in the pattern.
    For multitype fits the scheme is replicated per mark level and weights
    sum to the domain volume within each level.
    """

    coords: np.ndarray
    is_data: np.ndarray
    weights: np.ndarray
    data_index: np.ndarray
    marks: dict
    nd: Tuple[int, ...]
    seed: Optional[int]
    volume: float
    type_mark: Optional[str] = None

    @property
    def n_dummy(self) -> int:
        return int((~self.is_data).sum())


def _impute_marks(pattern: PointPattern, query: np.ndarray, scale: np.ndarray) -> dict:
    """Marks for dummy points: copy from the nearest data event.

    Distances are measured in coordinates scaled by the domain extents;
    ties break toward the lower event index.
    """
    if not pattern.marks:
        return {}
    pts = pattern.coords / scale
    q = query / scale
    d2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    return {
        name: MarkColumn(col.kind, col.values[nearest], col.levels)
        for name, col in pattern.marks.items()
    }


def _default_side(n: int) -> int:
    return max(2, math.ceil((4.0 * n) ** (1.0 / 3.0)))


def _planar_dummies(pattern, nd, rng):
    nx, ny, nt = nd
    w, iv = pattern.window, pattern.interval
    sizes = np.array([w.width / nx, w.height / ny, iv.length / nt])
    origin = np.array([w.x0, w.y0, iv.t0])
    kk, jj, ii = np.meshgrid(np.arange(nt), np.arange(ny), np.arange(nx), indexing="ij")
    cells = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()]).astype(float)
    jitter = rng.random(cells.shape)
    return origin + (cells + jitter) * sizes


def _planar_cells(pattern, nd, coords):
    nx, ny, nt = nd
    w, iv = pattern.window, pattern.interval
    ix = np.clip(((coords[:, 0] - w.x0) / w.width * nx).astype(int), 0, nx - 1)
    iy = np.clip(((coords[:, 1] - w.y0) / w.height * ny).astype(int), 0, ny - 1)
    it = np.clip(((coords[:, 2] - iv.t0) / iv.length * nt).astype(int), 0, nt - 1)
    return (it * ny + iy) * nx + ix


def make_quadrature(
    pattern: PointPattern,
    nd=None,
    seed: Optional[int] = 0,
    by_type: Optional[str] = None,
) -> Quadrature:
    """Counting-weight quadrature over the pattern's domain.

    Planar dummies form an (nx, ny, nt) grid jittered uniformly within
    cells; network dummies sit equispaced along arc length crossed with a
    time grid.  Default dummy budget is about 4 data points per dummy cell
    side rule: nx = ny = nt = ceil((4n)^(1/3)).  Fewer than one dummy per 8
    data points triggers a warning and an enlarged default grid.
    """
    n = pattern.n
    if n == 0:
        raise ValueError("empty pattern")
    rng = np.random.default_rng(seed)

    if pattern.network is None:
        if nd is None:
            side = _default_side(n)
            nd = (side, side, side)
        elif np.isscalar(nd):
            nd = (int(nd),) * 3
        else:
            nd = tuple(int(v) for v in nd)
            if len(nd) != 3:
                raise ValueError("planar nd must be (nx, ny, nt)")
        if min(nd) < 1:
            raise ValueError("nd entries must be >= 1")
        if math.prod(nd) * 8 < n:
            warnings.warn(
                f"dummy grid {nd} has fewer than one dummy per 8 data points; "
                "enlarging to the default rule"
            )
            side = _default_side(n)
            nd = (side, side, side)
        dummies = _planar_dummies(pattern, nd, rng)
        ncell = math.prod(nd)
        cellvol = pattern.volume / ncell
    else:
        net = pattern.network
        if nd is None:
            nt = _default_side(n)
            ns = max(2, math.ceil(4.0 * n / nt))
            nd = (ns, nt)
        elif np.isscalar(nd):
            nd = (int(nd), int(nd))
        else:
            nd = tuple(int(v) for v in nd)
            if len(nd) == 3:
                nd = (nd[0] * nd[1], nd[2])
            if len(nd) != 2:
                raise ValueError("network nd must be (n_arc, nt)")
        ns, nt = nd
        if min(ns, nt) < 1:
            raise ValueError("nd entries must be >= 1")
        if ns * nt * 8 < n:
            warnings.warn(
                f"dummy grid {nd} has fewer than one dummy per 8 data points; "
                "enlarging to the default rule"
            )
            nt = _default_side(n)
            ns = max(2, math.ceil(4.0 * n / nt))
            nd = (ns, nt)
        total = net.total_length
        arcs = (np.arange(ns) + 0.5) / ns * total
        times = pattern.interval.t0 + (np.arange(nt) + 0.5) / nt * pattern.interval.length
        seg, off = net.location_at(np.repeat(arcs, nt))
        xy = net.segment_point(seg, off)
        dummies = np.column_stack([xy[:, 0], xy[:, 1], np.tile(times, ns)])
        arc_of_dummy = np.repeat(arcs, nt)
        ncell = ns * nt
        cellvol = pattern.volume / ncell

    data = pattern.coords
    scale = np.array(
        [pattern.window.width, pattern.window.height, pattern.interval.length]
    )
    dmarks = _impute_marks(pattern, dummies, scale)

    if pattern.network is None:
        data_cells = _planar_cells(pattern, nd, data)
        dummy_cells = _planar_cells(pattern, nd, dummies)
    else:
        net = pattern.network
        arc_data = net.arc_position(pattern.net_seg, pattern.net_off)
        ia = np.clip((arc_data / net.total_length * ns).astype(int), 0, ns - 1)
        it = np.clip(
            ((data[:, 2] - pattern.interval.t0) / pattern.interval.length * nt).astype(int),
            0, nt - 1,
        )
        data_cells = ia * nt + it
        ia_d = np.clip((arc_of_dummy / net.total_length * ns).astype(int), 0, ns - 1)
        it_d = np.clip(
            ((dummies[:, 2] - pattern.interval.t0) / pattern.interval.length * nt).astype(int),
            0, nt - 1,
        )
        dummy_cells = ia_d * nt + it_d

    levels = [None]
    type_col = None
    if by_type is not None:
        if by_type not in pattern.marks or pattern.marks[by_type].kind != "categorical":
            raise ValueError(f"{by_type!r} is not a categorical mark")
        type_col = pattern.marks[by_type]
        levels = list(range(len(type_col.levels)))

    rows_coords = []
    rows_isdata = []
    rows_weights = []
    rows_dataidx = []
    rows_marks = {name: [] for name in pattern.marks}
    for lev in levels:
        if lev is None:
            sel = np.arange(n)
        else:
            sel = np.flatnonzero(type_col.values == lev)
        counts = np.bincount(
            np.concatenate([data_cells[sel], dummy_cells]), minlength=ncell
        )
        w_cell = cellvol / counts.astype(float)
        rows_coords.append(data[sel])
        rows_coords.append(dummies)
        rows_isdata.append(np.ones(len(sel), dtype=bool))
        rows_isdata.append(np.zeros(len(dummies), dtype=bool))
        rows_weights.append(w_cell[data_cells[sel]])
        rows_weights.append(w_cell[dummy_cells])
        rows_dataidx.append(sel)
        rows_dataidx.append(np.full(len(dummies), -1))
        for name, col in pattern.marks.items():
            dvals = dmarks[name].values
            if lev is not None and name == by_type:
                dvals = np.full(len(dummies), lev, dtype=np.int64)
            rows_marks[name].append(col.values[sel])
            rows_marks[name].append(dvals)

    coords = np.concatenate(rows_coords)
    is_data = np.concatenate(rows_isdata)
    wts = np.concatenate(rows_weights)
    didx = np.concatenate(rows_dataidx)
    marks = {
        name: MarkColumn(
            pattern.marks[name].kind,
            np.concatenate(vals),
            pattern.marks[name].levels,
        )
        for name, vals in rows_marks.items()
    }
    return Quadrature(
        coords, is_data, wts, didx, marks, tuple(nd), seed, pattern.volume, by_type
    )


# ---------------------------------------------------------------------------
# weighted GLM by IRLS


@dataclass(frozen=True)
class GlmResult:
    names: Tuple[str, ...]
    coef: np.ndarray
    converged: bool
    n_iter: int
    deviance: float
    score_norm: float


def _aliased_columns(X: np.ndarray, names, w: np.ndarray):
    """Greedy Gram-Schmidt scan for linearly dependent columns."""
    A = X * np.sqrt(w)[:, None]
    basis = []
    aliased = []
    for k in range(A.shape[1]):
        c = A[:, k]
        nrm0 = np.linalg.norm(c)
        r = c.copy()
        for b in basis:
            r = r - (b @ r) * b
        # re-orthogonalise once for numerical safety
        for b in basis:
            r = r - (b @ r) * b
        nrm = np.linalg.norm(r)
        if nrm <= 1e-10 * max(nrm0, 1e-300):
            aliased.append(names[k])
        else:
            basis.append(r / nrm)
    return aliased


def _xlogy(x, y):
    out = np.zeros_like(np.asarray(y, dtype=float))
    pos = x > 0
    out[pos] = x[pos] * np.log(y[pos])
    return out


def fit_glm(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    names=None,
    offset=None,
    family: str = "poisson",
    tol: float = 1e-8,
    maxit: int = 50,
) -> GlmResult:
    """Weighted GLM with log (Poisson) or logit (binomial) link, by IRLS.

    Each step solves the weighted least-squares system through a dense
    orthogonal factorisation, halving the step while the deviance worsens.
    Convergence is declared when the score satisfies
    ||X'(w(y - mu))||_inf < tol * max(1, sum w|y|).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    m, p = X.shape
    if names is None:
        names = tuple(f"b{j}" for j in range(p))
    if offset is None:
        offset = np.zeros(m)
    else:
        offset = np.asarray(offset, dtype=float)
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    if family not in ("poisson", "binomial"):
        raise ValueError("family must be 'poisson' or 'binomial'")
    if family == "binomial" and ((y < 0) | (y > 1)).any():
        raise ValueError("binomial responses must lie in [0, 1]")

    aliased = _aliased_columns(X, names, w)
    if aliased:
        raise RankDeficiencyError(
            "design matrix is rank deficient; aliased columns: "
            + ", ".join(str(a) for a in aliased)
        )

    if family == "poisson":
        mu = y + max(float(np.mean(y)), 1e-8) * 0.5 + 1e-12
        eta = np.log(mu)

        def inv_link(e):
            return np.exp(np.clip(e, -700, 700))

        def variance(mu):
            return mu

        def deviance(mu):
            return 2.0 * float(np.sum(w * (_xlogy(y, y / mu) - (y - mu))))

    else:
        mu = (w * y + 0.5) / (w + 1.0)
        eta = np.log(mu / (1.0 - mu))

        def inv_link(e):
            return 1.0 / (1.0 + np.exp(-np.clip(e, -700, 700)))

        def variance(mu):
            return mu * (1.0 - mu)

        def deviance(mu):
            return 2.0 * float(
                np.sum(w * (_xlogy(y, y / mu) + _xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))))
            )

    scale = max(1.0, float(np.sum(w * np.abs(y))))
    beta = None
    dev = deviance(mu)
    for it in range(1, maxit + 1):
        var = np.maximum(variance(mu), 1e-300)
        score = X.T @ (w * (y - mu))
        score_norm = float(np.max(np.abs(score)))
        if beta is not None and score_norm < tol * scale:
            return GlmResult(tuple(names), beta, True, it - 1, dev, score_norm)
        z = (eta - offset) + (y - mu) / var
        ww = w * var
        sw = np.sqrt(ww)
        new_beta, *_ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
        if beta is not None:  # no reference point to halve toward on step 1
            halvings = 0
            while True:
                eta_try = offset + X @ new_beta
                mu_try = inv_link(eta_try)
                dev_try = deviance(mu_try)
                if dev_try <= dev + 1e-10 * (abs(dev) + 1.0):
                    break
                halvings += 1
                if halvings > 30:
                    raise DivergenceError(
                        "IRLS step halving exhausted; deviance does not improve"
                    )
                new_beta = 0.5 * (new_beta + beta)
        beta = new_beta
        eta = offset + X @ beta
        mu = inv_link(eta)
        dev = deviance(mu)
        if family == "binomial" and float(np.max(np.abs(eta - offset))) > 30.0:
            score = X.T @ (w * (y - mu))
            if float(np.max(np.abs(score))) >= tol * scale:
                raise DivergenceError(
                    "coefficients diverging; possible complete separation"
                )
    score = X.T @ (w * (y - mu))
    score_norm = float(np.max(np.abs(score)))
    if score_norm < tol * scale:
        return GlmResult(tuple(names), beta, True, maxit, dev, score_norm)
    raise FitError(f"IRLS did not converge in {maxit} iterations")


# ---------------------------------------------------------------------------
# global Poisson model


def _design_with_types(quad: Quadrature, trend: Formula, covs):
    design = build_design(trend, quad.coords, quad.marks, covs)
    names = list(design.names)
    cols = [design.matrix]
    if quad.type_mark is not None:
        tcol = quad.marks[quad.type_mark]
        for i, level in enumerate(tcol.levels):
            if i == 0:
                continue  # reference level folds into the intercept
            names.append(f"{quad.type_mark}{level}")
            cols.append((tcol.values == i).astype(float)[:, None])
    return tuple(names), np.hstack(cols)


@dataclass(frozen=True)
class FittedPoissonModel:
    """Log-linear intensity model fitted on a quadrature scheme."""

    trend: Formula
    names: Tuple[str, ...]
    coef: np.ndarray
    method: str
    fitted: np.ndarray  # intensity at the data events, original order
    glm: GlmResult
    pattern: PointPattern
    covs: Optional[dict] = None
    type_mark: Optional[str] = None
    nd: Tuple[int, ...] = ()
    seed: Optional[int] = None

    def predict(self, coords, marks=None) -> np.ndarray:
        names, X = _predict_design(self, np.asarray(coords, dtype=float), marks)
        return np.exp(X @ self.coef)

    def __str__(self):
        kind = "Homogeneous" if not self.trend.terms else "Inhomogeneous"
        lines = [f"{kind} Poisson process", f"Trend: {self.trend}"]
        if not self.trend.terms and self.type_mark is None:
            lines.append(f"Intensity: {math.exp(self.coef[0]):.6g}")
        lines.append("Estimated coefficients:")
        for nm, c in zip(self.names, self.coef):
            lines.append(f"  {nm}: {c:.4f}")
        return "\n".join(lines)


def _predict_design(model: FittedPoissonModel, coords, marks):
    design = build_design(model.trend, coords, marks, model.covs)
    names = list(design.names)
    cols = [design.matrix]
    if model.type_mark is not None:
        if marks is None or model.type_mark not in marks:
            raise ValueError(f"prediction needs the {model.type_mark!r} mark")
        tcol = marks[model.type_mark]
        for i, level in enumerate(tcol.levels):
            if i == 0:
                continue
            names.append(f"{model.type_mark}{level}")
            cols.append((tcol.values == i).astype(float)[:, None])
    X = np.hstack(cols)
    if tuple(names) != model.names:
        raise ValueError("prediction design does not match the fitted model")
    return tuple(names), X


def stppm(
    pattern: PointPattern,
    trend="~1",
    covs=None,
    marked=False,
    method: str = "glm",
    nd=None,
    seed: Optional[int] = 0,
    tol: float = 1e-12,
) -> FittedPoissonModel:
    """Fit a log-linear Poisson intensity model.

    ``method='glm'`` uses the counting-weight Poisson regression;
    ``method='lsr'`` uses logistic regression of data against dummies with
    offset -log(rho), rho the dummy intensity.  ``marked`` adds per-type
    intercepts for the pattern's categorical mark (True picks the first
    categorical mark, a string names one) on a per-type replicated
    quadrature.
    """
    if method not in ("glm", "lsr"):
        raise ValueError("method must be 'glm' or 'lsr'")
    ast = parse_formula(trend)
    by_type = None
    if marked:
        if isinstance(marked, str):
            by_type = marked
        else:
            cats = [k for k, v in pattern.marks.items() if v.kind == "categorical"]
            if not cats:
                raise ValueError("marked fit needs a categorical mark")
            by_type = cats[0]
    quad = make_quadrature(pattern, nd=nd, seed=seed, by_type=by_type)
    names, X = _design_with_types(quad, ast, covs)

    if method == "glm":
        y = quad.is_data / quad.weights
        res = fit_glm(X, y, quad.weights, names=names, tol=tol)
        eta = X @ res.coef
    else:
        rho = quad.n_dummy / quad.volume
        offset = np.full(len(X), -math.log(rho))
        y = quad.is_data.astype(float)
        res = fit_glm(
            X, y, np.ones(len(X)), names=names, offset=offset,
            family="binomial", tol=max(tol, 1e-10),
        )
        eta = X @ res.coef

    fitted = np.empty(pattern.n)
    fitted[quad.data_index[quad.is_data]] = np.exp(eta[quad.is_data])
    return FittedPoissonModel(
        ast, names, res.coef, method, fitted, res, pattern, covs, by_type,
        quad.nd, seed,
    )


def predict_intensity(model, coords, marks=None) -> np.ndarray:
    """Intensity of a fitted model at new points."""
    return model.predict(coords, marks)


# ---------------------------------------------------------------------------
# separable first-order models


def _margin_quadrature(values, lo, hi, nd, rng, jitter=True):
    """1-d counting-weight quadrature on [lo, hi]."""
    length = hi - lo
    cells = np.arange(nd)
    if jitter:
        pos = lo + (cells + rng.random(nd)) * (length / nd)
    else:
        pos = lo + (cells + 0.5) * (length / nd)
    idx = np.clip(((values - lo) / length * nd).astype(int), 0, nd - 1)
    didx = np.clip(((pos - lo) / length * nd).astype(int), 0, nd - 1)
    counts = np.bincount(np.concatenate([idx, didx]), minlength=nd)
    w_cell = length / nd / counts.astype(float)
    return pos, w_cell[idx], w_cell[didx]


@dataclass(frozen=True)
class SeparableFit:
    """Product model: intensity = norm * spatial(u) * temporal(t)."""

    space_trend: Formula
    space_names: Tuple[str, ...]
    space_coef: np.ndarray
    time_trend: Formula
    time_names: Tuple[str, ...]
    time_coef: np.ndarray
    norm: float
    fitted: np.ndarray
    pattern: PointPattern

    def predict(self, coords, marks=None) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if marks is None:
            scale = np.array(
                [
                    self.pattern.window.width,
                    self.pattern.window.height,
                    self.pattern.interval.length,
                ]
            )
            marks = _impute_marks(self.pattern, coords, scale)
        xs = build_design(self.space_trend, coords, marks).matrix
        xt = build_design(self.time_trend, coords, marks).matrix
        return self.norm * np.exp(xs @ self.space_coef) * np.exp(xt @ self.time_coef)

    def __str__(self):
        lines = [
            "Separable spatio-temporal Poisson model",
            f"Spatial trend: {self.space_trend}",
        ] + [
            f"  {nm}: {c:.4f}" for nm, c in zip(self.space_names, self.space_coef)
        ] + [
            f"Temporal trend: {self.time_trend}",
        ] + [
            f"  {nm}: {c:.4f}" for nm, c in zip(self.time_names, self.time_coef)
        ]
        return "\n".join(lines)


def sep_fit(
    pattern: PointPattern,
    spaceformula="~1",
    timeformula="~1",
    nd=None,
    seed: Optional[int] = 0,
) -> SeparableFit:
    """Fit a separable model: independent spatial and temporal margins.

    The spatial margin is fitted by 2-d cubature on (x, y) (1-d along the
    arc on networks), the temporal margin by 1-d cubature on t, and the
    product is rescaled so its integral equals the number of events.  Mark
    variables at dummy locations copy the nearest data event.
    """
    s_ast = parse_formula(spaceformula)
    t_ast = parse_formula(timeformula)
    if "t" in s_ast.variables():
        raise ValueError("spaceformula may not use t")
    if set(t_ast.variables()) & {"x", "y"}:
        raise ValueError("timeformula may not use x or y")
    n = pattern.n
    if n == 0:
        raise ValueError("empty pattern")
    rng = np.random.default_rng(seed)
    w, iv = pattern.window, pattern.interval
    scale = np.array([w.width, w.height, iv.length])

    # spatial margin
    if pattern.network is None:
        side = max(2, math.ceil(math.sqrt(4.0 * n))) if nd is None else int(nd)
        jx = rng.random((side * side, 2))
        jj, ii = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        cells = np.column_stack([ii.ravel(), jj.ravel()]).astype(float)
        sizes = np.array([w.width / side, w.height / side])
        dpos = np.array([w.x0, w.y0]) + (cells + jx) * sizes
        ix = np.clip(((pattern.x - w.x0) / w.width * side).astype(int), 0, side - 1)
        iy = np.clip(((pattern.y - w.y0) / w.height * side).astype(int), 0, side - 1)
        dcell = iy * side + ix
        dix = np.clip(((dpos[:, 0] - w.x0) / w.width * side).astype(int), 0, side - 1)
        diy = np.clip(((dpos[:, 1] - w.y0) / w.height * side).astype(int), 0, side - 1)
        ddcell = diy * side + dix
        counts = np.bincount(np.concatenate([dcell, ddcell]), minlength=side * side)
        w_cell = (w.area / (side * side)) / counts.astype(float)
        s_weights = np.concatenate([w_cell[dcell], w_cell[ddcell]])
        s_coords = np.vstack(
            [
                np.column_stack([pattern.x, pattern.y, np.zeros(n)]),
                np.column_stack([dpos, np.zeros(len(dpos))]),
            ]
        )
        s_measure = w.area
    else:
        net = pattern.network
        ns = max(2, 4 * n) if nd is None else int(nd)
        arc_data = net.arc_position(pattern.net_seg, pattern.net_off)
        pos, wd, wdum = _margin_quadrature(
            arc_data, 0.0, net.total_length, ns, rng, jitter=False
        )
        seg, off = net.location_at(pos)
        xy = net.segment_point(seg, off)
        s_weights = np.concatenate([wd, wdum])
        s_coords = np.vstack(
            [
                np.column_stack([pattern.x, pattern.y, np.zeros(n)]),
                np.column_stack([xy[:, 0], xy[:, 1], np.zeros(ns)]),
            ]
        )
        s_measure = net.total_length
    s_isdata = np.concatenate([np.ones(n, bool), np.zeros(len(s_coords) - n, bool)])
    s_marks = {}
    if pattern.marks:
        dmarks = _impute_marks(pattern, s_coords[~s_isdata], scale)
        s_marks = {
            name: MarkColumn(
                col.kind,
                np.concatenate([col.values, dmarks[name].values]),
                col.levels,
            )
            for name, col in pattern.marks.items()
        }
    s_design = build_design(s_ast, s_coords, s_marks)
    s_res = fit_glm(
        s_design.matrix,
        s_isdata / s_weights,
        s_weights,
        names=s_design.names,
        tol=1e-12,
    )

    # temporal margin
    ndt = max(2, 4 * n) if nd is None else int(nd)
    pos, wd, wdum = _margin_quadrature(pattern.t, iv.t0, iv.t1, ndt, rng)
    t_coords = np.vstack(
        [
            np.column_stack([np.zeros(n), np.zeros(n), pattern.t]),
            np.column_stack([np.zeros(ndt), np.zeros(ndt), pos]),
        ]
    )
    t_isdata = np.concatenate([np.ones(n, bool), np.zeros(ndt, bool)])
    t_weights = np.concatenate([wd, wdum])
    t_marks = {}
    if pattern.marks:
        dmarks = _impute_marks(pattern, t_coords[n:], scale)
        t_marks = {
            name: MarkColumn(
                col.kind,
                np.concatenate([col.values, dmarks[name].values]),
                col.levels,
            )
            for name, col in pattern.marks.items()
        }
    t_design = build_design(t_ast, t_coords, t_marks)
    t_res = fit_glm(
        t_design.matrix,
        t_isdata / t_weights,
        t_weights,
        names=t_design.names,
        tol=1e-12,
    )

    int_s = float(np.sum(s_weights * np.exp(s_design.matrix @ s_res.coef)))
    int_t = float(np.sum(t_weights * np.exp(t_design.matrix @ t_res.coef)))
    norm = n / (int_s * int_t)
    fitted = (
        norm
        * np.exp(s_design.matrix[:n] @ s_res.coef)
        * np.exp(t_design.matrix[:n] @ t_res.coef)
    )
    return SeparableFit(
        s_ast, s_design.names, s_res.coef,
        t_ast, t_design.names, t_res.coef,
        norm, fitted, pattern,
    )


# ---------------------------------------------------------------------------
# local Poisson models


@dataclass(frozen=True)
class LocalPoissonFit:
    """Per-event coefficients from kernel-weighted refits."""

    trend: Formula
    names: Tuple[str, ...]
    coef: np.ndarray  # (n, p), NaN rows for non-converged events
    converged: np.ndarray
    h_space: float
    h_time: float
    fitted: np.ndarray
    pattern: PointPattern

    def __str__(self):
        lines = [
            "Local Poisson model",
            f"Trend: {self.trend}",
            f"Bandwidths: space {self.h_space:.4g}, time {self.h_time:.4g}",
            "Coefficient quartiles (25%, 50%, 75%):",
        ]
        ok = self.converged
        for j, nm in enumerate(self.names):
            q = np.percentile(self.coef[ok, j], [25, 50, 75])
            lines.append(f"  {nm}: {q[0]:.4f}  {q[1]:.4f}  {q[2]:.4f}")
        return "\n".join(lines)


def _silverman(values: np.ndarray) -> float:
    n = len(values)
    return 1.06 * float(np.std(values)) * n ** (-0.2)


def locstppm(
    pattern: PointPattern,
    trend="~1",
    covs=None,
    h_space: Optional[float] = None,
    h_time: Optional[float] = None,
    nd=None,
    seed: Optional[int] = 0,
    tol: float = 1e-10,
) -> LocalPoissonFit:
    """Fit local log-linear Poisson models by kernel-weighted refits.

    Event i reuses the global quadrature with weights multiplied by
    Gaussian kernels exp(-|s - s_i|^2 / (2 h_space^2)) and
    exp(-(t - t_i)^2 / (2 h_time^2)).  Default bandwidths follow
    Silverman's rule per axis (the two spatial values averaged).
    Non-converged events get NaN coefficient rows, not an error.
    """
    ast = parse_formula(trend)
    n = pattern.n
    quad = make_quadrature(pattern, nd=nd, seed=seed)
    design = build_design(ast, quad.coords, quad.marks, covs)
    p = design.matrix.shape[1]
    if n < p + 2:
        raise ValueError(f"need at least {p + 2} events to fit {p} coefficients")
    if h_space is None:
        h_space = 0.5 * (_silverman(pattern.x) + _silverman(pattern.y))
    if h_time is None:
        h_time = _silverman(pattern.t)
    if h_space <= 0 or h_time <= 0:
        raise ValueError("bandwidths must be positive")

    y = quad.is_data / quad.weights
    coef = np.full((n, p), np.nan)
    fitted = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    d2s = (
        (quad.coords[:, 0][None, :] - pattern.x[:, None]) ** 2
        + (quad.coords[:, 1][None, :] - pattern.y[:, None]) ** 2
    )
    d2t = (quad.coords[:, 2][None, :] - pattern.t[:, None]) ** 2
    kernels = np.exp(-d2s / (2.0 * h_space**2) - d2t / (2.0 * h_time**2))
    data_rows = np.flatnonzero(quad.is_data)
    row_of_event = np.empty(n, dtype=int)
    row_of_event[quad.data_index[quad.is_data]] = data_rows
    for i in range(n):
        wi = quad.weights * kernels[i]
        if not (wi > 0).all():  # kernel weights underflowed: not converged
            continue
        try:
            res = fit_glm(design.matrix, y, wi, names=design.names, tol=tol)
        except FitError:
            continue
        coef[i] = res.coef
        converged[i] = True
        fitted[i] = math.exp(float(design.matrix[row_of_event[i]] @ res.coef))
    return LocalPoissonFit(
        ast, design.names, coef, converged, float(h_space), float(h_time),
        fitted, pattern,
    )
