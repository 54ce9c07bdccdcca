"""First-order intensity model fitting by quadrature.

Log-linear Poisson intensity models are fitted by the counting-weight
cubature scheme: data events plus dummy points tile the domain, each point
gets weight (cell volume / points in cell), and a weighted Poisson GLM (or
a logistic approximation with a dummy-intensity offset) maximises the
discretised likelihood.  One builder makes every such scheme: ``_grid``
cuts a box into cells, places the dummies and gives every point its cell,
and ``_counting_weights`` turns cells into weights.  ``make_quadrature``
uses it on (x, y, t) or (arc, t), ``sep_fit`` on each of its margins.
One IRLS fits every such GLM: ``_irls`` solves stacked normal equations
for a block of weight rows in lockstep; ``fit_glm`` runs it on one row
for the global and separable fits, ``locstppm`` on Gaussian kernel rows
centred at each event.  Separable models fit spatial and temporal
margins independently and renormalise the product.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .core import MarkColumn, PointPattern
from . import network
from .formula import Formula, build_design, parse_formula
from .network import _origin_blocks

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


def _impute_marks(pattern: PointPattern, query: np.ndarray) -> dict:
    """Marks for dummy points: copy from the nearest data event.

    Distances are measured in coordinates scaled by the domain extents;
    ties break toward the lower event index.  The nearest event is found
    over the query row blocks of ``network._origin_blocks``, so no (query x
    events) table is built whole.
    """
    if not pattern.marks:
        return {}
    w, iv = pattern.window, pattern.interval
    scale = np.array([w.width, w.height, iv.length])
    pts = pattern.coords / scale
    q = query / scale
    nearest = np.empty(len(q), dtype=np.intp)
    for rows in _origin_blocks(None, len(q), len(pts)):
        nearest[rows] = np.argmin(((q[rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2), axis=1)
    return {
        name: MarkColumn(col.kind, col.values[nearest], col.levels)
        for name, col in pattern.marks.items()
    }


def _with_dummy_marks(pattern: PointPattern, dummies: np.ndarray) -> dict:
    """The pattern's marks followed by the marks imputed at the dummies."""
    dmarks = _impute_marks(pattern, dummies)
    return {
        name: MarkColumn(
            col.kind, np.concatenate([col.values, dmarks[name].values]), col.levels
        )
        for name, col in pattern.marks.items()
    }


def _grid(data, lo, length, shape, rng=None):
    """Dummy points on a box grid, and the cell ids of data and dummies.

    The box lo + [0, length] has d axes, cut into shape[k] equal cells on
    axis k; cells are numbered with the first axis fastest.  With ``rng``
    each dummy is jittered uniformly within its cell (one (cells, d) draw);
    without it the dummies sit at the cell centres.  Returns the (cells, d)
    dummies and the cell id of every row of [data; dummies]; a point on the
    upper edge of an axis belongs to its last cell.
    """
    lo = np.asarray(lo, dtype=float)
    length = np.asarray(length, dtype=float)
    shape = np.asarray(shape)
    cells = np.indices(shape[::-1]).reshape(len(shape), -1)[::-1].T.astype(float)
    offset = 0.5 if rng is None else rng.random(cells.shape)
    dummies = lo + (cells + offset) * (length / shape)
    points = np.vstack([data, dummies])
    idx = np.clip(((points - lo) / length * shape).astype(int), 0, shape - 1)
    return dummies, np.ravel_multi_index(idx.T[::-1], shape[::-1])


def _counting_weights(cells: np.ndarray, ncell: int, volume: float) -> np.ndarray:
    """Each point's weight: its cell's volume over the points in the cell."""
    w_cell = volume / ncell / np.bincount(cells, minlength=ncell).astype(float)
    return w_cell[cells]


def _positive_int(v) -> bool:
    """True for an integer >= 1, numpy integers included and bools not."""
    return not isinstance(v, bool) and isinstance(v, numbers.Integral) and v >= 1


def _default_side(n: int) -> int:
    return max(2, math.ceil((4.0 * n) ** (1.0 / 3.0)))


def _resolve_nd(nd, n: int, network: bool) -> Tuple[int, ...]:
    """Dummy grid shape: (nx, ny, nt) on a window, (n_arc, nt) on a network.

    A scalar applies to every axis; on a network a 3-tuple collapses its
    two spatial entries onto the arc axis.  ``None``, or a grid with fewer
    than one dummy per 8 data points (with a warning), gives the default
    rule: k = ceil((4n)^(1/3)) cells on every axis; on a network k time
    cells and about 4n / k arc cells.
    """
    dims = 2 if network else 3
    if nd is not None:
        cells = (nd,) * dims if np.isscalar(nd) else tuple(nd)
        if not all(map(_positive_int, cells)):
            raise ValueError(f"nd entries must be integers >= 1, got {nd!r}")
        nd = tuple(int(v) for v in cells)
        if network and len(nd) == 3:
            nd = (nd[0] * nd[1], nd[2])
        if len(nd) != dims:
            raise ValueError(
                "network nd must be (n_arc, nt)" if network
                else "planar nd must be (nx, ny, nt)"
            )
        if math.prod(nd) * 8 >= n:
            return nd
        warnings.warn(
            f"dummy grid {nd} has fewer than one dummy per 8 data points; "
            "enlarging to the default rule"
        )
    side = _default_side(n)
    return (max(2, math.ceil(4.0 * n / side)), side) if network else (side,) * 3


def make_quadrature(
    pattern: PointPattern,
    nd=None,
    seed: Optional[int] = 0,
    by_type: Optional[str] = None,
) -> Quadrature:
    """Counting-weight quadrature over the pattern's domain.

    One grid builder serves every first-order fit.  Planar dummies form an
    (nx, ny, nt) grid jittered uniformly within cells; network dummies sit
    at the cell centres of an (n_arc, nt) grid, arc length crossed with
    time.  Default dummy budget is about 4 data points per dummy cell
    side rule: nx = ny = nt = ceil((4n)^(1/3)).  Fewer than one dummy per 8
    data points triggers a warning and an enlarged default grid.  Dummy
    marks copy the nearest data event; ``by_type`` replicates the scheme
    per level of that categorical mark.
    """
    n = pattern.n
    if n == 0:
        raise ValueError("empty pattern")
    if by_type is None:
        selections = [np.arange(n)]
    else:
        tcol = pattern.marks.get(by_type)
        if tcol is None or tcol.kind != "categorical":
            raise ValueError(f"{by_type!r} is not a categorical mark")
        selections = [np.flatnonzero(tcol.values == k) for k in range(len(tcol.levels))]
    net, iv = pattern.network, pattern.interval
    nd = _resolve_nd(nd, n, net is not None)
    if net is None:
        w = pattern.window
        dummies, cells = _grid(
            pattern.coords, (w.x0, w.y0, iv.t0), (w.width, w.height, iv.length),
            nd, np.random.default_rng(seed),
        )
    else:
        # time is the fast axis: cell id = arc cell * nt + time cell
        arc = net.arc_position(pattern.net_seg, pattern.net_off)
        grid, cells = _grid(
            np.column_stack([pattern.t, arc]), (iv.t0, 0.0),
            (iv.length, net.total_length), nd[::-1],
        )
        xy = net.segment_point(*net.location_at(grid[:, 1]))
        dummies = np.column_stack([xy, grid[:, 0]])

    # rows of [data; dummies]: per type level, its events then every dummy
    dummy_rows = np.arange(n, n + len(dummies))
    blocks = [np.concatenate([sel, dummy_rows]) for sel in selections]
    rows = np.concatenate(blocks)
    is_data = rows < n
    weights = np.concatenate(
        [_counting_weights(cells[b], math.prod(nd), pattern.volume) for b in blocks]
    )
    marks = _with_dummy_marks(pattern, dummies)
    marks = {name: col.take(rows) for name, col in marks.items()}
    if by_type is not None:  # each block's dummies carry the block's level
        level = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        marks[by_type] = MarkColumn(
            "categorical", np.where(is_data, marks[by_type].values, level), tcol.levels
        )
    return Quadrature(
        np.vstack([pattern.coords, dummies])[rows], is_data, weights,
        np.where(is_data, rows, -1), marks, nd, seed, pattern.volume, by_type,
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


def _poisson_deviance(w, y, mu):
    """Row deviances 2 sum w (y log(y / mu) - (y - mu)) of a (E, m) mu."""
    term = mu - y
    data = y > 0  # y log(y / mu) is 0 where y is
    term[:, data] = y[data] * np.log(y[data] / mu[:, data]) - (y[data] - mu[:, data])
    return 2.0 * np.sum(w * term, axis=1)


def _binomial_deviance(w, y, mu):
    """Row deviances 2 sum w (y log(y / mu) + (1 - y) log((1 - y) / (1 - mu)))."""
    term = np.zeros(mu.shape)
    hit, miss = y > 0, y < 1  # each log term is 0 where its factor is
    term[:, hit] = y[hit] * np.log(y[hit] / mu[:, hit])
    term[:, miss] += (1.0 - y[miss]) * np.log((1.0 - y[miss]) / (1.0 - mu[:, miss]))
    return 2.0 * np.sum(w * term, axis=1)


class _Family(NamedTuple):
    """What the IRLS needs of a GLM family, for weight rows w of shape (E, m)."""
    start: Callable  # (w, y) -> starting eta, (m,) or (E, m)
    inv_link: Callable  # eta -> mu
    variance: Callable  # mu -> variance function
    deviance: Callable  # (w, y, mu) -> (E,) row deviances
    separated: Callable  # (eta, offset) -> (E,) rows whose predictor ran off


_FAMILIES = {
    "poisson": _Family(
        lambda w, y: np.log(y + max(float(np.mean(y)), 1e-8) * 0.5 + 1e-12),
        lambda eta: np.exp(np.clip(eta, -700, 700)),
        lambda mu: mu,
        _poisson_deviance,
        lambda eta, offset: np.zeros(len(eta), dtype=bool),
    ),
    "binomial": _Family(
        lambda w, y: np.log((w * y + 0.5) / (w * (1.0 - y) + 0.5)),  # logit of (wy + .5) / (w + 1)
        lambda eta: 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700))),
        lambda mu: mu * (1.0 - mu),
        _binomial_deviance,
        lambda eta, offset: np.max(np.abs(eta - offset), axis=1) > 30.0,
    ),
}


def _stacked_solve(A, b):
    """x with A[e] x[e] = b[e]; NaN rows where A[e] is singular or not finite."""
    x = np.full(b.shape, np.nan)
    ok = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if not ok.any():
        return x
    try:  # b as a stack of columns: numpy 2 reads a 2-d b as one matrix
        x[ok] = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    except np.linalg.LinAlgError:  # some matrix is singular: solve one by one
        for e in np.flatnonzero(ok):
            try:
                x[e] = np.linalg.solve(A[e], b[e])
            except np.linalg.LinAlgError:
                pass
    return x


def _rows(mask, *arrays):
    """The rows of each array where mask holds; the arrays if it holds everywhere."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _irls(X, y, w, tol, maxit=50, family="poisson", offset=0.0):
    """``fit_glm``'s IRLS for each weight row of w (E, m), the rows in lockstep.

    X is the (m, p) design and y the (m,) response.  Each step solves the
    (p, p) normal equations stacked over the active rows; the Newton
    increments from step 2 on lose less to rounding than whole-vector steps
    where mu spans many orders of magnitude.  A row leaves the active set
    with its exit: "converged", or a key of ``_FAILURES``.  Returns coef
    (E, p), NaN but where a row converged, and per row the steps taken,
    deviance, score norm and exit.
    """
    fam = _FAMILIES[family]
    E, p = w.shape[0], X.shape[1]
    coef = np.full((E, p), np.nan)
    n_iter, deviance, score_norm = np.zeros(E, dtype=int), np.full(E, np.nan), np.full(E, np.nan)
    reason = np.full(E, "capped", dtype=object)
    # X'WX as one (E, m) @ (m, p^2) product with the column products, made
    # from X' (long inner loops) in row blocks of the cell budget; E separate
    # (p, m) @ (m, p) products cost 10-50x more on blocks of local rows
    XT, step = np.ascontiguousarray(X.T), max(1, network._CELLS // (p * p))
    scale = np.maximum(1.0, np.sum(w * np.abs(y), axis=1))
    eta = np.broadcast_to(fam.start(w, y), w.shape)
    mu = fam.inv_link(eta)
    dev = fam.deviance(w, y, mu)
    rows, beta = np.arange(E), np.zeros((E, p))
    for it in range(maxit + 1):  # it: steps taken so far
        score = (w * (y - mu)) @ X
        n_iter[rows], deviance[rows], score_norm[rows] = it, dev, np.max(np.abs(score), axis=1)
        if it:
            done = score_norm[rows] < tol * scale
            off = ~done & fam.separated(eta, offset)
            coef[rows[done]] = beta[done]
            reason[rows[done]] = "converged"
            reason[rows[off]] = "separated"
            rows, w, mu, eta, dev, scale, beta, score = _rows(
                ~(done | off), rows, w, mu, eta, dev, scale, beta, score
            )
        if it == maxit or not len(rows):
            break
        var = np.maximum(fam.variance(mu), 1e-300)
        ww = w * var
        rhs = score if it else (ww * (eta - offset + (y - mu) / var)) @ X
        gram = np.zeros((len(rows), p * p))
        for a in range(0, len(X), step):
            Xa = XT[:, a:a + step]
            gram += ww[:, a:a + step] @ (Xa[:, None, :] * Xa[None, :, :]).reshape(p * p, -1).T
        new = beta + _stacked_solve(gram.reshape(-1, p, p), rhs)
        solved = np.isfinite(new).all(axis=1)
        reason[rows[~solved]] = "singular"
        rows, w, dev, scale, beta, new = _rows(solved, rows, w, dev, scale, beta, new)
        eta = new @ X.T + offset
        mu = fam.inv_link(eta)
        dev_new = fam.deviance(w, y, mu)
        if it:  # no reference point to halve toward on step 1
            worse = ~(dev_new <= dev + 1e-10 * (np.abs(dev) + 1.0))
            for _ in range(30):
                if not worse.any():
                    break
                at = np.flatnonzero(worse)
                new[at] = 0.5 * (new[at] + beta[at])
                eta[at] = new[at] @ X.T + offset
                mu[at] = fam.inv_link(eta[at])
                dev_new[at] = fam.deviance(w[at], y, mu[at])
                worse[at] = ~(dev_new[at] <= dev[at] + 1e-10 * (np.abs(dev[at]) + 1.0))
            reason[rows[worse]] = "halving"
            rows, w, mu, eta, dev_new, scale, new = _rows(
                ~worse, rows, w, mu, eta, dev_new, scale, new
            )
        beta, dev = new, dev_new
    return coef, n_iter, deviance, score_norm, reason


# the other exits of _irls, and what fit_glm raises for each
_FAILURES = {
    "singular": (FitError, "IRLS normal equations are singular or not finite"),
    "halving": (DivergenceError, "IRLS step halving exhausted; deviance does not improve"),
    "separated": (DivergenceError, "coefficients diverging; possible complete separation"),
    "capped": (FitError, "IRLS did not converge in {maxit} iterations"),
}


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

    The module's one IRLS, which the local fits run too, on one weight
    row: step 1 solves the weighted normal equations for the whole
    coefficient vector, later steps for the Newton increment
    X'WX d = X'w(y - mu), halving a step while the deviance worsens.  It
    converges when ||X'(w(y - mu))||_inf < tol * max(1, sum w|y|) after a
    step.  Raises ``RankDeficiencyError`` naming aliased columns,
    ``DivergenceError`` when 30 halvings do not improve a step or a logit
    predictor runs past 30 (possible complete separation), and
    ``FitError`` when the normal equations are singular or ``maxit`` steps
    do not converge.  X must be 2-d.  X, y, weights and offset must be
    finite, one entry per row of X; a scalar offset applies to every
    row.  names, if given, has one entry per column of X.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d design matrix, got {X.ndim} dimension(s)")
    m, p = X.shape
    names = tuple(f"b{j}" for j in range(p)) if names is None else tuple(names)
    if len(names) != p:
        raise ValueError(f"names must have one entry per column of X ({p}), got {len(names)}")
    offset = np.asarray(0.0 if offset is None else offset, dtype=float)
    if offset.ndim == 0:  # a scalar offset applies to every row
        offset = np.full(m, offset)
    for name, v in (("y", y), ("weights", w), ("offset", offset)):
        if v.shape != (m,):
            raise ValueError(f"{name} must have one entry per row of X ({m}), got shape {v.shape}")
    for name, v in (("X", X), ("y", y), ("weights", w), ("offset", offset)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    if family not in _FAMILIES:
        raise ValueError("family must be 'poisson' or 'binomial'")
    if family == "poisson" and (y < 0).any():
        raise ValueError("y must be non-negative for the poisson family")
    if family == "binomial" and ((y < 0) | (y > 1)).any():
        raise ValueError("binomial responses must lie in [0, 1]")

    aliased = _aliased_columns(X, names, w)
    if aliased:
        raise RankDeficiencyError(
            "design matrix is rank deficient; aliased columns: "
            + ", ".join(str(a) for a in aliased)
        )
    coef, n_iter, dev, score, reason = _irls(X, y, w[None], tol, maxit, family, offset)
    if reason[0] != "converged":
        error, message = _FAILURES[reason[0]]
        raise error(message.format(maxit=maxit))
    return GlmResult(names, coef[0], True, int(n_iter[0]), float(dev[0]), float(score[0]))


# ---------------------------------------------------------------------------
# global Poisson model


def _design(trend: Formula, coords, marks, covs, type_mark):
    """Design matrix of ``trend``, plus one indicator column per non-reference
    level of the ``type_mark`` categorical mark (per-type intercepts)."""
    design = build_design(trend, coords, marks, covs)
    names = list(design.names)
    cols = [design.matrix]
    if type_mark is not None:
        if marks is None or type_mark not in marks:
            raise ValueError(f"per-type intercepts need the {type_mark!r} mark")
        tcol = marks[type_mark]
        for i, level in enumerate(tcol.levels):
            if i == 0:
                continue  # reference level folds into the intercept
            names.append(f"{type_mark}{level}")
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
        names, X = _design(
            self.trend, np.asarray(coords, dtype=float), marks, self.covs, self.type_mark
        )
        if names != self.names:
            raise ValueError("prediction design does not match the fitted model")
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
    names, X = _design(ast, quad.coords, quad.marks, covs, by_type)

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
            marks = _impute_marks(self.pattern, coords)
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


def _margin_cells(nd, default: int) -> int:
    """Cells per axis of a ``sep_fit`` margin: ``nd``, or the default."""
    if nd is None:
        return default
    if not _positive_int(nd):
        raise ValueError(f"sep_fit nd must be one positive integer, got {nd!r}")
    return int(nd)


def sep_fit(
    pattern: PointPattern,
    spaceformula="~1",
    timeformula="~1",
    nd=None,
    seed: Optional[int] = 0,
) -> SeparableFit:
    """Fit a separable model: independent spatial and temporal margins.

    The spatial margin is fitted by 2-d cubature on (x, y) (1-d along the
    arc on networks), the temporal margin by 1-d cubature on t, both from
    the grid builder of ``make_quadrature``, and the product is rescaled so
    its integral equals the number of events.  ``nd`` is one positive
    integer k: k x k jittered spatial cells (k cells at the centres along
    the arc on a network) and k jittered time cells.  By default k is
    ceil(sqrt(4n)) spatially on a window, and 4n along the arc and in time.
    Mark variables at dummy locations copy the nearest data event.
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
    w, iv, net = pattern.window, pattern.interval, pattern.network

    def margin(ast, coords, weights):
        design = build_design(ast, coords, _with_dummy_marks(pattern, coords[n:]))
        y = (np.arange(len(coords)) < n) / weights
        res = fit_glm(design.matrix, y, weights, names=design.names, tol=1e-12)
        return design, res

    # spatial margin
    if net is None:
        side = _margin_cells(nd, max(2, math.ceil(math.sqrt(4.0 * n))))
        dpos, cells = _grid(
            pattern.coords[:, :2], (w.x0, w.y0), (w.width, w.height), (side, side), rng
        )
        s_weights = _counting_weights(cells, side * side, w.area)
    else:
        ns = _margin_cells(nd, max(2, 4 * n))
        arc = net.arc_position(pattern.net_seg, pattern.net_off)
        pos, cells = _grid(arc[:, None], (0.0,), (net.total_length,), (ns,))
        s_weights = _counting_weights(cells, ns, net.total_length)
        dpos = net.segment_point(*net.location_at(pos[:, 0]))
    s_xy = np.vstack([pattern.coords[:, :2], dpos])
    s_design, s_res = margin(
        s_ast, np.column_stack([s_xy, np.zeros(len(s_xy))]), s_weights
    )

    # temporal margin
    nt = _margin_cells(nd, max(2, 4 * n))
    pos, cells = _grid(pattern.t[:, None], (iv.t0,), (iv.length,), (nt,), rng)
    t_weights = _counting_weights(cells, nt, iv.length)
    t_all = np.concatenate([pattern.t, pos[:, 0]])
    t_design, t_res = margin(
        t_ast, np.column_stack([np.zeros((len(t_all), 2)), t_all]), t_weights
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
            q = np.percentile(self.coef[ok, j], [25, 50, 75]) if ok.any() else [np.nan] * 3
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
    Silverman's rule per axis (the two spatial values averaged); where an
    axis does not vary that rule gives 0 and the bandwidth must be given.

    The refits run ``fit_glm``'s IRLS, the module's one engine, over a
    block of events at a time in lockstep (the blocks of
    ``network._origin_blocks``, whose kernel rows are built in the block,
    so no (n x quadrature) table exists).  Where the local likelihood is
    well determined, the coefficients agree within 1e-9 relative with one
    whole-vector least-squares refit per event, the reference the tests
    keep.  Events whose kernel weights underflow to 0, whose step halving
    is exhausted, whose normal equations are singular or that do not
    converge in 50 steps get NaN coefficient rows, not an error; an
    aliased design gives NaN rows for every event.
    """
    ast = parse_formula(trend)
    n = pattern.n
    quad = make_quadrature(pattern, nd=nd, seed=seed)
    design = build_design(ast, quad.coords, quad.marks, covs)
    X = design.matrix
    p = X.shape[1]
    if n < p + 2:
        raise ValueError(f"need at least {p + 2} events to fit {p} coefficients")
    defaults = []
    if h_space is None:
        h_space = 0.5 * (_silverman(pattern.x) + _silverman(pattern.y))
        defaults.append(("h_space", h_space, "x and y"))
    if h_time is None:
        h_time = _silverman(pattern.t)
        defaults.append(("h_time", h_time, "t"))
    for name, h, axes in defaults:
        if h == 0:
            raise ValueError(
                f"bandwidths must be positive: Silverman's rule gives {name} = 0 "
                f"because the events do not vary in {axes}; pass {name}"
            )
    if not (0 < h_space < np.inf and 0 < h_time < np.inf):  # NaN fails too
        raise ValueError("bandwidths must be positive and finite")

    y = quad.is_data / quad.weights
    coef = np.full((n, p), np.nan)
    qx, qy, qt = quad.coords.T
    # positive weights cannot change the rank: one scan serves every event
    if not _aliased_columns(X, design.names, quad.weights):
        for rows in _origin_blocks(None, n, len(X)):
            d2s = (qx - pattern.x[rows, None]) ** 2 + (qy - pattern.y[rows, None]) ** 2
            d2t = (qt - pattern.t[rows, None]) ** 2
            w = quad.weights * np.exp(-d2s / (2.0 * h_space**2) - d2t / (2.0 * h_time**2))
            live = (w > 0).all(axis=1)  # rows whose kernel weights underflow stay NaN
            coef[rows.start + np.flatnonzero(live)] = _irls(X, y, w[live], tol)[0]
    converged = np.isfinite(coef).all(axis=1)
    row_of_event = np.empty(n, dtype=int)
    row_of_event[quad.data_index[quad.is_data]] = np.flatnonzero(quad.is_data)
    fitted = np.exp(np.sum(X[row_of_event] * coef, axis=1))
    return LocalPoissonFit(
        ast, design.names, coef, converged, float(h_space), float(h_time),
        fitted, pattern,
    )
