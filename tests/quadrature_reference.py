"""Hand-kept counting-weight quadratures (test-only reference).

The package builds every counting-weight scheme through one grid helper
and one weight helper.  This module keeps the five schemes they replace,
written out one by one, with the dense nearest-event mark imputation:

* ``make_quadrature``: the planar (x, y, t) grid with jittered dummies and
  the network (arc, t) grid with dummies at the cell centres, the default
  and enlarge-with-warning rules for ``nd`` and the ``by_type`` replicas;
* ``sep_fit``: the 2-d planar or 1-d arc spatial margin and the jittered
  time margin, each fitted by the package's weighted GLM;
* ``design_with_types`` and ``predict_design``: the design builders of the
  fit and of the prediction.

The package must reproduce them bit for bit, except that network dummy
coordinates may move by rounding: the cell centres are placed as
``lo + (k + 0.5) * (L / n)`` where this copy's ``make_quadrature`` writes
``(k + 0.5) / n * L``.
"""

import math
import warnings

import numpy as np

from stpoint import MarkColumn, Quadrature, SeparableFit, build_design, fit_glm
from stpoint import parse_formula


def impute_marks(pattern, query, scale):
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


def default_side(n):
    return max(2, math.ceil((4.0 * n) ** (1.0 / 3.0)))


def planar_dummies(pattern, nd, rng):
    nx, ny, nt = nd
    w, iv = pattern.window, pattern.interval
    sizes = np.array([w.width / nx, w.height / ny, iv.length / nt])
    origin = np.array([w.x0, w.y0, iv.t0])
    kk, jj, ii = np.meshgrid(np.arange(nt), np.arange(ny), np.arange(nx), indexing="ij")
    cells = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()]).astype(float)
    jitter = rng.random(cells.shape)
    return origin + (cells + jitter) * sizes


def planar_cells(pattern, nd, coords):
    nx, ny, nt = nd
    w, iv = pattern.window, pattern.interval
    ix = np.clip(((coords[:, 0] - w.x0) / w.width * nx).astype(int), 0, nx - 1)
    iy = np.clip(((coords[:, 1] - w.y0) / w.height * ny).astype(int), 0, ny - 1)
    it = np.clip(((coords[:, 2] - iv.t0) / iv.length * nt).astype(int), 0, nt - 1)
    return (it * ny + iy) * nx + ix


def make_quadrature(pattern, nd=None, seed=0, by_type=None):
    n = pattern.n
    if n == 0:
        raise ValueError("empty pattern")
    rng = np.random.default_rng(seed)

    if pattern.network is None:
        if nd is None:
            side = default_side(n)
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
            side = default_side(n)
            nd = (side, side, side)
        dummies = planar_dummies(pattern, nd, rng)
        ncell = math.prod(nd)
        cellvol = pattern.volume / ncell
    else:
        net = pattern.network
        if nd is None:
            nt = default_side(n)
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
            nt = default_side(n)
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
    dmarks = impute_marks(pattern, dummies, scale)

    if pattern.network is None:
        data_cells = planar_cells(pattern, nd, data)
        dummy_cells = planar_cells(pattern, nd, dummies)
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


def margin_quadrature(values, lo, hi, nd, rng, jitter=True):
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


def sep_fit(pattern, spaceformula="~1", timeformula="~1", nd=None, seed=0):
    s_ast = parse_formula(spaceformula)
    t_ast = parse_formula(timeformula)
    n = pattern.n
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
    else:
        net = pattern.network
        ns = max(2, 4 * n) if nd is None else int(nd)
        arc_data = net.arc_position(pattern.net_seg, pattern.net_off)
        pos, wd, wdum = margin_quadrature(
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
    s_isdata = np.concatenate([np.ones(n, bool), np.zeros(len(s_coords) - n, bool)])
    s_marks = {}
    if pattern.marks:
        dmarks = impute_marks(pattern, s_coords[~s_isdata], scale)
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
        s_design.matrix, s_isdata / s_weights, s_weights,
        names=s_design.names, tol=1e-12,
    )

    # temporal margin
    ndt = max(2, 4 * n) if nd is None else int(nd)
    pos, wd, wdum = margin_quadrature(pattern.t, iv.t0, iv.t1, ndt, rng)
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
        dmarks = impute_marks(pattern, t_coords[n:], scale)
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
        t_design.matrix, t_isdata / t_weights, t_weights,
        names=t_design.names, tol=1e-12,
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


def design_with_types(quad, trend, covs):
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


def predict_design(model, coords, marks):
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
