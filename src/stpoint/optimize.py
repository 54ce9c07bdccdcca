"""Derivative-free minimisation by the simplex method.

Classic Nelder-Mead with reflection 1, expansion 2, contraction 0.5 and
shrink 0.5, plus optional box constraints handled by projecting candidate
points onto the box.  The projection is ``np.maximum`` against the lower
bound, then ``np.minimum`` against the upper one: the values ``np.clip``
gives, without its Python-level checks, and an infinite bound leaves its
side of an axis open.  (Only the sign of a zero can differ, on a bound
of 0 or -0, as it already does between ``np.clip`` calls on arrays of
different sizes.)  Convergence is declared when the simplex diameter
falls below a relative tolerance; an iteration cap returns the best point
found with ``converged=False``.

Searches run in lockstep over rows: ``_lockstep`` advances E independent
starts together, taking every branch under a per-row mask and dropping a
row from the active set once it converges or reaches the cap.  Each row
follows exactly the steps it would take alone, so a batch gives the same
results, bit for bit, as E single runs; ``nelder_mead`` is the one-row
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["MinimizeResult", "nelder_mead"]

ALPHA = 1.0  # reflection
GAMMA = 2.0  # expansion
RHO = 0.5  # contraction
SIGMA = 0.5  # shrink


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    n_iter: int
    converged: bool


def _clip(x, lower, upper):
    if lower is None:
        return x
    return np.minimum(np.maximum(x, lower), upper)


def _lockstep(fn, x0, step, lower, upper, diam_tol, max_iter):
    """Nelder-Mead from every row of x0 (E, d), all rows advancing together.

    ``fn(rows, points)`` returns the objective at points (m, d), point k
    belonging to start rows[k].  Returns x (E, d), fun (E,), n_iter (E,)
    and converged (E,).
    """
    E, ndim = x0.shape
    x0 = _clip(x0, lower, upper)
    # the first simplex steps from the projected start, down on any axis
    # where that start sits on the upper bound
    steps = np.full(x0.shape, float(step))
    if upper is not None:
        steps[x0 >= upper] = -step
    simplex = np.repeat(x0[:, None, :], ndim + 1, axis=1)
    k = np.arange(ndim)
    simplex[:, k + 1, k] += steps
    simplex = _clip(simplex, lower, upper)
    rows = np.arange(E)
    values = fn(np.repeat(rows, ndim + 1), simplex.reshape(-1, ndim)).reshape(E, ndim + 1)

    x_out = np.empty((E, ndim))
    f_out = np.empty(E)
    n_out = np.zeros(E, dtype=np.int64)
    c_out = np.zeros(E, dtype=bool)
    # every live row has run the same n_iter iterations; masks become index
    # arrays through nonzero, which is cheaper than any() on a few rows
    n_iter = 0
    ix = np.arange(E)[:, None]
    while True:
        order = values.argsort(axis=1, kind="stable")
        simplex, values = simplex[ix, order], values[ix, order]

        if n_iter >= max_iter:
            # the cap is checked before the diameter test and ends every
            # live row, unconverged
            x_out[rows], f_out[rows], n_out[rows] = simplex[:, 0], values[:, 0], n_iter
            break
        # the diameter test: spread of the simplex around its best vertex,
        # relative to max(1, |best|).  The spread is np.linalg.norm's sum of
        # squares, rooted after the max (the root is monotone); |best|
        # comes from a per-row dot product, rounded as np.linalg.norm
        # rounds a single vector
        best = simplex[:, :1]
        d = simplex[:, 1:] - best
        spread = np.sqrt(np.maximum.reduce(np.add.reduce(d * d, axis=2), axis=1))
        scale = np.maximum(1.0, np.sqrt((best @ best.transpose(0, 2, 1))[:, 0, 0]))
        converged = spread < diam_tol * scale
        at = converged.nonzero()[0]
        if len(at):
            out = rows[at]
            x_out[out], f_out[out], n_out[out] = simplex[at, 0], values[at, 0], n_iter
            c_out[out] = True
            live = ~converged
            rows, simplex, values = rows[live], simplex[live], values[live]
            if not len(rows):
                break
            ix = ix[: len(rows)]

        n_iter += 1
        # the mean as ndarray.mean computes it
        centroid = np.add.reduce(simplex[:, :-1], axis=1) / ndim
        worst = simplex[:, -1]
        reflected = _clip(centroid + ALPHA * (centroid - worst), lower, upper)
        f_r = fn(rows, reflected)
        new_x, new_f = reflected.copy(), f_r.copy()
        expand = f_r < values[:, 0]
        replace = expand | (f_r < values[:, -2])  # rows that skip contraction
        at = expand.nonzero()[0]
        if len(at):
            c = centroid[at]
            expanded = _clip(c + GAMMA * (reflected[at] - c), lower, upper)
            f_e = fn(rows[at], expanded)
            better = f_e < f_r[at]
            at = at[better]
            new_x[at], new_f[at] = expanded[better], f_e[better]

        at = (~replace).nonzero()[0]
        if len(at):
            c, f_rc, f_w = centroid[at], f_r[at], values[at, -1]
            towards = np.where((f_rc < f_w)[:, None], reflected[at], worst[at])
            contracted = _clip(c + RHO * (towards - c), lower, upper)
            f_c = fn(rows[at], contracted)
            # min(f_r, f_worst) with Python's min semantics: f_r unless
            # f_worst is smaller
            accept = f_c < np.where(f_w < f_rc, f_w, f_rc)
            new_x[at[accept]], new_f[at[accept]] = contracted[accept], f_c[accept]
            replace[at[accept]] = True

            shrink = at[~accept]
            if len(shrink):
                best, rest = simplex[shrink, :1], simplex[shrink, 1:]
                rest = _clip(best + SIGMA * (rest - best), lower, upper)
                f_s = fn(np.repeat(rows[shrink], ndim), rest.reshape(-1, ndim))
                simplex[shrink, 1:], values[shrink, 1:] = rest, f_s.reshape(-1, ndim)

        at = replace.nonzero()[0]
        simplex[at, -1], values[at, -1] = new_x[at], new_f[at]

    return x_out, f_out, n_out, c_out


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0,
    step: float = 0.5,
    bounds: Optional[Tuple] = None,
    diam_tol: float = 1e-8,
    max_iter: int = 2000,
) -> MinimizeResult:
    """Minimise fn from x0; ``bounds`` is (lower, upper) arrays or None.

    x0 is a finite 1-d start; ``bounds`` holds a lower and an upper array
    of x0's shape, lower <= upper, where -inf and inf leave an axis open.
    step must be finite and nonzero, diam_tol finite and nonnegative, and
    max_iter a nonnegative integer.  Anything else raises a ValueError
    naming the argument.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or not len(x0) or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be a finite, non-empty 1-d array, got {x0!r}")
    lower = upper = None
    if bounds is not None:
        if len(bounds) != 2 or any(b is None for b in bounds):
            raise ValueError(f"bounds must be a (lower, upper) pair of arrays, got {bounds!r}")
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
        if lower.shape != x0.shape or upper.shape != x0.shape:
            raise ValueError(
                f"bounds must match x0's shape {x0.shape}, got {lower.shape} and {upper.shape}"
            )
        # written so that NaN fails too
        if not (lower <= upper).all():
            raise ValueError("bounds must have lower <= upper on every axis, with no NaN")
    if not (math.isfinite(step) and step != 0):
        raise ValueError(f"step must be finite and nonzero, got {step!r}")
    # written so that NaN fails too
    if not 0 <= diam_tol < math.inf:
        raise ValueError(f"diam_tol must be finite and nonnegative, got {diam_tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter!r}")

    def rows_fn(rows, points):
        return np.array([fn(p) for p in points], dtype=float)

    x, fun, n_iter, converged = _lockstep(
        rows_fn, x0[None, :], step, lower, upper, diam_tol, max_iter
    )
    return MinimizeResult(x[0], float(fun[0]), int(n_iter[0]), bool(converged[0]))
