"""Derivative-free minimisation by the simplex method.

Classic Nelder-Mead with reflection 1, expansion 2, contraction 0.5 and
shrink 0.5, plus optional box constraints handled by projecting candidate
points onto the box.  Convergence is declared when the simplex diameter
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
    if lower is None and upper is None:
        return x
    return np.clip(x, lower, upper)


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
    n_iter = np.zeros(E, dtype=np.int64)

    x_out = np.empty((E, ndim))
    f_out = np.empty(E)
    n_out = np.zeros(E, dtype=np.int64)
    c_out = np.zeros(E, dtype=bool)
    while True:
        order = np.argsort(values, axis=1, kind="stable")
        ix = np.arange(len(rows))[:, None]
        simplex, values = simplex[ix, order], values[ix, order]

        # the diameter test: spread of the simplex around its best vertex,
        # relative to max(1, |best|); |best| comes from a per-row dot
        # product, rounded as np.linalg.norm rounds a single vector
        best = simplex[:, :1]
        spread = np.linalg.norm(simplex[:, 1:] - best, axis=2).max(axis=1)
        scale = np.maximum(1.0, np.sqrt((best @ best.transpose(0, 2, 1))[:, 0, 0]))
        capped = n_iter >= max_iter
        converged = ~capped & (spread < diam_tol * scale)
        done = capped | converged
        if done.any():
            out = rows[done]
            x_out[out] = simplex[done, 0]
            f_out[out] = values[done, 0]
            n_out[out] = n_iter[done]
            c_out[out] = converged[done]
            live = ~done
            rows, simplex, values, n_iter = rows[live], simplex[live], values[live], n_iter[live]
        if not len(rows):
            break

        n_iter += 1
        centroid = simplex[:, :-1].mean(axis=1)
        worst = simplex[:, -1]
        reflected = _clip(centroid + ALPHA * (centroid - worst), lower, upper)
        f_r = fn(rows, reflected)
        new_x, new_f = reflected.copy(), f_r.copy()
        expand = f_r < values[:, 0]
        replace = expand | (f_r < values[:, -2])  # rows that skip contraction
        if expand.any():
            c = centroid[expand]
            expanded = _clip(c + GAMMA * (reflected[expand] - c), lower, upper)
            f_e = fn(rows[expand], expanded)
            better = f_e < f_r[expand]
            at = np.flatnonzero(expand)[better]
            new_x[at], new_f[at] = expanded[better], f_e[better]

        contract = ~replace
        if contract.any():
            c, f_rc, f_w = centroid[contract], f_r[contract], values[contract, -1]
            towards = np.where((f_rc < f_w)[:, None], reflected[contract], worst[contract])
            contracted = _clip(c + RHO * (towards - c), lower, upper)
            f_c = fn(rows[contract], contracted)
            # min(f_r, f_worst) with Python's min semantics: f_r unless
            # f_worst is smaller
            accept = f_c < np.where(f_w < f_rc, f_w, f_rc)
            at = np.flatnonzero(contract)
            new_x[at[accept]], new_f[at[accept]] = contracted[accept], f_c[accept]
            replace[at[accept]] = True

            shrink = at[~accept]
            if len(shrink):
                best, rest = simplex[shrink, :1], simplex[shrink, 1:]
                rest = _clip(best + SIGMA * (rest - best), lower, upper)
                f_s = fn(np.repeat(rows[shrink], ndim), rest.reshape(-1, ndim))
                simplex[shrink, 1:], values[shrink, 1:] = rest, f_s.reshape(-1, ndim)

        simplex[replace, -1] = new_x[replace]
        values[replace, -1] = new_f[replace]

    return x_out, f_out, n_out, c_out


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0,
    step: float = 0.5,
    bounds: Optional[Tuple] = None,
    diam_tol: float = 1e-8,
    max_iter: int = 2000,
) -> MinimizeResult:
    """Minimise fn from x0; ``bounds`` is (lower, upper) arrays or None."""
    x0 = np.asarray(x0, dtype=float)
    lower = upper = None
    if bounds is not None:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)

    def rows_fn(rows, points):
        return np.array([fn(p) for p in points], dtype=float)

    x, fun, n_iter, converged = _lockstep(
        rows_fn, x0[None, :], step, lower, upper, diam_tol, max_iter
    )
    return MinimizeResult(x[0], float(fun[0]), int(n_iter[0]), bool(converged[0]))
