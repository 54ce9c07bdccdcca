"""Single-start Nelder-Mead written as a plain scalar loop, for tests.

The package runs its simplex searches in lockstep over rows
(``stpoint.optimize._lockstep``).  This is the one-start loop it must
reproduce bit for bit: the same reflection, expansion, contraction and
shrink rules, box projection, stable vertex order and diameter test.
"""

import numpy as np

ALPHA, GAMMA, RHO, SIGMA = 1.0, 2.0, 0.5, 0.5


def _clip(x, lower, upper):
    if lower is None and upper is None:
        return x
    return np.clip(x, lower, upper)


def scalar_nelder_mead(fn, x0, step=0.5, bounds=None, diam_tol=1e-8, max_iter=2000):
    """Returns (x, fun, n_iter, converged)."""
    x0 = np.asarray(x0, dtype=float)
    ndim = len(x0)
    lower = upper = None
    if bounds is not None:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
        x0 = _clip(x0, lower, upper)

    simplex = [x0]
    for k in range(ndim):
        p = x0.copy()
        # step down where the projected start sits on the upper bound
        p[k] += -step if upper is not None and x0[k] >= upper[k] else step
        simplex.append(_clip(p, lower, upper))
    simplex = np.array(simplex)
    values = np.array([fn(p) for p in simplex])

    n_iter = 0
    while n_iter < max_iter:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]

        spread = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
        scale = max(1.0, float(np.linalg.norm(simplex[0])))
        if spread < diam_tol * scale:
            return simplex[0], float(values[0]), n_iter, True

        n_iter += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = _clip(centroid + ALPHA * (centroid - worst), lower, upper)
        f_r = fn(reflected)
        if f_r < values[0]:
            expanded = _clip(centroid + GAMMA * (reflected - centroid), lower, upper)
            f_e = fn(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = _clip(centroid + RHO * (reflected - centroid), lower, upper)
            else:
                contracted = _clip(centroid + RHO * (worst - centroid), lower, upper)
            f_c = fn(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                for k in range(1, ndim + 1):
                    simplex[k] = _clip(
                        simplex[0] + SIGMA * (simplex[k] - simplex[0]), lower, upper
                    )
                    values[k] = fn(simplex[k])

    order = np.argsort(values, kind="stable")
    return simplex[order[0]], float(values[order[0]]), n_iter, False
