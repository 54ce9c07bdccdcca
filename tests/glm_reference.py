"""Whole-vector least-squares IRLS, the reference for ``fit_glm`` (test-only).

``fit_glm`` runs the lockstep IRLS engine of ``stpoint.fit``: stacked
normal equations, a whole-vector first step and Newton increments after
it.  This module keeps the plain loop it replaced, unchanged: each step
solves the weighted least-squares problem for the whole new coefficient
vector through ``np.linalg.lstsq``, halving the step while the deviance
worsens.  Tests compare the engine against it, so that the per-event
oracles of the local fits do not compare the engine with itself.
"""

import numpy as np

from stpoint import DivergenceError, FitError, GlmResult, RankDeficiencyError
from stpoint.fit import _aliased_columns


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
