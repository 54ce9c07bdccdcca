"""Per-event reference for the local Poisson fits (test-only).

``locstppm`` advances every event's kernel-weighted IRLS together, a
block of events at a time.  This module keeps the plain rule it must
reproduce: one refit per event on the shared quadrature, by the
whole-vector least-squares IRLS of ``glm_reference.fit_glm``, with
weights multiplied by that event's Gaussian kernel row.  An event whose
kernel weights underflow to 0, or whose refit raises ``FitError``, gets
a NaN row.  ``per_event_fits`` takes what ``locstppm`` takes, with the
bandwidths given, and returns (coef, converged).
"""

import numpy as np

from stpoint import FitError, build_design, make_quadrature, parse_formula

from glm_reference import fit_glm


def per_event_fits(pattern, trend, h_space, h_time, covs=None, nd=None, seed=0, tol=1e-10):
    """Coefficients (n, p) and converged flags (n,) of one refit per event."""
    quad = make_quadrature(pattern, nd=nd, seed=seed)
    design = build_design(parse_formula(trend), quad.coords, quad.marks, covs)
    y = quad.is_data / quad.weights
    qx, qy, qt = quad.coords.T
    coef = np.full((pattern.n, design.matrix.shape[1]), np.nan)
    converged = np.zeros(pattern.n, dtype=bool)
    for i in range(pattern.n):
        d2s = (qx - pattern.x[i]) ** 2 + (qy - pattern.y[i]) ** 2
        d2t = (qt - pattern.t[i]) ** 2
        wi = quad.weights * np.exp(-d2s / (2.0 * h_space**2) - d2t / (2.0 * h_time**2))
        if not (wi > 0).all():
            continue
        try:
            res = fit_glm(design.matrix, y, wi, names=design.names, tol=tol)
        except FitError:
            continue
        coef[i] = res.coef
        converged[i] = True
    return coef, converged
