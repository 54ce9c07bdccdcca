"""Lockstep local Poisson fits against one ``fit_glm`` refit per event.

``locstppm`` advances a block of events' IRLS together and solves each
step through stacked normal equations, so its coefficients cannot equal a
lone ``fit_glm`` refit (a least-squares factorisation) bit for bit.  The
tolerance is fixed from float64 rounding before looking at results:
|coef - refit| <= 1e-9 max(1, |refit|).  The converged flags must be
equal, on bandwidths where every kernel row is positive and on bandwidths
where most rows underflow, whatever the block budget, and where steps
need halving.

The cases are local fits whose likelihood is well determined.  Where it
is nearly flat (X'WX with eigenvalues near 1e-10 and coefficients in the
hundreds, as "~x+y+t" gives at bandwidths near 0.05 with n = 100), the
score test can stop the two iterations at different points of the flat
valley, and one may converge where the other halves in vain.
"""

import numpy as np
import pytest

from stpoint import (
    FitError,
    IntensitySpec,
    SpatialWindow,
    TimeInterval,
    locstppm,
    sim_poisson,
)
from stpoint import fit, network

from glm_reference import fit_glm
from local_fit_reference import per_event_fits

TOL = 1e-9
UNIT_W, UNIT_T = SpatialWindow(0, 1, 0, 1), TimeInterval(0, 1)


def assert_agrees(got, coef, converged):
    assert np.array_equal(np.isfinite(got).all(axis=1), converged)
    assert np.isnan(got[~converged]).all()
    want = coef[converged]
    assert np.all(np.abs(got[converged] - want) <= TOL * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("cells", [1, 7, network._CELLS])
@pytest.mark.parametrize("trend", ["~1", "~x", "~x+y+t"])
@pytest.mark.parametrize("h", [0.2, 0.03])
def test_local_fits_match_per_event_refits(trend, h, cells, monkeypatch):
    # at h = 0.03 the kernel rows of 72 of the 94 events underflow, and
    # one "~x+y+t" refit stops at the iteration cap
    pat = sim_poisson(100.0, window=UNIT_W, interval=UNIT_T, seed=2)
    coef, converged = per_event_fits(pat, trend, h, h)
    assert converged.sum() == (94 if h == 0.2 else 21 if trend == "~x+y+t" else 22)
    monkeypatch.setattr(network, "_CELLS", cells)
    got = locstppm(pat, trend, h_space=h, h_time=h)
    assert np.array_equal(got.converged, converged)
    assert_agrees(got.coef, coef, converged)


@pytest.mark.parametrize("cells", [1, network._CELLS])
def test_default_bandwidth_fits_match_per_event_refits(cells, monkeypatch):
    pat = sim_poisson(IntensitySpec.loglinear("~x", [4.0, 1.0]), window=UNIT_W, interval=UNIT_T, seed=4)
    monkeypatch.setattr(network, "_CELLS", cells)
    lf = locstppm(pat, "~x", nd=(6, 6, 6), seed=1)
    assert lf.converged.all()
    assert_agrees(lf.coef, *per_event_fits(pat, "~x", lf.h_space, lf.h_time, nd=(6, 6, 6), seed=1))


def test_aliased_design_gives_nan_rows():
    pat = sim_poisson(100.0, window=UNIT_W, interval=UNIT_T, seed=2)
    lf = locstppm(pat, "~x + I(x)", h_space=0.2, h_time=0.2)
    coef, converged = per_event_fits(pat, "~x + I(x)", 0.2, 0.2)
    assert not converged.any()
    assert_agrees(lf.coef, coef, converged)


@pytest.mark.parametrize("seed", [199, 31])
def test_step_halving_follows_fit_glm(seed):
    # steep log-linear counts (up to 1e11) make IRLS overshoot: at seed 199
    # one row needs 3 halvings in a step and converges, at seed 31 one row
    # exhausts its 30 halvings, as fit_glm's does (DivergenceError)
    rng = np.random.default_rng(seed)
    x = rng.random(60)
    X = np.column_stack([np.ones(60), x])
    y = rng.poisson(np.exp(-3.0 + rng.uniform(5.0, 40.0) * x)).astype(float)
    w = rng.uniform(0.1, 1.0, (3, 60))
    got = fit._irls(X, y, w, 1e-10)[0]
    want = np.full(got.shape, np.nan)
    for row, wi in enumerate(w):
        try:
            want[row] = fit_glm(X, y, wi, tol=1e-10).coef
        except FitError:
            pass
    assert_agrees(got, want, np.isfinite(want).all(axis=1))
    assert np.isnan(got).any() == (seed == 31)
