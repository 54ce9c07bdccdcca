"""Nelder-Mead simplex search: single starts and lockstep batches.

Every row of a lockstep batch, and every ``nelder_mead`` run, must follow
the plain scalar loop of ``nelder_mead_reference`` bit for bit: on test
functions with ties and NaN regions, and on the minimum contrast
objective of all three covariance families.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import COV_FAMILIES, cov_eval, min_contrast, nelder_mead
from stpoint import lgcp
from stpoint.lgcp import _min_contrast_batch
from stpoint.optimize import _lockstep
from stpoint.summaries import SummarySurface

from nelder_mead_reference import scalar_nelder_mead


def rosenbrock(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def test_converges_on_a_quadratic():
    centre = np.array([0.3, -1.2, 2.5])
    res = nelder_mead(lambda x: float(np.sum((x - centre) ** 2)), np.zeros(3))
    assert res.converged
    assert res.n_iter < 2000
    assert np.abs(res.x - centre).max() < 1e-6
    assert res.fun < 1e-12


def test_converges_on_rosenbrock():
    res = nelder_mead(rosenbrock, [-1.2, 1.0])
    assert res.converged
    assert np.abs(res.x - 1.0).max() < 1e-5
    assert res.fun < 1e-10


@pytest.mark.parametrize("x0", [[0.0, 0.0], [0.9, -0.4], [5.0, 5.0]])
def test_result_stays_inside_bounds(x0):
    lower, upper = np.array([-1.0, -0.5]), np.array([1.0, 0.25])
    # the unconstrained minimum (3, -2) lies outside the box
    res = nelder_mead(
        lambda x: float((x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2), x0, bounds=(lower, upper)
    )
    assert np.all(res.x >= lower) and np.all(res.x <= upper)
    # a start outside the box is projected onto its corner (1, 0.25); the
    # first simplex steps down from there instead of collapsing onto it
    assert res.converged
    assert res.x == pytest.approx([1.0, -0.5], abs=1e-6)
    assert res.fun == pytest.approx(6.25, abs=1e-10)


@pytest.mark.parametrize("x0", [[0.0, 0.0], [-1.0, -1.0], [0.3, 0.3], [0.0, 0.3], [2.0, -2.0]])
def test_box_narrower_than_step(x0):
    # the box is 0.3 wide and the first step 0.5: a start on or below the
    # lower bound steps up onto the upper one, a start on or above the upper
    # bound steps down onto the lower one, so the first simplex spans the
    # box and the search moves off the projected start
    lower, upper = np.zeros(2), np.full(2, 0.3)

    def fn(x):
        return float((x[0] - 0.1) ** 2 + (x[1] - 0.2) ** 2)

    res = nelder_mead(fn, x0, bounds=(lower, upper))
    assert np.all(res.x >= lower) and np.all(res.x <= upper)
    assert res.converged and res.n_iter > 0
    assert res.fun < fn(np.clip(x0, lower, upper))


@pytest.mark.parametrize("max_iter", [0, 1, 7])
def test_iteration_cap(max_iter):
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_iter=max_iter)
    assert not res.converged
    assert res.n_iter == max_iter
    # the best vertex of the simplex: no worse than the start
    assert res.fun <= rosenbrock([-1.2, 1.0])


def test_cap_is_checked_before_convergence():
    # a search that converges after n iterations, capped at n, stops there
    # unconverged: the cap ends the loop before the diameter test
    full = nelder_mead(rosenbrock, [-1.2, 1.0])
    capped = nelder_mead(rosenbrock, [-1.2, 1.0], max_iter=full.n_iter)
    assert full.converged and not capped.converged
    assert capped.n_iter == full.n_iter
    assert np.array_equal(capped.x, full.x) and capped.fun == full.fun


def test_deterministic():
    a = nelder_mead(rosenbrock, [-1.2, 1.0], step=0.3)
    b = nelder_mead(rosenbrock, [-1.2, 1.0], step=0.3)
    assert np.array_equal(a.x, b.x)
    assert (a.fun, a.n_iter, a.converged) == (b.fun, b.n_iter, b.converged)


def bumpy(x):
    """A multimodal test function."""
    return float(np.sum((x - 0.4) ** 2) + 0.3 * np.sum(np.sin(3.0 * x)) + 0.05 * np.sum(x) ** 4)


def plateau(x):
    """Piecewise flat, so vertex values often tie."""
    return float(np.floor(4.0 * bumpy(x)) / 4.0)


def nan_above(x):
    """NaN above the plane sum(x) = 0.25, so comparisons against NaN pick
    branches too; a start just below it has NaN at every other vertex."""
    return float("nan") if np.sum(x) > 0.25 else bumpy(x)


def same_run(got, want):
    x, fun, n_iter, converged = want
    assert np.array_equal(got[0], x)
    assert got[1] == fun or (math.isnan(got[1]) and math.isnan(fun))
    assert (got[2], got[3]) == (n_iter, converged)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_starts=st.integers(1, 8),
    box=st.sampled_from([None, "wide", "narrow"]),
    max_iter=st.sampled_from([3, 40, 2000]),
    fn=st.sampled_from([bumpy, plateau, nan_above]),
)
def test_lockstep_rows_equal_single_runs(seed, n_starts, box, max_iter, fn):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-3.0, 3.0, (n_starts, 3))
    starts[0] += (rng.uniform(-0.25, 0.25) - starts[0].sum()) / 3.0  # near the NaN plane
    # the narrow box is thinner than the first step on every axis
    bounds = {
        None: None,
        "wide": (-np.full(3, 2.0), np.array([2.0, 1.0, 0.5])),
        "narrow": (np.array([-0.2, 0.0, 0.1]), np.array([0.1, 0.3, 0.2])),
    }[box]
    lower, upper = bounds if bounds is not None else (None, None)

    def rows_fn(rows, points):
        return np.array([fn(p) for p in points])

    batch = _lockstep(rows_fn, starts, 0.5, lower, upper, 1e-8, max_iter)
    for k, x0 in enumerate(starts):
        want = scalar_nelder_mead(fn, x0, bounds=bounds, max_iter=max_iter)
        same_run([a[k] for a in batch], want)
        one = nelder_mead(fn, x0, bounds=bounds, max_iter=max_iter)
        same_run((one.x, one.fun, one.n_iter, one.converged), want)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_starts=st.integers(1, 6),
    box=st.sampled_from(["half-open", "open"]),
    max_iter=st.sampled_from([3, 40, 2000]),
    fn=st.sampled_from([bumpy, plateau, nan_above]),
)
def test_lockstep_projects_onto_infinite_bounds_as_clip_does(seed, n_starts, box, max_iter, fn):
    # the lockstep projects with np.maximum and np.minimum, the reference
    # with np.clip; an infinite bound leaves its side of an axis open
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-3.0, 3.0, (n_starts, 3))
    lower, upper = {
        "half-open": (np.array([-np.inf, -1.5, -np.inf]), np.array([0.5, np.inf, np.inf])),
        "open": (np.full(3, -np.inf), np.full(3, np.inf)),
    }[box]

    def rows_fn(rows, points):
        return np.array([fn(p) for p in points])

    batch = _lockstep(rows_fn, starts, 0.5, lower, upper, 1e-8, max_iter)
    for k, x0 in enumerate(starts):
        want = scalar_nelder_mead(fn, x0, bounds=(lower, upper), max_iter=max_iter)
        same_run([a[k] for a in batch], want)
        assert np.all((lower <= batch[0][k]) & (batch[0][k] <= upper))


def quadratic(x):
    return float(np.sum(x**2))


BAD_INPUTS = {
    "lower-none": ({"bounds": (None, [1.0, 1.0])}, "bounds"),
    "bounds-not-a-pair": ({"bounds": ([0.0, 0.0],)}, "bounds"),
    "lower-above-upper": ({"bounds": ([1.0, 1.0], [0.0, 0.0])}, "bounds"),
    "nan-bound": ({"bounds": ([0.0, math.nan], [1.0, 1.0])}, "bounds"),
    "bounds-broadcast": ({"bounds": ([0.0], [1.0])}, "bounds"),
    "scalar-bounds": ({"bounds": (0.0, 1.0)}, "bounds"),
    "nan-x0": ({"x0": [math.nan, 1.0]}, "x0"),
    "inf-x0": ({"x0": [math.inf, 0.0]}, "x0"),
    "2d-x0": ({"x0": [[0.3, 0.4]]}, "x0"),
    "0d-x0": ({"x0": 0.3}, "x0"),
    "empty-x0": ({"x0": []}, "x0"),
    "zero-step": ({"step": 0.0}, "step"),
    "nan-step": ({"step": math.nan}, "step"),
    "nan-diam-tol": ({"diam_tol": math.nan}, "diam_tol"),
    "negative-diam-tol": ({"diam_tol": -1e-8}, "diam_tol"),
    "negative-max-iter": ({"max_iter": -1}, "max_iter"),
    "float-max-iter": ({"max_iter": 10.5}, "max_iter"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_nelder_mead_refuses_bad_inputs_by_name(case):
    kwargs, name = BAD_INPUTS[case]
    kwargs = {"x0": [0.3, 0.4], **kwargs}
    with pytest.raises(ValueError, match=name):
        nelder_mead(quadratic, **kwargs)


def test_nelder_mead_accepts_infinite_bounds():
    lower, upper = np.array([-np.inf, 0.1]), np.array([np.inf, np.inf])
    res = nelder_mead(quadratic, [0.3, 0.4], bounds=(lower, upper))
    assert res.converged
    assert res.x == pytest.approx([0.0, 0.1], abs=1e-6)


def scalar_cov(family, sigma, alpha, beta, extras, r, h):
    """The covariance families with Python float parameters."""
    sigma, alpha, beta = float(sigma), float(alpha), float(beta)
    if family == "separable-exponential":
        return sigma**2 * np.exp(-r / alpha) * np.exp(-h / beta)
    if family == "gneiting":
        denom = 1.0 + h / beta
        return sigma**2 / denom * np.exp(-(r / alpha) / denom ** (extras["delta"] / 2.0))
    k1, k2, k3 = (extras.get(k, d) for k, d in (("kappa1", 2.0), ("kappa2", 2.0), ("kappa3", 1.5)))
    return sigma**2 * (1.0 + (r / alpha) ** k1 + (h / beta) ** k2) ** (-k3)


@pytest.mark.parametrize("family", COV_FAMILIES)
def test_array_parameters_round_as_scalar_ones(family):
    # the batched objective evaluates covariances with array parameters;
    # they must give the bits of Python-float parameters, sigma**2 included
    rng = np.random.default_rng(12)
    sigma, alpha, beta = np.exp(rng.uniform(-18.0, 18.0, (3, 10000)))
    extras = {"gneiting": {"delta": 0.5}}.get(family, {})
    r, h = np.array([[0.05]]), np.array([[0.2]])
    shape = lgcp._shape_params(family, extras)
    stacked = (v[:, None, None] for v in (sigma, alpha, beta))
    got = lgcp._cov(family, shape, *stacked, r, h)[:, 0, 0]
    want = [scalar_cov(family, *p, extras, r, h)[0, 0] for p in zip(sigma, alpha, beta)]
    assert np.array_equal(got, want)


def lone_fit(surface, family, init, extras, q=0.5, weights=None):
    """Minimum contrast written out per start: scalar covariances, one
    single-start simplex search per jitter."""
    rs, hs, ghat = surface.rs, surface.hs, surface.est
    r_grid = rs[:, None] * np.ones_like(hs)[None, :]
    h_grid = np.ones_like(rs)[:, None] * hs[None, :]
    ghat_q = ghat**q
    w = np.ones_like(ghat) if weights is None else weights

    def objective(logpsi):
        sigma, alpha, beta = np.exp(logpsi)
        c = scalar_cov(family, sigma, alpha, beta, extras, r_grid, h_grid)
        g = np.exp(np.minimum(c, 700.0))
        return float(np.sum(w * (ghat_q - g**q) ** 2))

    bound = math.log(1e8)
    mid = np.array([0.0, math.log(np.median(rs)), math.log(np.median(hs))])
    lo, hi = mid - bound, mid + bound
    x0 = np.log([init["sigma"], init["alpha"], init["beta"]])
    runs = [scalar_nelder_mead(objective, x0 + j, bounds=(lo, hi)) for j in (0.0, 0.5, -0.5)]
    best = runs[0]
    for r in runs[1:]:
        if r[1] < best[1]:
            best = r
    return best, sum(r[2] for r in runs)


NAMES = ("sigma", "alpha", "beta")


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(COV_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    n_surf=st.integers(1, 5),
)
def test_batched_min_contrast_equals_lone_fits(family, seed, n_surf):
    rng = np.random.default_rng(seed)
    rs = np.linspace(0.02, 0.3, 6)
    hs = np.linspace(0.03, 0.4, 5)
    r = rs[:, None] * np.ones(len(hs))[None, :]
    h = np.ones(len(rs))[:, None] * hs[None, :]
    extras = {"gneiting": {"delta": 0.5}, "iaco-cesare": {"kappa3": 2.0}}.get(family, {})
    ests = []
    for _ in range(n_surf):
        truth = dict(zip(NAMES, rng.uniform([0.2, 0.02, 0.02], [2.0, 0.4, 0.5])))
        model = np.exp(cov_eval(family, {**truth, **extras}, r, h))
        ests.append(np.maximum(model * (1.0 + 0.3 * rng.normal(size=model.shape)), 0.0))
    init = dict(zip(NAMES, rng.uniform([0.3, 0.01, 0.01], [3.0, 0.5, 0.5])))

    batch = _min_contrast_batch(rs, hs, np.array(ests), family, init=init, extras=extras)
    for est, got in zip(ests, batch):
        surface = SummarySurface(rs, hs, est, np.ones_like(est), "g")
        want, iters = lone_fit(surface, family, init, extras)
        assert [got.params[k] for k in NAMES] == list(np.exp(want[0]))
        assert got.contrast == want[1]
        assert (got.n_iter, got.converged) == (iters, want[3])
        assert got == min_contrast(surface, family=family, init=init, extras=extras)


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(COV_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    n_surf=st.integers(1, 4),
    q=st.sampled_from([0.25, 1.0]),
)
def test_batched_min_contrast_equals_lone_fits_at_other_q_and_weights(family, seed, n_surf, q):
    # the batched objective raises to q and weighs in place; the lone fit
    # writes both out, so a q or weight slip shows here
    rng = np.random.default_rng(seed)
    rs = np.linspace(0.02, 0.3, 6)
    hs = np.linspace(0.03, 0.4, 5)
    r = rs[:, None] * np.ones(len(hs))[None, :]
    h = np.ones(len(rs))[:, None] * hs[None, :]
    extras = {"gneiting": {"delta": 0.5}, "iaco-cesare": {"kappa3": 2.0}}.get(family, {})
    ests = []
    for _ in range(n_surf):
        truth = dict(zip(NAMES, rng.uniform([0.2, 0.02, 0.02], [2.0, 0.4, 0.5])))
        model = np.exp(cov_eval(family, {**truth, **extras}, r, h))
        ests.append(np.maximum(model * (1.0 + 0.3 * rng.normal(size=model.shape)), 0.0))
    weights = rng.uniform(0.1, 3.0, r.shape)
    init = dict(zip(NAMES, rng.uniform([0.3, 0.01, 0.01], [3.0, 0.5, 0.5])))

    batch = _min_contrast_batch(
        rs, hs, np.array(ests), family, q=q, weights=weights, init=init, extras=extras
    )
    for est, got in zip(ests, batch):
        surface = SummarySurface(rs, hs, est, np.ones_like(est), "g")
        want, iters = lone_fit(surface, family, init, extras, q=q, weights=weights)
        assert [got.params[k] for k in NAMES] == list(np.exp(want[0]))
        assert got.contrast == want[1]
        assert (got.n_iter, got.converged) == (iters, want[3])
        assert got == min_contrast(
            surface, family=family, q=q, weights=weights, init=init, extras=extras
        )
