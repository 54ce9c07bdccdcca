"""Log-Gaussian Cox processes: covariances, minimum contrast, simulation.

The minimum-contrast fitter is validated on noiseless surfaces built
directly from the covariance families (the optimum is then known), and
the simulator against moment identities of the log-normal mixing field.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stpoint import (
    COV_FAMILIES,
    SpatialWindow,
    SummaryConfig,
    TimeInterval,
    cov_eval,
    locstppm,
    min_contrast,
    second_order_global,
    second_order_local,
    sim_lgcp,
    sim_poisson,
    stlgcppm,
)
from stpoint.summaries import SummarySurface


def model_surface(family, params, rs, hs, extras=None):
    r = rs[:, None] * np.ones(len(hs))[None, :]
    h = np.ones(len(rs))[:, None] * hs[None, :]
    est = np.exp(cov_eval(family, {**params, **(extras or {})}, r, h))
    return SummarySurface(rs, hs, est, np.ones_like(est), "g")


@pytest.mark.parametrize("family", COV_FAMILIES)
def test_covariance_at_origin_is_variance(family):
    params = {"sigma": 1.7, "alpha": 0.3, "beta": 0.4}
    assert cov_eval(family, params, 0.0, 0.0) == pytest.approx(1.7**2, rel=1e-14)


def test_separable_exponential_e_folding():
    params = {"sigma": 2.0, "alpha": 0.25, "beta": 0.5}
    c = cov_eval("separable-exponential", params, 0.25, 0.0)
    assert c / cov_eval("separable-exponential", params, 0.0, 0.0) == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )
    c = cov_eval("separable-exponential", params, 0.0, 0.5)
    assert c / 4.0 == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_separability_identity():
    params = {"sigma": 1.3, "alpha": 0.2, "beta": 0.7}
    rng = np.random.default_rng(0)
    r = rng.uniform(0, 1, 10)
    h = rng.uniform(0, 1, 10)
    lhs = cov_eval("separable-exponential", params, r, h) * cov_eval(
        "separable-exponential", params, 0.0, 0.0
    )
    rhs = cov_eval("separable-exponential", params, r, 0.0) * cov_eval(
        "separable-exponential", params, 0.0, h
    )
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_gneiting_and_iaco_cesare_spot_values():
    params = {"sigma": 1.0, "alpha": 0.5, "beta": 0.5, "delta": 1.0}
    # at h = beta the time factor is 1/2 and the spatial range dilates by sqrt(2)
    want = 0.5 * math.exp(-(0.3 / 0.5) / math.sqrt(2.0))
    assert cov_eval("gneiting", params, 0.3, 0.5) == pytest.approx(want, rel=1e-12)
    params = {"sigma": 1.0, "alpha": 0.5, "beta": 0.5}
    want = (1.0 + (0.3 / 0.5) ** 2 + (0.1 / 0.5) ** 2) ** -1.5
    assert cov_eval("iaco-cesare", params, 0.3, 0.1) == pytest.approx(want, rel=1e-12)


def test_cov_eval_validation():
    good = {"sigma": 1.0, "alpha": 0.2, "beta": 0.2}
    with pytest.raises(ValueError, match="unknown covariance"):
        cov_eval("matern", good, 0.1, 0.1)
    with pytest.raises(ValueError):
        cov_eval("separable-exponential", {**good, "sigma": -1.0}, 0.1, 0.1)
    with pytest.raises(ValueError):
        cov_eval("separable-exponential", {**good, "alpha": 0.0}, 0.1, 0.1)
    with pytest.raises(ValueError, match="delta"):
        cov_eval("gneiting", {**good, "delta": 2.0}, 0.1, 0.1)
    with pytest.raises(ValueError, match="kappa"):
        cov_eval("iaco-cesare", {**good, "kappa1": -1.0}, 0.1, 0.1)


@pytest.mark.parametrize("family", COV_FAMILIES)
def test_min_contrast_recovers_noiseless_parameters(family):
    truth = {"sigma": 1.5, "alpha": 0.2, "beta": 0.3}
    rs = np.linspace(0.02, 0.5, 12)
    hs = np.linspace(0.02, 0.5, 12)
    fit = min_contrast(model_surface(family, truth, rs, hs), family=family)
    assert fit.converged
    assert not fit.boundary
    for key in ("sigma", "alpha", "beta"):
        assert fit.params[key] == pytest.approx(truth[key], abs=1e-3)
    assert fit.contrast < 1e-10


def test_flat_surface_drives_sigma_to_the_boundary():
    rs = np.linspace(0.02, 0.5, 10)
    hs = np.linspace(0.02, 0.5, 10)
    flat = SummarySurface(rs, hs, np.ones((10, 10)), np.ones((10, 10)), "g")
    fit = min_contrast(flat)
    assert fit.boundary
    assert fit.params["sigma"] < 1e-6
    assert fit.contrast == 0.0


def test_doubling_weights_leaves_argmin_unchanged():
    truth = {"sigma": 1.2, "alpha": 0.15, "beta": 0.25}
    rs = np.linspace(0.02, 0.4, 8)
    hs = np.linspace(0.02, 0.4, 8)
    surf = model_surface("separable-exponential", truth, rs, hs)
    w = np.ones(surf.est.shape)
    a = min_contrast(surf, weights=w)
    b = min_contrast(surf, weights=2.0 * w)
    # scaling by a power of two reorders nothing in the simplex search
    assert a.params == b.params
    assert b.contrast == pytest.approx(2.0 * a.contrast, rel=1e-15)


def test_min_contrast_validation():
    rs = np.linspace(0.1, 0.4, 4)
    hs = np.linspace(0.1, 0.4, 4)
    bad = SummarySurface(rs, hs, -np.ones((4, 4)), np.ones((4, 4)), "g")
    with pytest.raises(ValueError, match="nonnegative"):
        min_contrast(bad)
    surf = model_surface("separable-exponential", {"sigma": 1, "alpha": 0.2, "beta": 0.2}, rs, hs)
    with pytest.raises(ValueError, match="weights"):
        min_contrast(surf, weights=np.ones((2, 2)))
    for q in (float("nan"), float("inf"), 0.0, -0.5):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            min_contrast(surf, q=q)
    good = {"sigma": 1.0, "alpha": 0.2, "beta": 0.2}
    for init in (
        {**good, "sigma": -1.0},
        {**good, "alpha": float("nan")},
        {**good, "beta": float("inf")},
        {"sigma": 1.0, "beta": 0.2},
    ):
        with pytest.raises(ValueError, match="init must hold sigma, alpha and beta"):
            min_contrast(surf, init=init)


def test_cov_eval_rejects_nan_parameters():
    good = {"sigma": 1.0, "alpha": 0.2, "beta": 0.2}
    for key in ("sigma", "alpha", "beta"):
        with pytest.raises(ValueError, match="sigma must be"):
            cov_eval("separable-exponential", {**good, key: float("nan")}, 0.1, 0.1)
    with pytest.raises(ValueError, match="kappa"):
        cov_eval("iaco-cesare", {**good, "kappa3": float("nan")}, 0.1, 0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_min_contrast_rejects_non_finite_surfaces(bad):
    pat = sim_poisson(500.0, seed=3)
    surf = second_order_global(pat, pat.n / pat.volume, SummaryConfig(statistic="g"))
    est = surf.est.copy()
    est[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        min_contrast(replace(surf, est=est))
    weights = np.ones_like(est)
    weights[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        min_contrast(replace(surf, est=np.maximum(surf.est, 0.0)), weights=weights)


def test_lgcp_counts_average_to_lam0():
    lam0 = 80.0
    counts = np.array(
        [sim_lgcp(lam0=lam0, grid=(6, 6, 4), seed=s).n for s in range(200)]
    )
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - lam0) < 3.0 * se
    # the log-normal mixture makes counts visibly overdispersed
    assert counts.var(ddof=1) / counts.mean() > 1.5


def test_lgcp_degenerates_to_poisson_as_sigma_vanishes():
    params = {"sigma": 1e-6, "alpha": 0.2, "beta": 0.2}
    counts = np.array(
        [sim_lgcp(params=params, lam0=60.0, grid=(5, 5, 3), seed=s).n for s in range(200)]
    )
    dispersion = counts.var(ddof=1) / counts.mean()
    assert 0.8 < dispersion < 1.2


def test_lgcp_simulator_contract():
    with pytest.raises(ValueError, match="5000"):
        sim_lgcp(grid=(30, 30, 10))
    a, field = sim_lgcp(lam0=50.0, grid=(4, 4, 3), seed=3, return_field=True)
    assert field.shape == (3, 4, 4)
    b = sim_lgcp(lam0=50.0, grid=(4, 4, 3), seed=3)
    assert np.array_equal(a.coords, b.coords)
    assert np.all(np.diff(a.t) >= 0)


def dense_reference_field(family, params, grid, window, interval, seed):
    """The latent field from a dense Cholesky factor of the full cell covariance."""
    gx, gy, gt = grid
    cx = window.x0 + (np.arange(gx) + 0.5) * window.width / gx
    cy = window.y0 + (np.arange(gy) + 0.5) * window.height / gy
    ct = interval.t0 + (np.arange(gt) + 0.5) * interval.length / gt
    tt, yy, xx = (a.ravel() for a in np.meshgrid(ct, cy, cx, indexing="ij"))
    r = np.hypot(xx[:, None] - xx[None, :], yy[:, None] - yy[None, :])
    h = np.abs(tt[:, None] - tt[None, :])
    cov = cov_eval(family, params, r, h)
    cov[np.diag_indices_from(cov)] += 1e-8 * params["sigma"] ** 2
    z = np.random.default_rng(seed).standard_normal(len(cov))
    return (-0.5 * params["sigma"] ** 2 + np.linalg.cholesky(cov) @ z).reshape(gt, gy, gx)


SIM_WINDOW = SpatialWindow(-1.0, 1.5, 2.0, 3.2)
SIM_INTERVAL = TimeInterval(4.0, 7.0)


@pytest.mark.parametrize(
    "family, params, tol",
    [
        # the Kronecker factor puts the 1e-8 nugget on the space
        # correlation only, which moves separable fields by up to ~5e-8
        ("separable-exponential", {"sigma": 1.2, "alpha": 0.15, "beta": 0.2}, 1e-7),
        ("separable-exponential", {"sigma": 0.4, "alpha": 1.1, "beta": 2.5}, 1e-7),
        ("separable-exponential", {"sigma": 2.0, "alpha": 0.05, "beta": 0.6}, 1e-7),
        ("gneiting", {"sigma": 1.3, "alpha": 0.4, "beta": 0.9}, 1e-10),
        ("iaco-cesare", {"sigma": 1.3, "alpha": 0.4, "beta": 0.9}, 1e-10),
    ],
)
def test_field_matches_dense_factor(family, params, tol):
    # a non-square grid on a non-unit window: an x/y mix-up in the space
    # factor changes the field
    grid = (5, 4, 3)
    for seed in (0, 1):
        _, field = sim_lgcp(
            family, params, grid=grid, window=SIM_WINDOW, interval=SIM_INTERVAL,
            seed=seed, return_field=True,
        )
        want = dense_reference_field(family, params, grid, SIM_WINDOW, SIM_INTERVAL, seed)
        assert np.abs(field - want).max() < tol


def test_separable_simulator_memory_fence():
    # a dense covariance over the 3072 cells and its factor took 529 MB
    params = {"sigma": 1.0, "alpha": 0.1, "beta": 0.1}
    tracemalloc.start()
    try:
        sim_lgcp(params=params, lam0=3200.0, grid=(16, 16, 12), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_zero_sigma_gives_poisson_from_the_same_stream():
    zero, field = sim_lgcp(
        params={"sigma": 0.0, "alpha": 0.2, "beta": 0.2}, lam0=60.0, grid=(5, 4, 3),
        seed=8, return_field=True,
    )
    assert np.array_equal(field, np.zeros((3, 4, 5)))
    # at sigma = 1e-300 exp(field) rounds to exactly 1: the same counts and
    # places, so both draw the field before the counts
    tiny = sim_lgcp(
        params={"sigma": 1e-300, "alpha": 0.2, "beta": 0.2}, lam0=60.0, grid=(5, 4, 3), seed=8
    )
    assert zero.n > 0
    assert np.array_equal(zero.coords, tiny.coords)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"grid": (0, 5, 5)}, "grid"),
        ({"grid": (5, 5, 0)}, "grid"),
        ({"grid": (-1, -1, 5)}, "grid"),
        ({"grid": (2.7, 3, 3)}, "grid"),
        ({"lam0": float("nan")}, "lam0"),
        ({"lam0": float("inf")}, "lam0"),
        ({"params": {"sigma": float("nan"), "alpha": 0.2, "beta": 0.2}}, "sigma"),
    ],
)
def test_sim_lgcp_rejects_bad_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        sim_lgcp(seed=0, **kwargs)


def test_separable_time_correlation_must_be_positive_definite():
    # the nugget sits on the space factor only: once exp(-dt/beta) rounds
    # to 1 at the time spacing dt, the time correlation is all ones
    params = {"sigma": 1.0, "alpha": 0.2, "beta": 1e17}
    with pytest.raises(ValueError, match="not positive definite"):
        sim_lgcp(params=params, grid=(4, 4, 4), seed=0)
    # one time cell has no time correlation to factor
    assert sim_lgcp(params=params, grid=(4, 4, 1), seed=0).n > 0
    # dt/beta = 0.25/4e15 = 6.25e-17 still draws
    sim_lgcp(params=dict(params, beta=4e15), grid=(4, 4, 4), seed=0)


def test_stlgcppm_recovers_simulated_parameters():
    truth = {"sigma": 1.0, "alpha": 0.2, "beta": 0.2}
    pat = sim_lgcp(params=truth, lam0=300.0, grid=(10, 10, 5), seed=11)
    fit = stlgcppm(pat, "~1")
    assert fit.family == "separable-exponential"
    got = fit.params
    for key in ("sigma", "alpha", "beta"):
        assert abs(got[key] - truth[key]) / truth[key] < 0.5
    with pytest.raises(ValueError, match="single parameter set"):
        fit.param_table()
    assert "Log-Gaussian Cox model" in str(fit)


def test_poisson_input_yields_boundary_sigma():
    pat = sim_poisson(150.0, seed=21)
    fit = stlgcppm(pat, "~1")
    assert fit.second_fit.boundary
    assert fit.params["sigma"] < 0.05


def test_str_shows_boundary_fits():
    fit = stlgcppm(sim_poisson(150.0, seed=21), "~1")
    sigma_line = next(l for l in str(fit).splitlines() if l.startswith("sigma:"))
    assert sigma_line.endswith(" (boundary solution)")
    interior = replace(fit, second_fit=replace(fit.second_fit, boundary=False))
    assert "boundary" not in str(interior)

    pat = sim_lgcp(lam0=40.0, grid=(4, 4, 3), seed=17)
    cfg = SummaryConfig(rs=np.linspace(0.05, 0.25, 4), hs=np.linspace(0.05, 0.25, 4))
    local = stlgcppm(pat, "~1", second="local", config=cfg)
    on_box = sum(f.boundary for f in local.second_fit)
    assert f"\n{on_box} of {pat.n} local fits on the parameter box\n" in str(local)


def test_local_first_order_matches_standalone_fit():
    pat = sim_lgcp(lam0=60.0, grid=(5, 5, 3), seed=13)
    cfg = SummaryConfig(rs=np.linspace(0.05, 0.25, 5), hs=np.linspace(0.05, 0.25, 5))
    fit = stlgcppm(pat, "~x", first="local", config=cfg, nd=(4, 4, 4), seed=2)
    alone = locstppm(pat, "~x", nd=(4, 4, 4), seed=2)
    assert np.array_equal(fit.first_fit.coef, alone.coef)
    assert np.array_equal(fit.intensity, alone.fitted)


def test_local_second_order_gives_per_event_parameters():
    pat = sim_lgcp(lam0=40.0, grid=(4, 4, 3), seed=17)
    cfg = SummaryConfig(rs=np.linspace(0.05, 0.25, 4), hs=np.linspace(0.05, 0.25, 4))
    fit = stlgcppm(pat, "~1", second="local", config=cfg)
    assert len(fit.second_fit) == pat.n
    table = fit.param_table()
    assert table.shape == (pat.n, 3)
    assert np.isfinite(table).all()
    with pytest.raises(ValueError, match="local second-order"):
        fit.params


@pytest.mark.parametrize("family", COV_FAMILIES)
def test_local_second_order_equals_lone_fits(family):
    # the batched local fits are bit for bit the per-event min_contrast fits
    pat = sim_lgcp(lam0=40.0, grid=(4, 4, 3), seed=17)
    cfg = SummaryConfig(rs=np.linspace(0.05, 0.25, 4), hs=np.linspace(0.05, 0.25, 4))
    fit = stlgcppm(pat, "~1", family=family, second="local", config=cfg)
    listas = second_order_local(pat, fit.intensity, replace(cfg, statistic="g"))
    for got, surf in zip(fit.second_fit, listas.surfaces):
        assert got == min_contrast(replace(surf, est=np.maximum(surf.est, 0.0)), family=family)


def test_stlgcppm_validation(poisson100):
    with pytest.raises(ValueError, match="family"):
        stlgcppm(poisson100, "~1", family="matern")
    with pytest.raises(ValueError, match="global"):
        stlgcppm(poisson100, "~1", first="middle")
