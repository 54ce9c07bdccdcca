"""First-order model fitting: quadrature, weighted GLM, global and local fits.

The weighted Poisson GLM is validated against closed forms (intercept-only
MLE) and a grid-search maximiser of the weighted log-likelihood; the
intensity models against analytic identities that hold independently of
the dummy-point layout.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stpoint import (
    DivergenceError,
    IntensitySpec,
    MarkColumn,
    PointPattern,
    RankDeficiencyError,
    SpatialWindow,
    TimeInterval,
    fit_glm,
    locstppm,
    make_quadrature,
    predict_intensity,
    sep_fit,
    sim_poisson,
    stppm,
)
from stpoint.covariates import CovariateGrid
from stpoint.formula import build_design, parse_formula

UNIT_W = SpatialWindow(0.0, 1.0, 0.0, 1.0)
UNIT_T = TimeInterval(0.0, 1.0)


def expx_pattern(seed=5, slope=6.0):
    spec = IntensitySpec.loglinear("~x", [2.0, slope])
    return sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=seed)


# ---------------------------------------------------------------------------
# quadrature


def test_weight_sum_equals_volume(poisson100):
    quad = make_quadrature(poisson100, seed=0)
    assert quad.weights.sum() == pytest.approx(poisson100.volume, abs=1e-9)
    assert (quad.weights > 0).all()


def test_single_point_tiny_grid_weights():
    pat = PointPattern(np.array([[0.3, 0.3, 0.3]]), UNIT_W, UNIT_T)
    quad = make_quadrature(pat, nd=(2, 2, 2), seed=1)
    assert len(quad.coords) == 9  # 1 data + 8 dummies
    assert quad.weights.sum() == 1.0  # dyadic cell volumes add exactly
    assert quad.is_data.sum() == 1


def test_default_dummy_budget(poisson100):
    n = poisson100.n
    quad = make_quadrature(poisson100)
    side = math.ceil((4.0 * n) ** (1.0 / 3.0))
    assert quad.nd == (side, side, side)
    assert quad.n_dummy == side**3


def test_quadrature_determinism(poisson100):
    a = make_quadrature(poisson100, seed=7)
    b = make_quadrature(poisson100, seed=7)
    assert np.array_equal(a.coords, b.coords)
    c = make_quadrature(poisson100, seed=8)
    assert not np.array_equal(c.coords, a.coords)


def test_too_small_grid_warns_and_enlarges(poisson100):
    with pytest.warns(UserWarning, match="enlarging"):
        quad = make_quadrature(poisson100, nd=(2, 2, 2))
    side = math.ceil((4.0 * poisson100.n) ** (1.0 / 3.0))
    assert quad.nd == (side, side, side)


def test_data_events_present_exactly_once(poisson100):
    quad = make_quadrature(poisson100)
    idx = quad.data_index[quad.is_data]
    assert sorted(idx.tolist()) == list(range(poisson100.n))
    assert np.array_equal(quad.coords[quad.is_data], poisson100.coords)


def test_network_quadrature(net_poisson):
    quad = make_quadrature(net_poisson, seed=2)
    assert quad.weights.sum() == pytest.approx(net_poisson.volume, abs=1e-9)
    # a 3-tuple spec collapses the two spatial axes onto the arc axis
    q2 = make_quadrature(net_poisson, nd=(4, 5, 6), seed=2)
    assert q2.nd == (20, 6)


def test_network_nd_entries_are_checked_before_collapsing(net_poisson):
    # (-1, -1, 5) would collapse to the valid-looking (1, 5)
    with pytest.raises(ValueError, match=">= 1"):
        make_quadrature(net_poisson, nd=(-1, -1, 5))


def test_marked_quadrature_weight_sums():
    a = sim_poisson(60.0, window=UNIT_W, interval=UNIT_T, seed=1)
    b = sim_poisson(40.0, window=UNIT_W, interval=UNIT_T, seed=2)
    codes = np.concatenate([np.zeros(a.n, np.int64), np.ones(b.n, np.int64)])
    pat = PointPattern(
        np.vstack([a.coords, b.coords]), UNIT_W, UNIT_T,
        {"type": MarkColumn("categorical", codes, ("A", "B"))},
    )
    quad = make_quadrature(pat, by_type="type", seed=0)
    types = quad.marks["type"].values
    for lev in (0, 1):
        assert quad.weights[types == lev].sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="categorical"):
        make_quadrature(pat, by_type="nope")


def test_dummy_marks_memory_stays_bounded():
    # the nearest-event search runs over blocks of dummies, not one dense
    # (dummies x n x 3) table: at n ~ 2000 that table alone took ~500 MB
    pat = sim_poisson(2000.0, window=UNIT_W, interval=UNIT_T, seed=3)
    marks = {"m": MarkColumn("continuous", np.random.default_rng(0).normal(size=pat.n))}
    marked = PointPattern(pat.coords, UNIT_W, UNIT_T, marks)
    for fit in (lambda: make_quadrature(marked), lambda: sep_fit(marked, "~x", "~t")):
        tracemalloc.start()
        try:
            fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


def test_quadrature_input_validation(poisson100):
    with pytest.raises(ValueError, match="empty"):
        make_quadrature(poisson100.subset(np.array([], dtype=int)))
    with pytest.raises(ValueError, match="nd"):
        make_quadrature(poisson100, nd=(2, 2))
    with pytest.raises(ValueError, match=">= 1"):
        make_quadrature(poisson100, nd=(0, 3, 3))


@pytest.mark.parametrize("nd", [8.9, "6", True, 0, -2, (4, 4.0, 4), (4, True, 4), (4, "4", 4)])
def test_quadrature_nd_must_be_positive_integers(poisson100, net_poisson, nd):
    # int() used to turn 8.9 into 8, "6" into 6 and True into 1
    for pat in (poisson100, net_poisson):
        with pytest.raises(ValueError, match="nd entries must be integers >= 1"):
            make_quadrature(pat, nd=nd)


def test_quadrature_nd_accepts_numpy_integers(poisson100, net_poisson):
    assert make_quadrature(poisson100, nd=np.int64(6)).nd == (6, 6, 6)
    assert make_quadrature(poisson100, nd=(np.int32(5), 6, np.uint8(7))).nd == (5, 6, 7)
    assert make_quadrature(net_poisson, nd=(np.int64(4), 5, 6)).nd == (20, 6)


# ---------------------------------------------------------------------------
# weighted GLM


def test_intercept_only_closed_form():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 40)
    y = rng.poisson(3.0, 40).astype(float)
    res = fit_glm(np.ones((40, 1)), y, w, tol=1e-12)
    assert res.converged
    assert res.coef[0] == pytest.approx(math.log(np.sum(w * y) / np.sum(w)), abs=1e-10)


def test_two_parameter_fit_matches_grid_search():
    x = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    X = np.column_stack([np.ones(6), x])
    y = np.array([0.5, 1.0, 0.0, 2.0, 1.0, 3.0])
    w = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0])
    res = fit_glm(X, y, w)

    def loglik(b0, b1):
        mu = np.exp(b0 + b1 * x)
        return np.sum(w * (np.where(y > 0, y * np.log(mu), 0.0) - mu))

    c0, c1, width = 0.0, 0.0, 6.0
    for _ in range(6):
        b0s = np.linspace(c0 - width / 2, c0 + width / 2, 61)
        b1s = np.linspace(c1 - width / 2, c1 + width / 2, 61)
        vals = np.array([[loglik(a, b) for b in b1s] for a in b0s])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        c0, c1, width = b0s[i], b1s[j], width * 0.12
    assert res.coef[0] == pytest.approx(c0, abs=1e-5)
    assert res.coef[1] == pytest.approx(c1, abs=1e-5)


def test_score_equations_satisfied_at_optimum():
    pat = expx_pattern()
    quad = make_quadrature(pat, seed=0)
    X = np.column_stack([np.ones(len(quad.coords)), quad.coords[:, 0]])
    y = quad.is_data / quad.weights
    res = fit_glm(X, y, quad.weights, tol=1e-10)
    mu = np.exp(X @ res.coef)
    score = X.T @ (quad.weights * (y - mu))
    assert np.max(np.abs(score)) < 1e-6 * len(quad.coords)


def test_duplicate_column_raises_rank_deficiency():
    x = np.linspace(0.0, 1.0, 10)
    X = np.column_stack([np.ones(10), x, 2.0 * x])
    with pytest.raises(RankDeficiencyError, match="double_x"):
        fit_glm(X, np.ones(10), np.ones(10), names=("b0", "x", "double_x"))


def test_perfect_separation_raises_divergence():
    X = np.column_stack([np.ones(4), np.array([-2.0, -1.0, 1.0, 2.0])])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(DivergenceError, match="separation"):
        fit_glm(X, y, np.ones(4), family="binomial")


def test_glm_input_validation():
    X = np.ones((4, 1))
    with pytest.raises(ValueError, match="weights"):
        fit_glm(X, np.ones(4), np.array([1.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="family"):
        fit_glm(X, np.ones(4), np.ones(4), family="gamma")
    with pytest.raises(ValueError, match="binomial"):
        fit_glm(X, np.array([0.0, 2.0, 0.5, 1.0]), np.ones(4), family="binomial")


@pytest.mark.parametrize(
    "name, value",
    [
        ("X", np.array([[1.0, 0.0], [1.0, np.nan], [1.0, 2.0], [1.0, 3.0]])),
        ("X", np.array([[1.0, 0.0], [1.0, np.inf], [1.0, 2.0], [1.0, 3.0]])),
        ("y", np.array([1.0, np.nan, 2.0, 1.0])),
        ("y", np.array([1.0, -1.0, 2.0, 1.0])),  # a negative Poisson count
        ("y", np.ones(5)),
        ("weights", np.array([1.0, np.nan, 1.0, 1.0])),
        ("weights", np.array([1.0, np.inf, 1.0, 1.0])),
        ("weights", np.ones(3)),
        ("offset", np.array([0.0, np.nan, 0.0, 0.0])),
        ("offset", np.zeros(5)),
    ],
)
def test_glm_refuses_nonfinite_and_mismatched_input(name, value):
    # such input once reached LAPACK (NaN: "SVD did not converge") or the
    # rank scan (an inf weight: every column reported aliased)
    args = {
        "X": np.column_stack([np.ones(4), np.arange(4.0)]),
        "y": np.array([0.0, 1.0, 2.0, 1.0]),
        "weights": np.ones(4),
        "offset": np.zeros(4),
    }
    args[name] = value
    with pytest.raises(ValueError, match=f"^{name} "):
        fit_glm(**args)


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c"), ()])
def test_glm_refuses_names_of_the_wrong_length(names):
    # ("a",) for two columns once gave a result with one name and two
    # coefficients
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    y = np.array([0.0, 1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"^names must have one entry per column of X \(2\)"):
        fit_glm(X, y, np.ones(4), names=names)
    assert fit_glm(X, y, np.ones(4), names=("a", "b")).names == ("a", "b")


@pytest.mark.parametrize("shape", [(4,), (4, 2, 1), ()])
def test_glm_refuses_a_design_that_is_not_2d(shape):
    # a 1-d X once failed with "not enough values to unpack", naming nothing
    y = np.array([0.0, 1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"^X must be a 2-d design matrix, got \d dimension"):
        fit_glm(np.ones(shape), y, np.ones(4))


# ---------------------------------------------------------------------------
# global Poisson models


def test_homogeneous_intensity_identity(poisson100):
    m = stppm(poisson100, "~1")
    assert math.exp(m.coef[0]) == pytest.approx(
        poisson100.n / poisson100.volume, rel=1e-10
    )
    # the identity cannot depend on the dummy layout
    m2 = stppm(poisson100, "~1", nd=(5, 5, 5))
    assert m2.coef[0] == pytest.approx(m.coef[0], abs=1e-10)
    assert "Intensity" in str(m)


def test_homogeneous_identity_on_network(net_poisson):
    m = stppm(net_poisson, "~1")
    assert math.exp(m.coef[0]) == pytest.approx(
        net_poisson.n / net_poisson.volume, rel=1e-10
    )


def test_loglinear_slope_recovery():
    pat = expx_pattern(seed=5)
    m = stppm(pat, "~x")
    assert m.names == ("(Intercept)", "x")
    assert abs(m.coef[0] - 2.0) < 0.5
    assert abs(m.coef[1] - 6.0) < 0.5


def test_constant_covariate_is_reported_aliased():
    pat = expx_pattern(seed=6)
    grid = CovariateGrid(
        "cov2", 0.0, 1.0, 2, 0.0, 1.0, 2, 0.0, 1.0, 2, np.full((2, 2, 2), 3.0)
    )
    with pytest.raises(RankDeficiencyError, match="cov2"):
        stppm(pat, "~ x + cov2", covs={"cov2": grid})


def test_glm_and_lsr_agree_with_dense_dummies():
    pat = expx_pattern(seed=5)
    mg = stppm(pat, "~x", nd=(20, 20, 20))
    ml = stppm(pat, "~x", nd=(20, 20, 20), method="lsr")
    assert ml.method == "lsr"
    assert np.abs(mg.coef - ml.coef).max() < 0.15


def two_type_pattern():
    a = sim_poisson(120.0, window=UNIT_W, interval=UNIT_T, seed=1)
    b = sim_poisson(60.0, window=UNIT_W, interval=UNIT_T, seed=2)
    codes = np.concatenate([np.zeros(a.n, np.int64), np.ones(b.n, np.int64)])
    return PointPattern(
        np.vstack([a.coords, b.coords]), UNIT_W, UNIT_T,
        {"type": MarkColumn("categorical", codes, ("A", "B"))},
    )


def wave_grid():
    g = np.linspace(0.0, 1.0, 5)
    values = np.sin(3.0 * g)[None, None, :] + g[None, :, None] * g[:, None, None]
    return CovariateGrid("wave", 0.0, 0.25, 5, 0.0, 0.25, 5, 0.0, 0.25, 5, values)


@pytest.mark.parametrize(
    "case", ["glm", "lsr", "marked", "covariate", "network", "separable"]
)
def test_predictions_match_stored_fitted_values(case, request):
    # the fit and the prediction build the design through the same code
    pat = expx_pattern(seed=5)
    if case == "glm":
        m = stppm(pat, "~x")
    elif case == "lsr":
        m = stppm(pat, "~x", method="lsr")
    elif case == "marked":
        pat = two_type_pattern()
        m = stppm(pat, "~x", marked=True)
    elif case == "covariate":
        m = stppm(pat, "~x + wave", covs={"wave": wave_grid()})
    elif case == "network":
        pat = request.getfixturevalue("net_poisson")
        m = stppm(pat, "~x + t")
    else:
        m = sep_fit(pat, "~x", "~t")
    pred = predict_intensity(m, pat.coords, pat.marks)
    assert np.array_equal(pred, m.fitted)


def test_intercept_only_prediction_is_flat(poisson100):
    m = stppm(poisson100, "~1")
    got = predict_intensity(m, np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.1]]))
    assert np.allclose(got, math.exp(m.coef[0]), rtol=1e-15)


def test_marked_fit_decouples_into_per_type_intensities():
    a = sim_poisson(120.0, window=UNIT_W, interval=UNIT_T, seed=1)
    b = sim_poisson(60.0, window=UNIT_W, interval=UNIT_T, seed=2)
    codes = np.concatenate([np.zeros(a.n, np.int64), np.ones(b.n, np.int64)])
    pat = PointPattern(
        np.vstack([a.coords, b.coords]), UNIT_W, UNIT_T,
        {"type": MarkColumn("categorical", codes, ("A", "B"))},
    )
    m = stppm(pat, "~1", marked=True)
    assert m.names == ("(Intercept)", "typeB")
    assert math.exp(m.coef[0]) == pytest.approx(a.n / 1.0, abs=1e-6)
    assert math.exp(m.coef[0] + m.coef[1]) == pytest.approx(b.n / 1.0, abs=1e-6)
    # prediction requires the type mark
    with pytest.raises(ValueError, match="type"):
        m.predict(np.array([[0.5, 0.5, 0.5]]))


def test_stppm_validation(poisson100):
    with pytest.raises(ValueError, match="method"):
        stppm(poisson100, "~1", method="mle")
    with pytest.raises(ValueError, match="categorical"):
        stppm(poisson100, "~1", marked=True)


# ---------------------------------------------------------------------------
# separable models


def test_separable_homogeneous_reduces_to_constant(poisson100):
    sf = sep_fit(poisson100)
    assert np.allclose(sf.fitted, poisson100.n / poisson100.volume, rtol=1e-8)


def test_separable_factorization_identity():
    spec = IntensitySpec.loglinear("~x+t", [4.0, 2.0, 1.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=7)
    sf = sep_fit(pat, "~x", "~t")
    rng = np.random.default_rng(0)
    xy = rng.uniform(size=(100, 2))
    t1, t2 = rng.uniform(size=100), rng.uniform(size=100)
    gap = np.log(sf.predict(np.column_stack([xy, t1]))) - np.log(
        sf.predict(np.column_stack([xy, t2]))
    )
    # the log-ratio must depend on times alone
    resid = gap - (t1 - t2) * sf.time_coef[1]
    assert resid.max() - resid.min() < 1e-10


def test_separable_recovers_margins():
    spec = IntensitySpec.loglinear("~x+t", [4.0, 2.0, 1.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=7)
    sf = sep_fit(pat, "~x", "~t")
    assert abs(sf.space_coef[1] - 2.0) < 0.5
    assert abs(sf.time_coef[1] - 1.0) < 0.5
    # normalisation makes the fitted product integrate to n
    g = np.random.default_rng(1).uniform(size=(200_000, 3))
    assert sf.predict(g).mean() == pytest.approx(pat.n, rel=0.02)


def test_separable_formula_restrictions(poisson100):
    with pytest.raises(ValueError, match="spaceformula"):
        sep_fit(poisson100, "~t", "~1")
    with pytest.raises(ValueError, match="timeformula"):
        sep_fit(poisson100, "~x", "~y")


def test_separable_on_network(net_poisson):
    sf = sep_fit(net_poisson, "~x", "~t")
    assert np.isfinite(sf.space_coef).all()
    assert np.isfinite(sf.time_coef).all()
    assert (sf.fitted > 0).all()


@pytest.mark.parametrize("nd", [(4, 5, 6), 0, -3, 2.5, "4"])
def test_separable_nd_must_be_one_positive_integer(poisson100, net_poisson, nd):
    for pat in (poisson100, net_poisson):
        with pytest.raises(ValueError, match="nd must be one positive integer"):
            sep_fit(pat, "~x", "~t", nd=nd)


def test_separable_nd_accepts_numpy_integers(poisson100):
    a = sep_fit(poisson100, "~x", "~t", nd=np.int64(7))
    b = sep_fit(poisson100, "~x", "~t", nd=7)
    assert np.array_equal(a.fitted, b.fitted)


# ---------------------------------------------------------------------------
# local Poisson models


def test_flat_kernels_reproduce_the_global_fit():
    spec = IntensitySpec.loglinear("~x", [3.0, 2.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=9)
    g = stppm(pat, "~x", nd=(5, 5, 5), seed=3)
    lf = locstppm(pat, "~x", h_space=1e6, h_time=1e6, nd=(5, 5, 5), seed=3)
    assert lf.converged.all()
    assert np.abs(lf.coef - g.coef).max() < 1e-6


def test_default_bandwidths_follow_silverman():
    spec = IntensitySpec.loglinear("~x", [3.0, 2.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=9)
    lf = locstppm(pat, "~1", nd=(4, 4, 4))

    def silverman(v):
        return 1.06 * float(np.std(v)) * len(v) ** -0.2

    assert lf.h_space == pytest.approx(0.5 * (silverman(pat.x) + silverman(pat.y)))
    assert lf.h_time == pytest.approx(silverman(pat.t))


def test_local_fitted_tracks_global_on_toy_pattern():
    spec = IntensitySpec.loglinear("~x", [3.0, 1.0])
    toy = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=12)
    g = stppm(toy, "~x")
    lf = locstppm(toy, "~x", h_space=0.4, h_time=0.4)
    assert lf.converged.all()
    rel = abs(lf.fitted.mean() - g.fitted.mean()) / g.fitted.mean()
    assert rel < 0.3


def test_local_slopes_bracket_truth():
    spec = IntensitySpec.loglinear("~x", [3.0, 5.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=15)
    lf = locstppm(pat, "~x")
    slopes = lf.coef[lf.converged, 1]
    q25, q75 = np.percentile(slopes, [25, 75])
    assert q25 < 5.0 < q75 + 2.0  # loose sanity band for one seed
    assert "Coefficient quartiles" in str(lf)


def test_underflowing_kernel_weights_give_nan_rows():
    # with bandwidths of 0.01 the kernel weights of distant quadrature
    # points underflow to 0; such events are not converged, not an error
    pat = sim_poisson(100, window=UNIT_W, interval=UNIT_T, seed=2)
    lf = locstppm(pat, "~x", h_space=0.01, h_time=0.01)
    assert not lf.converged.any()
    assert np.isnan(lf.coef).all() and np.isnan(lf.fitted).all()


def test_local_fit_with_no_converged_event_prints_nan_quartiles():
    # np.percentile of no converged rows used to raise IndexError
    lf = locstppm(sim_poisson(150.0, seed=3), h_space=0.001, h_time=0.001)
    assert not lf.converged.any()
    assert "(Intercept): nan  nan  nan" in str(lf)


def test_local_fit_refuses_non_finite_bandwidths(poisson100):
    # h_space=nan made every event silently non-converged, h_time=inf gave
    # the global fit
    for bw in ({"h_space": math.nan}, {"h_time": math.inf}, {"h_space": -math.inf}):
        with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
            locstppm(poisson100, "~1", **bw)


def test_zero_default_bandwidth_is_named(poisson100):
    # Silverman's rule gives 0 on an axis that does not vary; the message
    # used to read "bandwidths must be positive and finite" although no
    # bandwidth was passed
    still = PointPattern(
        np.column_stack([poisson100.x, poisson100.y, np.full(poisson100.n, 0.5)]),
        poisson100.window, poisson100.interval,
    )
    with pytest.raises(ValueError, match="bandwidths .* h_time = 0 .*; pass h_time"):
        locstppm(still, "~1")
    assert locstppm(still, "~1", h_time=0.1).converged.all()
    point = PointPattern(
        np.column_stack([np.full(poisson100.n, 0.5), np.full(poisson100.n, 0.5), poisson100.t]),
        poisson100.window, poisson100.interval,
    )
    with pytest.raises(ValueError, match="bandwidths .* h_space = 0 .*; pass h_space"):
        locstppm(point, "~1")


def test_local_fits_follow_permuted_rows():
    # the quadrature lists data rows in input order, so permuted rows give
    # coefficients that agree only within rounding (1.5e-13 here)
    spec = IntensitySpec.loglinear("~x", [4.0, 1.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=4)
    assert pat.n == 107
    perm = np.random.default_rng(1).permutation(pat.n)
    base = locstppm(pat, "~x")
    moved = locstppm(pat.subset(perm), "~x")
    assert np.array_equal(moved.converged, base.converged[perm]) and base.converged.all()
    want = base.coef[perm]
    assert np.all(np.abs(moved.coef - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_local_fit_validation(poisson100):
    with pytest.raises(ValueError, match="bandwidths"):
        locstppm(poisson100, "~1", h_space=-1.0, h_time=0.1)
    tiny = poisson100.subset(np.arange(3))
    with pytest.raises(ValueError, match="at least"):
        locstppm(tiny, "~ x + y + t")


def test_local_fits_equal_refits_on_dense_kernel_rows():
    from glm_reference import fit_glm

    # the oracle builds every event's kernel weights as one (n x quadrature)
    # table, as locstppm once did; each local fit must equal a lone refit
    # on its row of that table, within 1e-9 relative: the reference solves
    # one least-squares problem per step, the lockstep IRLS stacked normal
    # equations
    spec = IntensitySpec.loglinear("~x", [3.0, 2.0])
    pat = sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=9)
    h_space, h_time = 0.3, 0.25
    lf = locstppm(pat, "~x", h_space=h_space, h_time=h_time, nd=(5, 5, 5), seed=3)
    quad = make_quadrature(pat, nd=(5, 5, 5), seed=3)
    X = build_design(parse_formula("~x"), quad.coords, quad.marks).matrix
    d2s = (
        (quad.coords[:, 0][None, :] - pat.x[:, None]) ** 2
        + (quad.coords[:, 1][None, :] - pat.y[:, None]) ** 2
    )
    d2t = (quad.coords[:, 2][None, :] - pat.t[:, None]) ** 2
    kernels = np.exp(-d2s / (2.0 * h_space**2) - d2t / (2.0 * h_time**2))
    y = quad.is_data / quad.weights
    assert lf.converged.all()
    for i in range(pat.n):
        res = fit_glm(X, y, quad.weights * kernels[i], tol=1e-10)
        assert np.all(np.abs(lf.coef[i] - res.coef) <= 1e-9 * np.maximum(1.0, np.abs(res.coef)))


def test_fit_glm_converges_where_whole_vector_steps_were_lost():
    # event 49 (x = 0.98) at h = 0.05: the kernel-weighted mu spans hundreds
    # of orders of magnitude, and a whole-vector least-squares step lost
    # itself to rounding there (step halving exhausted); the Newton
    # increments that fit_glm and locstppm share converge at about
    # (-684.2, 703.8), on a flat ridge of the local likelihood
    pat = sim_poisson(100.0, window=UNIT_W, interval=UNIT_T, seed=2)
    h = 0.05
    lf = locstppm(pat, "~x", h_space=h, h_time=h)
    quad = make_quadrature(pat, seed=0)
    X = build_design(parse_formula("~x"), quad.coords, quad.marks).matrix
    qx, qy, qt = quad.coords.T
    i = 49
    d2s = (qx - pat.x[i]) ** 2 + (qy - pat.y[i]) ** 2
    w = quad.weights * np.exp(-d2s / (2.0 * h**2) - (qt - pat.t[i]) ** 2 / (2.0 * h**2))
    res = fit_glm(X, quad.is_data / quad.weights, w, tol=1e-10)
    assert lf.converged[i]
    want = lf.coef[i]
    assert np.all(np.abs(res.coef - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert res.coef == pytest.approx([-684.2, 703.8], abs=0.05)


def test_local_fit_memory_fence():
    # event i's kernel row is built inside the loop: with a dense
    # (n x quadrature) kernel table this fit peaked at about 150 MB
    pat = sim_poisson(1000, window=UNIT_W, interval=UNIT_T, seed=19)
    assert pat.n == 991
    tracemalloc.start()
    try:
        lf = locstppm(pat, "~x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lf.converged.all()
    assert peak < 40e6
