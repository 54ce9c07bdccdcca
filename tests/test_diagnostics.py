"""Permutation test and intensity diagnostics.

Monte-Carlo bounds (null calibration, intensity ordering) run on fixed
seed blocks; the probability statements they check hold with margin at
those seeds, so the assertions are deterministic.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from stpoint import (
    IntensitySpec,
    LinearNetwork,
    LocalTestResult,
    PointPattern,
    SpatialWindow,
    SummaryConfig,
    TimeInterval,
    globaldiag,
    infl,
    localdiag,
    localtest,
    second_order_local,
    sim_poisson,
)


def inhomogeneous_30(seed=8):
    """30 points with x drawn from a density proportional to exp(6x)."""
    win, iv = SpatialWindow(0, 1, 0, 1), TimeInterval(0, 1)
    rng = np.random.default_rng(seed)
    u = rng.random(30)
    x = np.log1p(u * (np.exp(6.0) - 1.0)) / 6.0
    coords = np.column_stack([x, rng.random(30), rng.random(30)])
    return PointPattern(coords, win, iv)


# ---------------------------------------------------------------------------
# localtest


def test_identical_patterns_rarely_flag():
    fracs = []
    for s in range(20):
        X = sim_poisson(IntensitySpec.constant(30.0), seed=1000 + s)
        res = localtest(X, X, k=19, alpha=0.05, seed=s)
        fracs.append(len(res.significant_ids) / X.n)
    assert np.mean(fracs) <= 0.10


def test_localtest_determinism(poisson100):
    X = poisson100.subset(np.arange(12))
    Z = sim_poisson(IntensitySpec.constant(25.0), seed=3)
    a = localtest(X, Z, k=9, alpha=0.2, seed=17)
    b = localtest(X, Z, k=9, alpha=0.2, seed=17)
    assert np.array_equal(a.pvalues, b.pvalues)


def test_single_point_background(unit_window, unit_interval):
    X = PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_window, unit_interval)
    Z = sim_poisson(IntensitySpec.constant(25.0), seed=3)
    res = localtest(X, Z, k=19, seed=0)
    assert res.pvalues.shape == (1,)
    # empty comparison subsets give zero surfaces on both sides
    assert res.pvalues[0] == 1.0


def test_inhomogeneous_background_flags_points(unit_window, unit_interval):
    X = inhomogeneous_30()
    Z = PointPattern(
        np.random.default_rng(8).random((25, 3)), unit_window, unit_interval
    )
    res = localtest(X, Z, k=99, seed=7)
    out = str(res)
    assert "Background pattern X: 30" in out
    assert "Alternative pattern Z: 25" in out
    assert len(res.significant_ids) > 0


def test_small_k_warns_and_floors_pvalues():
    X = sim_poisson(IntensitySpec.constant(30.0), seed=1)
    Z = sim_poisson(IntensitySpec.constant(25.0), seed=3)
    with pytest.warns(UserWarning, match="1/\\(k\\+1\\) = 0.25"):
        res = localtest(X, Z, k=3, alpha=0.05, seed=0)
    assert res.pvalues.min() >= 0.25
    assert res.pvalues.max() <= 1.0


def test_pvalues_bounded_for_pcf_statistic():
    X = sim_poisson(IntensitySpec.constant(30.0), seed=1)
    Z = sim_poisson(IntensitySpec.constant(25.0), seed=3)
    res = localtest(X, Z, method="g", k=9, alpha=0.2, seed=5)
    assert res.pvalues.min() >= 1.0 / 10.0
    assert res.pvalues.max() <= 1.0


def test_localtest_domain_mismatch(poisson100, net_poisson):
    other = sim_poisson(
        IntensitySpec.constant(50.0),
        window=SpatialWindow(0, 2, 0, 1),
        seed=2,
    )
    with pytest.raises(ValueError, match="same window"):
        localtest(poisson100, other, seed=0)
    planar = PointPattern(
        net_poisson.coords, net_poisson.window, net_poisson.interval
    )
    with pytest.raises(ValueError, match="same network"):
        localtest(planar, net_poisson, seed=0)


def test_localtest_on_network(net_poisson, grid_network):
    Z = sim_poisson(
        IntensitySpec.constant(3.0), network=grid_network,
        interval=net_poisson.interval, seed=12,
    )
    k = 19
    res = localtest(net_poisson, Z, k=k, seed=4)
    assert res.pvalues.shape == (net_poisson.n,)
    assert res.pvalues.min() >= 1.0 / (k + 1) and res.pvalues.max() <= 1.0
    again = localtest(net_poisson, Z, k=k, seed=4)
    assert np.array_equal(res.pvalues, again.pvalues)
    # each event keeps its p-value whatever its row, in X and in Z
    rng = np.random.default_rng(0)
    perm = rng.permutation(net_poisson.n)
    shuffled = localtest(net_poisson.subset(perm), Z.subset(rng.permutation(Z.n)), k=k, seed=4)
    assert np.array_equal(shuffled.pvalues, res.pvalues[perm])


def test_integer_arguments_are_not_truncated(poisson100):
    # k=2.5 used to raise a bare TypeError; infl ids [1.5] read as [1]
    Z = sim_poisson(IntensitySpec.constant(25.0), seed=3)
    for k in (2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="k must be an integer"):
            localtest(poisson100, Z, k=k, seed=0)
    with pytest.warns(UserWarning, match="cannot reach significance"):
        got = localtest(poisson100, Z, k=3.0, seed=0)
        want = localtest(poisson100, Z, k=3, seed=0)
    assert got.k == 3 and np.array_equal(got.pvalues, want.pvalues)
    res = localdiag(poisson100, 100.0)
    with pytest.raises(ValueError, match="ids must be integers"):
        infl(res, ids=[1.5])
    assert infl(res, ids=[2.0]).ids.tolist() == [2]


def test_localtest_validation(poisson100, unit_window, unit_interval):
    Z = sim_poisson(IntensitySpec.constant(25.0), seed=3)
    with pytest.raises(ValueError, match="k must be at least 1"):
        localtest(poisson100, Z, k=0, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        localtest(poisson100, Z, alpha=1.0, seed=0)
    lone = PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_window, unit_interval)
    with pytest.raises(ValueError, match="alternative >= 2"):
        localtest(poisson100, lone, seed=0)


WIDE_GRID = 0.25 * np.arange(1, 41) / 40


@pytest.mark.parametrize(
    "sizes, k, alpha, statistic, config, bound_mb",
    [
        # wide bandwidths on a 40 x 40 lag grid spread each picked pair over
        # all 1600 nodes; the fold takes an origin's picks in steps of the
        # cell budget, so the peak is 8 MB here, where folding them all at
        # once peaked at 80 MB
        ((20, 400), 99, 0.05, "g", SummaryConfig(rs=WIDE_GRID, hs=WIDE_GRID, br=0.25, bh=0.25), 16),
        # every pair is in reach; each origin's partners are read from its
        # own pair block, so the peak is 20 MB here, where joining the pairs
        # of all blocks first peaked at 49 MB
        ((400, 1200), 3, 0.5, "K", SummaryConfig(), 32),
        ((400, 1200), 3, 0.5, "g", SummaryConfig(), 32),
    ],
    ids=["g-wide-bands", "K", "g"],
)
def test_localtest_fold_memory_fence_with_wide_kernel_bands(
    unit_window, unit_interval, sizes, k, alpha, statistic, config, bound_mb
):
    rng = np.random.default_rng(0)
    X, Z = (PointPattern(0.4 + 0.05 * rng.random((n, 3)), unit_window, unit_interval) for n in sizes)
    tracemalloc.start()
    try:
        localtest(X, Z, statistic, k=k, alpha=alpha, config=config, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_significant_ids_are_one_based():
    res = LocalTestResult(
        np.array([0.02, 0.3, 0.05, 1.0]), 0.05, 19, "K", 4, 25
    )
    assert res.significant_ids.tolist() == [1, 3]
    assert "2 significant points at alpha = 0.05" in str(res)


# ---------------------------------------------------------------------------
# globaldiag


def test_globaldiag_reorder_invariance_exact():
    pat = sim_poisson(IntensitySpec.loglinear("~x", (4.0, 2.0)), seed=9)
    lam = np.exp(4.0 + 2.0 * pat.x)
    base = globaldiag(pat, lam).discrepancy
    rng = np.random.default_rng(1)
    for _ in range(10):
        perm = rng.permutation(pat.n)
        assert globaldiag(pat.subset(perm), lam[perm]).discrepancy == base


def test_true_intensity_scores_below_constant():
    wins = 0
    for s in range(20):
        pat = sim_poisson(IntensitySpec.loglinear("~x", (0.3, 6.0)), seed=4100 + s)
        d_true = globaldiag(pat, np.exp(0.3 + 6.0 * pat.x)).discrepancy
        d_const = globaldiag(pat, float(pat.n / pat.volume)).discrepancy
        wins += d_true < d_const
    assert wins >= 18


def test_globaldiag_single_event(unit_window, unit_interval):
    pat = PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_window, unit_interval)
    res = globaldiag(pat, 1.0)
    assert np.all(res.surface.est == 0.0)
    assert res.discrepancy == np.sum(res.surface.theo**2)
    assert np.array_equal(res.diff, -res.surface.theo)


@pytest.mark.parametrize("lam", [-1.0, [np.nan], [1.0, 2.0, 3.0], np.nan, [np.nan, np.nan], "x"])
def test_globaldiag_single_event_checks_lam(unit_window, unit_interval, lam):
    pat = PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_window, unit_interval)
    for events in (pat.subset([]), pat):  # no pair on either: lam is checked alone
        with pytest.raises(ValueError):
            globaldiag(events, lam)


def test_globaldiag_diff_and_str(poisson100):
    res = globaldiag(poisson100, float(poisson100.n / poisson100.volume))
    assert np.array_equal(res.diff, res.surface.est - res.surface.theo)
    assert res.discrepancy >= 0.0
    out = str(res)
    assert out.startswith("Global second-order diagnostic")
    assert f"Sum of squared differences: {res.discrepancy:.4g}" in out


def test_globaldiag_network_reference_surface(net_poisson):
    res = globaldiag(net_poisson, float(net_poisson.n / net_poisson.volume))
    surf = res.surface
    assert np.array_equal(surf.theo, np.outer(surf.rs, surf.hs))
    assert np.isfinite(res.discrepancy)


# ---------------------------------------------------------------------------
# localdiag and infl


def fixture_20(unit_window, unit_interval):
    coords = np.random.default_rng(0).random((20, 3))
    return PointPattern(coords, unit_window, unit_interval)


def test_median_threshold_matches_sort_oracle(unit_window, unit_interval):
    pat = fixture_20(unit_window, unit_interval)
    res = localdiag(pat, float(pat.n / pat.volume), p=0.5)
    med = np.median(res.scores)
    assert res.threshold == pytest.approx(med, rel=1e-12)
    assert len(res.flagged_ids) == int(np.sum(res.scores > med))
    assert np.array_equal(
        res.flagged_ids, np.flatnonzero(res.scores > res.threshold) + 1
    )


def test_symmetric_pair_never_flagged(unit_window, unit_interval):
    pat = PointPattern(
        np.array([[0.3, 0.5, 0.4], [0.7, 0.5, 0.6]]), unit_window, unit_interval
    )
    for p in (0.1, 0.5, 0.9):
        res = localdiag(pat, 2.0, p=p)
        assert np.array_equal(res.scores, [0.0, 0.0])
        assert len(res.flagged_ids) == 0


def test_flag_count_tracks_percentile():
    pat = sim_poisson(IntensitySpec.constant(100.0), seed=300)
    res = localdiag(pat, float(pat.n / pat.volume), p=0.9)
    assert pat.n // 10 - 1 <= len(res.flagged_ids) <= pat.n // 10 + 1
    assert (res.scores >= 0.0).all()
    out = str(res)
    assert "Points outlying from the 0.9 percentile" in out
    assert f"{len(res.flagged_ids)} outlying points" in out


def test_localdiag_validation(poisson100, unit_window, unit_interval):
    lam = float(poisson100.n / poisson100.volume)
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
        localdiag(poisson100, lam, p=0.0)
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
        localdiag(poisson100, lam, p=1.0)
    lone = PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_window, unit_interval)
    with pytest.raises(ValueError, match="at least 2 events"):
        localdiag(lone, 1.0)


def same_surface(surf, listas, i):
    """surf has the bits of event i's surface in listas."""
    return all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in ((surf.est, listas.est[i - 1]), (surf.rs, listas.rs),
                     (surf.hs, listas.hs), (surf.theo, listas.theo))
    )


def test_infl_returns_flagged_surfaces(unit_window, unit_interval):
    pat = fixture_20(unit_window, unit_interval)
    res = localdiag(pat, float(pat.n / pat.volume), p=0.8)
    got = infl(res)
    assert np.array_equal(got.ids, res.flagged_ids)
    for i, surf in zip(got.ids, got.surfaces):
        assert same_surface(surf, res.listas, i)
    single = infl(res, ids=[1])
    assert len(single) == 1
    assert same_surface(single.surfaces[0], res.listas, 1)
    with pytest.raises(ValueError, match="1-based"):
        infl(res, ids=[0])
    with pytest.raises(ValueError, match="1-based"):
        infl(res, ids=[pat.n + 1])


@pytest.mark.parametrize("ids", [3, [[1, 2]]])
def test_local_ids_must_be_one_dimensional(unit_window, unit_interval, ids):
    # a scalar id used to give nr surfaces of shape (nh,) from
    # second_order_local, and a bare TypeError from infl
    pat = fixture_20(unit_window, unit_interval)
    lam = float(pat.n / pat.volume)
    with pytest.raises(ValueError, match="1-d array of 1-based"):
        second_order_local(pat, lam, ids=ids)
    with pytest.raises(ValueError, match="1-d array of 1-based"):
        infl(localdiag(pat, lam, p=0.8), ids=ids)


def test_infl_empty_when_nothing_flagged(unit_window, unit_interval):
    pat = PointPattern(
        np.array([[0.3, 0.5, 0.4], [0.7, 0.5, 0.6]]), unit_window, unit_interval
    )
    res = localdiag(pat, 2.0, p=0.9)
    assert len(infl(res)) == 0


def test_mean_of_no_surfaces_is_refused(unit_window, unit_interval):
    pat = PointPattern(
        np.array([[0.3, 0.5, 0.4], [0.7, 0.5, 0.6]]), unit_window, unit_interval
    )
    empty = infl(localdiag(pat, 2.0, p=0.9))
    assert empty.est.shape == (0, len(empty.rs), len(empty.hs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no surfaces"):
            empty.mean_surface()


def test_infl_carries_skipped_pairs():
    # two segments with no path between them: the 4 ordered cross pairs
    # are unreachable, as in test_network_k_disconnected_components_by_hand
    net = LinearNetwork(
        np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [2.0, 5.0]]), np.array([[0, 1], [2, 3]])
    )
    pat = PointPattern(
        np.array([[1.0, 0.0, 0.4], [0.8, 5.0, 0.5], [1.2, 5.0, 0.6]]),
        SpatialWindow(0.0, 2.0, 0.0, 5.0), TimeInterval(0.0, 1.0), {}, net,
        np.array([0, 1, 1]), np.array([1.0, 0.8, 1.2]),
    )
    cfg = SummaryConfig(rs=np.array([0.2, 0.4, 0.6]), hs=np.array([0.05, 0.1, 0.2]))
    res = localdiag(pat, 1.0, p=0.5, config=cfg)
    assert res.listas.skipped_pairs == 4
    assert infl(res).skipped_pairs == 4
    assert infl(res, ids=[2, 3]).skipped_pairs == 4
    assert infl(res, ids=[]).skipped_pairs == 4
