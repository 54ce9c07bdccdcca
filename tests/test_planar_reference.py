"""Planar pair engine against the dense all-pairs reference.

The package lists only pairs within the lag reach, taking origins in the
row blocks of ``network._origin_blocks``, and folds them into every surface
in steps of the same cell budget, with the sums of one sequential
``bincount``.  Swapping the dense reference of ``planar_reference``, which
lists every ordered pair, in for the internal pair function must leave
every K and g surface, global and local, and every ``localtest`` p-value
bit-identical, whatever the budget.  K must also equal the dense
``np.add.at`` accumulator bit for bit, and g the dense matrix-product
accumulator within the float64 bound of a sum of positive terms.  Events
are random, some exactly on the window and interval edges or on the
half-way lines, where lags tie with grid nodes and translation weights
vanish.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import (
    PointPattern,
    SummaryConfig,
    localtest,
    second_order_global,
    second_order_local,
)
from stpoint import diagnostics, network, summaries
from stpoint.summaries import resolve_config

from conftest import joined, one_block
from planar_reference import dense_g, dense_k, dense_pairs
from test_summaries import UNIT_T, UNIT_W, planar_events, planar_pattern, sum_bound

# the default grids; a grid whose last nodes are realised lags; and wide
# bandwidths whose reach passes the window side, where dead pairs live
GRIDS = [
    {},
    {"rs": np.array([0.25, 0.5]), "hs": np.array([0.5, 1.0])},
    {"rs": np.array([0.1, 0.3, 0.5]), "hs": np.array([0.25, 0.5, 1.0]), "br": 0.6, "bh": 0.5},
]

# cell budgets: one origin per block and one pair per fold step, a few
# of each, and the package's own
CELLS = st.sampled_from([1, 7, 300, network._CELLS])


def surfaces(pattern, lam, cfg):
    glob = second_order_global(pattern, lam, cfg)
    loc = second_order_local(pattern, lam, cfg)
    return glob.est, np.array([s.est for s in loc.surfaces])


@pytest.mark.parametrize("statistic", ["K", "g"])
@pytest.mark.parametrize("correction", ["translation", "none"])
@settings(max_examples=30, deadline=None)
@given(events=planar_events, grid=st.sampled_from(range(len(GRIDS))), cells=CELLS)
def test_planar_surfaces_match_dense_reference(statistic, correction, events, grid, cells):
    pat, lam = planar_pattern(events)
    cfg = SummaryConfig(statistic=statistic, correction=correction, **GRIDS[grid])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(network, "_CELLS", cells)
        got = surfaces(pat, lam, cfg)
        # every ordered pair, folded in the same steps: with a small budget
        # the first step often holds no pair inside the grid
        m.setattr(summaries, "_pairs", one_block(dense_pairs))
        folded = surfaces(pat, lam, cfg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summaries, "_pairs", one_block(dense_pairs))
        want = surfaces(pat, lam, cfg)
    for a, b, c in zip(got, folded, want):
        assert np.array_equal(a, c) and np.array_equal(b, c)


@settings(max_examples=30, deadline=None)
@given(background=planar_events, alternative=planar_events, same=st.booleans(), cells=CELLS)
def test_planar_pairs_are_the_live_dense_pairs_in_reach(background, alternative, same, cells):
    # patterns in input row order, not time order: each block's partners
    # must still come out row-major
    X, lam = planar_pattern(background)
    Z = X if same else planar_pattern(alternative)[0]
    cfg = resolve_config(X, SummaryConfig(statistic="g"))
    lam = lam if same else None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(network, "_CELLS", cells)
        got = joined(summaries._pairs(X, Z, cfg, lam))
    want = dense_pairs(X, Z, cfg, lam)
    reach = (want[2] <= cfg.rs[-1] + cfg.br) & (want[3] <= cfg.hs[-1] + cfg.bh) & (want[4] > 0)
    for a, b in zip(got[:5], want[:5]):
        assert np.array_equal(a, b[reach])


def test_fold_whose_first_step_has_no_pair_in_the_grid(monkeypatch):
    # np.bincount of no keys is int64 even with float weights; the fold
    # writes it into its float accumulator, and later steps add to it
    pat = PointPattern(np.array([[0.5, 0.5, 0.5]]), UNIT_W, UNIT_T)
    cfg = resolve_config(pat, SummaryConfig(rs=np.array([0.1, 0.2]), hs=np.array([0.1, 0.2])))
    d, dt = np.array([0.3, 0.05, 0.15, 0.05]), np.array([0.05, 0.3, 0.05, 0.15])
    w = np.array([1.0, 2.0, 0.5, 0.25])
    want = summaries._lag_sums(pat, cfg, 1.0, d, dt, w, np.array([0, 1, 1, 0]), 2)
    monkeypatch.setattr(network, "_CELLS", 1)
    got = summaries._lag_sums(pat, cfg, 1.0, d, dt, w, np.array([0, 1, 1, 0]), 2)
    assert got.dtype == np.float64 and np.array_equal(got, want)
    assert np.array_equal(got[:, -1, -1], [0.25, 0.5])


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_multi_block_sweep_matches_dense_reference(statistic):
    # several origin blocks at the package's own cell budget
    rng = np.random.default_rng(7)
    pat = PointPattern(rng.random((701, 3)), UNIT_W, UNIT_T)
    assert len(network._origin_blocks(None, pat.n, pat.n)) >= 3
    lam = rng.uniform(100.0, 400.0, pat.n)
    cfg = SummaryConfig(statistic=statistic)
    got = surfaces(pat, lam, cfg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summaries, "_pairs", one_block(dense_pairs))
        want = surfaces(pat, lam, cfg)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("statistic", ["K", "g"])
@pytest.mark.parametrize("correction", ["translation", "none"])
@settings(max_examples=30, deadline=None)
@given(events=planar_events, grid=st.sampled_from(range(len(GRIDS))))
def test_planar_surfaces_match_dense_accumulators(statistic, correction, events, grid):
    pat, lam = planar_pattern(events)
    cfg = resolve_config(
        pat, SummaryConfig(statistic=statistic, correction=correction, **GRIDS[grid])
    )
    glob, loc = surfaces(pat, lam, cfg)
    # the surfaces sum their pairs in canonical event order; local surface
    # k of the sorted pattern belongs to input row order[k]
    order = summaries._canonical_order(pat, lam)
    srt = pat.subset(order)
    i, _, d, dt, w, _ = dense_pairs(srt, srt, cfg, lam[order])
    pref = 1.0 / pat.volume
    if statistic == "K":
        assert np.array_equal(glob, dense_k(d, dt, w, cfg) * pref)
        for k in range(pat.n):
            row = i == k
            want = dense_k(d[row], dt[row], w[row], cfg) * pref * pat.n
            assert np.array_equal(loc[order[k]], want)
        return
    unit = (pref / (4.0 * math.pi * cfg.rs))[:, None]
    want = dense_g(d, dt, w, cfg) * unit
    assert np.abs(glob - want).max() <= sum_bound(pat.n, want)
    for k in range(pat.n):
        row = i == k
        want = dense_g(d[row], dt[row], w[row], cfg) * unit * pat.n
        assert np.abs(loc[order[k]] - want).max() <= sum_bound(pat.n, want)


@pytest.mark.parametrize("method", ["K", "g"])
@settings(max_examples=15, deadline=None)
@given(
    background=planar_events,
    alternative=planar_events.filter(lambda e: len(e) >= 2),
    grid=st.sampled_from(range(len(GRIDS))),
    cells=CELLS,
)
def test_planar_localtest_matches_dense_reference(method, background, alternative, grid, cells):
    X, _ = planar_pattern(background)
    Z, _ = planar_pattern(alternative)
    cfg = SummaryConfig(**GRIDS[grid])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(network, "_CELLS", cells)
        got = localtest(X, Z, method, k=9, alpha=0.2, config=cfg, seed=3).pvalues
    with pytest.MonkeyPatch.context() as m:
        m.setattr(diagnostics, "_pairs", one_block(dense_pairs))
        want = localtest(X, Z, method, k=9, alpha=0.2, config=cfg, seed=3).pvalues
    assert np.array_equal(got, want)
