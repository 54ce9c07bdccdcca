"""Planar pair engine against the dense all-pairs reference.

The package lists only pairs within the lag reach, found by a time-sorted
sweep, and sums every surface with one sequential ``bincount``.  Swapping
the dense reference of ``planar_reference``, which lists every ordered
pair, in for the internal pair function must leave every K and g surface,
global and local, and every ``localtest`` p-value bit-identical.  K must
also equal the dense ``np.add.at`` accumulator bit for bit, and g the
dense matrix-product accumulator within the float64 bound of a sum of
positive terms.  Events are random, some exactly on the window and
interval edges or on the half-way lines, where lags tie with grid nodes
and translation weights vanish.
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
from stpoint import diagnostics, summaries
from stpoint.summaries import resolve_config

from planar_reference import dense_g, dense_k, dense_pairs
from test_summaries import UNIT_T, UNIT_W, planar_events, planar_pattern, sum_bound

# the default grids; a grid whose last nodes are realised lags; and wide
# bandwidths whose reach passes the window side, where dead pairs live
GRIDS = [
    {},
    {"rs": np.array([0.25, 0.5]), "hs": np.array([0.5, 1.0])},
    {"rs": np.array([0.1, 0.3, 0.5]), "hs": np.array([0.25, 0.5, 1.0]), "br": 0.6, "bh": 0.5},
]

# sweep block sizes: one origin per block, a few, and the package's own
BLOCKS = st.sampled_from([1, 3, summaries._BLOCK])


def surfaces(pattern, lam, cfg):
    glob = second_order_global(pattern, lam, cfg)
    loc = second_order_local(pattern, lam, cfg)
    return glob.est, np.array([s.est for s in loc.surfaces])


@pytest.mark.parametrize("statistic", ["K", "g"])
@pytest.mark.parametrize("correction", ["translation", "none"])
@settings(max_examples=30, deadline=None)
@given(events=planar_events, grid=st.sampled_from(range(len(GRIDS))), block=BLOCKS)
def test_planar_surfaces_match_dense_reference(statistic, correction, events, grid, block):
    pat, lam = planar_pattern(events)
    cfg = SummaryConfig(statistic=statistic, correction=correction, **GRIDS[grid])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summaries, "_BLOCK", block)
        got = surfaces(pat, lam, cfg)
        m.setattr(summaries, "_pairs", dense_pairs)
        want = surfaces(pat, lam, cfg)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_multi_block_sweep_matches_dense_reference(statistic):
    # several sweep blocks at the package's own block size
    rng = np.random.default_rng(7)
    pat = PointPattern(rng.random((3 * summaries._BLOCK + 17, 3)), UNIT_W, UNIT_T)
    lam = rng.uniform(100.0, 400.0, pat.n)
    cfg = SummaryConfig(statistic=statistic)
    got = surfaces(pat, lam, cfg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summaries, "_pairs", dense_pairs)
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
    block=BLOCKS,
)
def test_planar_localtest_matches_dense_reference(method, background, alternative, grid, block):
    X, _ = planar_pattern(background)
    Z, _ = planar_pattern(alternative)
    cfg = SummaryConfig(**GRIDS[grid])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summaries, "_BLOCK", block)
        got = localtest(X, Z, method, k=9, alpha=0.2, config=cfg, seed=3).pvalues
        m.setattr(diagnostics, "_pairs", dense_pairs)
        want = localtest(X, Z, method, k=9, alpha=0.2, config=cfg, seed=3).pvalues
    assert np.array_equal(got, want)
