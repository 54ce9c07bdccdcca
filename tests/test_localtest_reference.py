"""``localtest`` against the dense permutation-test reference.

Each origin's subsets come from uniform keys drawn in row blocks of the
cell budget and cut at the (n_X - 1)-th smallest key, and only the
origin's in-range partners are looked up.  Given the subsets that a full
argsort of the same keys lists, the dense reference of
``localtest_reference`` must give every p-value bit for bit, whatever the
budget.  Since those subsets are localtest's, their inclusion frequencies
are checked on the reference's lists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import PointPattern, SummaryConfig, localtest, sim_poisson
from stpoint import network

from localtest_reference import dense_pvalues, key_subsets
from test_summaries import UNIT_T, UNIT_W, planar_events, planar_pattern


def reference(X, Z, method, k, cfg, seed):
    return dense_pvalues(X, Z, method, k, cfg, key_subsets(seed, X.n, Z.n, k))


@pytest.mark.parametrize("method", ["K", "g"])
@settings(max_examples=20, deadline=None)
@given(
    background=planar_events,
    alternative=planar_events.filter(lambda e: len(e) >= 2),
    cells=st.sampled_from([1, 7, 300, network._CELLS]),
)
def test_localtest_matches_dense_reference(method, background, alternative, cells):
    X, _ = planar_pattern(background)
    Z, _ = planar_pattern(alternative)
    cfg = SummaryConfig()
    for k, alpha in ((9, 0.2), (1, 0.6)):  # k = 1: no leave-one-out mean
        with pytest.MonkeyPatch.context() as m:
            m.setattr(network, "_CELLS", cells)
            got = localtest(X, Z, method, k=k, alpha=alpha, config=cfg, seed=3).pvalues
        assert np.array_equal(got, reference(X, Z, method, k, cfg, 3))


@pytest.mark.parametrize("method", ["K", "g"])
def test_key_blocks_leave_pvalues_unchanged(method):
    # k (n_X - 1 + n_Z) = 300 * 540 keys per origin: two row blocks at the
    # real budget, one row per block at 1 and 7; lags up to 0.3 keep the
    # pairs near a thousand per origin, so one-pair fold steps stay cheap
    X = sim_poisson(30.0, window=UNIT_W, interval=UNIT_T, seed=5)
    Z = sim_poisson(500.0, window=UNIT_W, interval=UNIT_T, seed=6)
    k = 300
    assert len(network._origin_blocks(None, k, X.n - 1 + Z.n)) == 2
    cfg = SummaryConfig(rs=np.array([0.1, 0.2, 0.3]), hs=np.array([0.1, 0.2, 0.3]))
    want = reference(X, Z, method, k, cfg, 11)
    for cells in (1, 7, network._CELLS):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(network, "_CELLS", cells)
            got = localtest(X, Z, method, k=k, config=cfg, seed=11).pvalues
        assert np.array_equal(got, want)


def test_subset_members_are_drawn_uniformly():
    # each pool member is in a subset with probability (n_X - 1) / |pool|;
    # over k subsets its count is binomial, here inside 4.5 standard
    # deviations for every member of every origin
    nX, nZ, k = 12, 20, 4000
    q = (nX - 1) / (nX - 1 + nZ)
    half = 4.5 * np.sqrt(k * q * (1.0 - q))
    for subsets in key_subsets(2024, nX, nZ, k):
        assert subsets.shape == (k, nX - 1)
        assert (np.diff(subsets, axis=1) > 0).all()  # distinct members
        counts = np.bincount(subsets.ravel(), minlength=nX - 1 + nZ)
        assert np.all(np.abs(counts - k * q) < half)


def test_single_event_background_draws_no_subset(unit_window, unit_interval):
    X = PointPattern(np.array([[0.5, 0.5, 0.5]]), unit_window, unit_interval)
    Z = sim_poisson(25.0, window=UNIT_W, interval=UNIT_T, seed=3)
    got = localtest(X, Z, k=19, seed=0).pvalues
    assert np.array_equal(got, reference(X, Z, "K", 19, SummaryConfig(), 0))
