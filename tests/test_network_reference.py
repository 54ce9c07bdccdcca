"""Network pair tables against the dense all-pairs reference.

The package lists only pairs within the lag reach (r_max and h_max for K,
plus b_r and b_h for g) and evaluates equidistant counts only for them.
Swapping the dense reference of ``network_reference``, which lists every
ordered pair, in for the internal pair function must leave every
K and g surface, global and local, every ``skipped_pairs`` count and every
``localtest`` p-value bit-identical.  Patterns are random, with a quarter
of the events placed on vertices or segment midpoints where distances tie;
the surfaces are also checked with every event on a vertex.
"""

import itertools

import numpy as np
import pytest

from stpoint import (
    LinearNetwork,
    PointPattern,
    SpatialWindow,
    SummaryConfig,
    TimeInterval,
    localtest,
    pairwise_network_distances,
    second_order_global,
    second_order_local,
)
from stpoint import diagnostics, summaries

from conftest import one_block
from network_reference import dense_distances, dense_pairs

UNIT_T = TimeInterval(0.0, 1.0)
NETWORKS = ["grid_network", "cycle_network", "two_components"]


@pytest.fixture(scope="module")
def two_components():
    """Two parallel segments of length 2, five apart: no path between them."""
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [2.0, 5.0]])
    return LinearNetwork(verts, np.array([[0, 1], [2, 3]]))


def random_pattern(net, n, rng, on_ends=0.0):
    """n random events; the first share on_ends of them moved to their nearer segment end."""
    seg = rng.integers(len(net.segments), size=n)
    frac = rng.uniform(0.0, 1.0, n)
    snap = rng.random(n) < 0.25
    frac[snap] = rng.choice([0.0, 0.5, 1.0], size=int(snap.sum()))
    frac[: int(on_ends * n)] = np.round(frac[: int(on_ends * n)])
    off = frac * net.lengths[seg]
    xy = net.segment_point(seg, off)
    v = net.vertices
    win = SpatialWindow(v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())
    coords = np.column_stack([xy, rng.uniform(0.0, 1.0, n)])
    return PointPattern(coords, win, UNIT_T, {}, net, seg, off)


def surfaces(pattern, lam, cfg):
    glob = second_order_global(pattern, lam, cfg)
    loc = second_order_local(pattern, lam, cfg)
    stack = np.array([s.est for s in loc.surfaces])
    return glob.est, glob.skipped_pairs, stack, loc.skipped_pairs


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("statistic", ["K", "g"])
# the last grid ends on a distance that vertex and midpoint events realise
@pytest.mark.parametrize("rs", [None, (0.1, 0.2, 0.3, 0.4), (0.25, 0.5, 1.0)])
def test_surfaces_match_dense_reference(request, monkeypatch, name, statistic, rs):
    net = request.getfixturevalue(name)
    cfg = SummaryConfig(statistic=statistic, rs=None if rs is None else np.array(rs))
    # with every event on a vertex, each pair distance is a breakpoint of its origin
    for seed, on_ends in itertools.product(range(8), (0.0, 1.0)):
        rng = np.random.default_rng(seed)
        pat = random_pattern(net, int(rng.integers(2, 30)), rng, on_ends)
        lam = rng.uniform(0.5, 2.0, pat.n)
        got = surfaces(pat, lam, cfg)
        with monkeypatch.context() as m:
            m.setattr(summaries, "_pairs", one_block(dense_pairs))
            want = surfaces(pat, lam, cfg)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("method", ["K", "g"])
def test_localtest_matches_dense_reference(request, monkeypatch, name, method):
    net = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    X = random_pattern(net, 15, rng)
    Z = random_pattern(net, 20, rng)
    got = localtest(X, Z, method, k=19, seed=11).pvalues
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_pairs", one_block(dense_pairs))
        want = localtest(X, Z, method, k=19, seed=11).pvalues
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", NETWORKS)
def test_pairwise_distances_match_dense_reference(request, name):
    net = request.getfixturevalue(name)
    for seed in range(5):
        pat = random_pattern(net, 25, np.random.default_rng(seed))
        got = pairwise_network_distances(net, pat.net_seg, pat.net_off)
        assert np.array_equal(got, dense_distances(net, pat.net_seg, pat.net_off))


def test_disconnected_skipped_pairs_match_dense_reference(monkeypatch, two_components):
    # the pattern of test_network_k_disconnected_components_by_hand
    coords = np.array([[1.0, 0.0, 0.4], [0.8, 5.0, 0.5], [1.2, 5.0, 0.6]])
    pat = PointPattern(
        coords, SpatialWindow(0.0, 2.0, 0.0, 5.0), UNIT_T, {}, two_components,
        np.array([0, 1, 1]), np.array([1.0, 0.8, 1.2]),
    )
    cfg = SummaryConfig(rs=np.array([0.2, 0.4, 0.6]), hs=np.array([0.05, 0.1, 0.2]))
    got = second_order_global(pat, 1.0, cfg)
    with monkeypatch.context() as m:
        m.setattr(summaries, "_pairs", one_block(dense_pairs))
        want = second_order_global(pat, 1.0, cfg)
    assert got.skipped_pairs == want.skipped_pairs == 4
    assert np.array_equal(got.est, want.est)
    assert second_order_local(pat, 1.0, cfg).mean_surface().skipped_pairs == 4
