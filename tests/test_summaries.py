"""Second-order summaries: K and pair-correlation surfaces, global and local.

The global estimators are checked against direct double-sum oracles
written out longhand, and the local (per-event) surfaces against the
aggregation identity: averaging the n local surfaces reproduces the
global one at every grid node.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import (
    IntensitySpec,
    LinearNetwork,
    PointPattern,
    SpatialWindow,
    SummaryConfig,
    TimeInterval,
    pattern_from_table,
    second_order_global,
    second_order_local,
    sim_poisson,
    temporal_multiplicity,
)
from stpoint import network, summaries
from stpoint.summaries import resolve_config

UNIT_W = SpatialWindow(0.0, 1.0, 0.0, 1.0)
UNIT_T = TimeInterval(0.0, 1.0)


def planar(rows, window=UNIT_W, interval=UNIT_T):
    return pattern_from_table(rows, window=window, interval=interval)


def test_default_grids_planar(poisson100):
    cfg = resolve_config(poisson100, None)
    assert len(cfg.rs) == 10 and len(cfg.hs) == 10
    assert cfg.rs[-1] == pytest.approx(0.25)  # quarter of the shorter side
    assert cfg.hs[-1] == pytest.approx(0.25)
    assert np.allclose(np.diff(cfg.rs), cfg.rs[0])
    assert cfg.br == pytest.approx(0.025)
    assert cfg.bh == pytest.approx(0.025)


def test_default_grid_network(net_poisson):
    net = net_poisson.network
    cfg = resolve_config(net_poisson, None)
    mean_len = net.total_length / len(net.segments)
    assert cfg.rs[-1] <= 2.5 * mean_len + 1e-12
    assert len(cfg.rs) == 10


def test_config_validation(poisson100):
    with pytest.raises(ValueError, match="statistic"):
        resolve_config(poisson100, SummaryConfig(statistic="L"))
    with pytest.raises(ValueError, match="correction"):
        resolve_config(poisson100, SummaryConfig(correction="border"))
    with pytest.raises(ValueError, match="increasing"):
        resolve_config(poisson100, SummaryConfig(rs=np.array([0.2, 0.1])))
    with pytest.raises(ValueError, match="positive"):
        resolve_config(poisson100, SummaryConfig(rs=np.array([0.0, 0.1])))
    with pytest.raises(ValueError, match="half the shorter"):
        resolve_config(poisson100, SummaryConfig(rs=np.array([0.3, 0.7])))
    with pytest.raises(ValueError, match="bandwidths"):
        resolve_config(poisson100, SummaryConfig(br=-0.1))
    # non-finite lags and bandwidths used to give an all-zero surface
    nan = float("nan")
    for grids in ({"rs": np.array([0.1, nan])}, {"hs": np.array([0.1, nan])}, {"hs": [nan]}):
        with pytest.raises(ValueError, match="lags must be positive and finite"):
            resolve_config(poisson100, SummaryConfig(**grids))
    for bw in ({"br": nan}, {"bh": math.inf}):
        with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
            resolve_config(poisson100, SummaryConfig(**bw))
    with pytest.raises(ValueError, match="lags must be positive and finite"):
        second_order_global(poisson100, 300.0, SummaryConfig(rs=np.array([0.1, nan])))
    # empty grids used to raise a bare IndexError, 2-d ones numpy's
    # "truth value ... is ambiguous"
    for name, lags in (("rs", np.array([])), ("hs", []), ("rs", np.array([[0.1, 0.2]])),
                       ("hs", [[0.1], [0.2]])):
        with pytest.raises(ValueError, match=f"lag grid {name} must be a non-empty 1-d"):
            resolve_config(poisson100, SummaryConfig(**{name: lags}))
    with pytest.raises(ValueError, match="lag grid rs"):
        second_order_global(poisson100, 300.0, SummaryConfig(rs=np.array([])))


def test_local_ids_must_be_integers(poisson100):
    # truncated, ids [1.5, 2.9] used to come back as [1, 2]
    for ids in ([1.5, 2.9], [np.nan], [np.inf]):
        with pytest.raises(ValueError, match="ids must be integers"):
            second_order_local(poisson100, 100.0, ids=ids)
    got = second_order_local(poisson100, 100.0, ids=[2.0, 5])
    assert got.ids.tolist() == [2, 5]
    want = second_order_local(poisson100, 100.0, ids=[2, 5])
    assert all(np.array_equal(a.est, b.est) for a, b in zip(got.surfaces, want.surfaces))


def test_lam_validation(poisson100):
    with pytest.raises(ValueError, match="positive"):
        second_order_global(poisson100, 0.0)
    with pytest.raises(ValueError, match="one value per event"):
        second_order_global(poisson100, np.ones(3))


def test_single_event_gives_zero_surface():
    pat = planar([(0.5, 0.5, 0.5)])
    s = second_order_global(pat, 1.0)
    assert np.all(s.est == 0.0)
    assert s.theo.shape == s.est.shape
    lista = second_order_local(pat, 1.0)
    assert len(lista) == 1
    assert np.all(lista.surfaces[0].est == 0.0)


def test_three_point_k_matches_double_sum():
    rows = [(0.2, 0.2, 0.1), (0.6, 0.25, 0.35), (0.35, 0.8, 0.9)]
    pat = planar(rows)
    lam = 3.0
    cfg = SummaryConfig(
        rs=np.linspace(0.05, 0.5, 10), hs=np.linspace(0.05, 0.5, 10),
        correction="none",
    )
    got = second_order_global(pat, lam, cfg).est

    want = np.zeros((10, 10))
    for a, r in enumerate(cfg.rs):
        for b, h in enumerate(cfg.hs):
            acc = 0.0
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    d = math.hypot(rows[i][0] - rows[j][0], rows[i][1] - rows[j][1])
                    dt = abs(rows[i][2] - rows[j][2])
                    if d <= r and dt <= h:
                        acc += 1.0 / (lam * lam)
            want[a, b] = acc / pat.volume
    assert np.array_equal(got, want)
    assert want.max() > 0  # the grid actually captures pairs


def test_two_point_translation_weight_by_hand():
    w = SpatialWindow(0.0, 1.0, 0.0, 1.0)
    iv = TimeInterval(0.0, 2.0)
    pat = planar([(0.2, 0.3, 0.5), (0.5, 0.7, 1.0)], window=w, interval=iv)
    cfg = SummaryConfig(rs=np.array([0.5]), hs=np.array([0.5]))
    got = second_order_global(pat, 1.0, cfg).est[0, 0]
    # dx=0.3, dy=0.4, dt=0.5; both ordered pairs share the weight
    weight = ((1 - 0.3) * (1 - 0.4) * (2 - 0.5)) / (1.0 * 2.0)
    want = 2.0 / weight / (1.0 * 2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_pcf_matches_kernel_double_sum():
    rows = [(0.2, 0.2, 0.1), (0.6, 0.25, 0.35), (0.35, 0.8, 0.9), (0.7, 0.6, 0.5)]
    pat = planar(rows)
    lam = 4.0
    rs = np.linspace(0.1, 0.5, 5)
    hs = np.linspace(0.1, 0.5, 5)
    cfg = SummaryConfig(statistic="g", rs=rs, hs=hs, correction="none", br=0.2, bh=0.3)
    got = second_order_global(pat, lam, cfg).est

    def epan(u, b):
        return 0.75 * (1 - (u / b) ** 2) / b if abs(u) <= b else 0.0

    want = np.zeros((5, 5))
    for a, r in enumerate(rs):
        for bidx, h in enumerate(hs):
            acc = 0.0
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    d = math.hypot(rows[i][0] - rows[j][0], rows[i][1] - rows[j][1])
                    dt = abs(rows[i][2] - rows[j][2])
                    acc += epan(r - d, 0.2) * epan(h - dt, 0.3) / (lam * lam)
            want[a, bidx] = acc / (4 * math.pi * r * pat.volume)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert want.max() > 0


def test_network_k_disconnected_components_by_hand():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [2.0, 5.0]])
    net = LinearNetwork(verts, np.array([[0, 1], [2, 3]]))
    coords = np.array(
        [[1.0, 0.0, 0.4], [0.8, 5.0, 0.5], [1.2, 5.0, 0.6]]
    )
    pat = PointPattern(
        coords,
        SpatialWindow(0.0, 2.0, 0.0, 5.0),
        UNIT_T,
        {},
        net,
        np.array([0, 1, 1]),
        np.array([1.0, 0.8, 1.2]),
    )
    cfg = SummaryConfig(rs=np.array([0.2, 0.4, 0.6]), hs=np.array([0.05, 0.1, 0.2]))
    s = second_order_global(pat, 1.0, cfg)
    # the 4 ordered cross-component pairs are unreachable, hence skipped
    assert s.skipped_pairs == 4
    # remaining pair: distance 0.4, lag 0.1, m_L = 2 both ways, m_T = 2 both ways
    want = (2.0 / (2 * 2)) / (net.total_length * 1.0)
    assert s.est[0, 0] == 0.0
    assert s.est[1, 0] == 0.0
    assert s.est[1, 1] == pytest.approx(want, rel=1e-12)
    assert s.est[2, 2] == pytest.approx(want, rel=1e-12)


@st.composite
def times_near_the_ends(draw):
    """(t0, t1, ti, tj): an interval far from 0, ti at or one ulp inside an end."""
    t0, t1 = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True)))
    ends = st.sampled_from([t0, t1, np.nextafter(t0, t1), np.nextafter(t1, t0)])
    return t0, t1, draw(ends), draw(st.one_of(ends, ends, st.floats(t0, t1)))


@settings(max_examples=1000, deadline=None)
@given(times_near_the_ends())
def test_zero_temporal_count_needs_a_time_next_to_an_end(case):
    # a property of temporal_multiplicity: evaluated in floats, both sides
    # of t_i can round out only for a partner this close to t0 or t1.  The
    # summaries take the partner's own side as inside, so m_T >= 1 there
    t0, t1, ti, tj = case
    if temporal_multiplicity(TimeInterval(t0, t1), ti, abs(ti - tj)) == 0:
        slop = 4.0 * np.finfo(float).eps * (max(abs(ti), abs(tj)) + abs(t0) + abs(t1))
        assert tj <= t0 + slop or tj >= t1 - slop


def test_time_slice_keeps_a_lag_that_rounds_onto_hmax(monkeypatch):
    # fl(t_i - t_j) equals the last time lag, yet t_j < fl(t_i - hmax): the
    # one-origin block of t_i finds t_j only through _time_slice's rounding
    # margin.  Both ordered pairs count, 1/|W x T| = 0.5 each
    monkeypatch.setattr(network, "_CELLS", 1)
    ti, tj = 1.7511107893000568, 0.1777335123147132
    hs = np.array([0.5, 1.5733772769853436])
    assert ti - tj == hs[-1] and tj < ti - hs[-1]
    pat = planar([[0.5, 0.5, ti], [0.52, 0.5, tj]], interval=TimeInterval(0.0, 2.0))
    s = second_order_global(pat, 1.0, SummaryConfig(hs=hs, correction="none"))
    assert s.est[-1, -1] == 1.0


def test_network_refuses_correction_none(net_poisson):
    # the network estimator always divides by m and m_T
    for call in (second_order_global, second_order_local):
        with pytest.raises(ValueError, match="correction='none' applies only to planar"):
            call(net_poisson, 1.0, SummaryConfig(correction="none"))


def test_network_normalize_toggle(net_poisson):
    lam = np.full(net_poisson.n, net_poisson.n / net_poisson.volume)
    cfg = SummaryConfig(rs=np.array([0.4, 0.8]), hs=np.array([0.1, 0.2]))
    s_norm = second_order_global(net_poisson, lam, cfg)
    s_raw = second_order_global(
        net_poisson, lam, SummaryConfig(rs=cfg.rs, hs=cfg.hs, normalize=False)
    )
    # prefactors: 1/(|L||T|) versus 1/sum(1/lam); the ratio is flat
    ratio = (1.0 / net_poisson.volume) / (1.0 / np.sum(1.0 / lam))
    assert np.allclose(s_norm.est, s_raw.est * ratio, rtol=1e-12)


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_lista_mean_identity_planar(poisson100, statistic):
    lam = poisson100.n / poisson100.volume
    cfg = SummaryConfig(statistic=statistic)
    glob = second_order_global(poisson100, lam, cfg)
    lista = second_order_local(poisson100, lam, cfg)
    assert len(lista) == poisson100.n
    gap = np.abs(lista.mean_surface().est - glob.est)
    assert gap.max() <= 1e-10


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_lista_mean_identity_network(net_poisson, statistic):
    lam = net_poisson.n / net_poisson.volume
    cfg = SummaryConfig(statistic=statistic)
    glob = second_order_global(net_poisson, lam, cfg)
    lista = second_order_local(net_poisson, lam, cfg)
    gap = np.abs(lista.mean_surface().est - glob.est)
    assert gap.max() <= 1e-10


EPS = np.finfo(np.float64).eps

# events on the 19-segment grid_network: (segment, fraction along it, time,
# intensity); fractions 0 and 1 put events on vertices
network_events = st.lists(
    st.tuples(
        st.integers(0, 18), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.5, 4.0)
    ),
    min_size=2,
    max_size=25,
)


def network_pattern(net, events):
    seg, frac, t, lam = (np.array(c) for c in zip(*events))
    off = frac * net.lengths[seg]
    coords = np.column_stack([net.segment_point(seg, off), t])
    return PointPattern(coords, SpatialWindow(0.0, 3.0, 0.0, 2.0), UNIT_T, {}, net, seg, off), lam


def sum_bound(n, est):
    """Float64 error bound of a K surface summed from n(n - 1) positive pair
    terms, the tolerance of perfbench's local-mean check."""
    return (n * n + 2 * n + 2 * est.size) * EPS * float(np.abs(est).max())


@settings(max_examples=40, deadline=None)
@given(events=network_events)
def test_network_k_local_mean_is_global(grid_network, events):
    pat, lam = network_pattern(grid_network, events)
    glob = second_order_global(pat, lam)
    mean = second_order_local(pat, lam).mean_surface().est
    assert np.abs(mean - glob.est).max() <= sum_bound(pat.n, glob.est)


def assert_permutation_invariant(pat, lam, perm, cfg=None):
    """Global surfaces bit-identical, local ones permuted with the rows."""
    a = second_order_global(pat, lam, cfg)
    b = second_order_global(pat.subset(perm), lam[perm], cfg)
    assert a.skipped_pairs == b.skipped_pairs
    assert np.array_equal(a.est, b.est)
    la = second_order_local(pat, lam, cfg)
    lb = second_order_local(pat.subset(perm), lam[perm], cfg)
    assert la.skipped_pairs == lb.skipped_pairs
    assert np.array_equal(
        np.array([s.est for s in la.surfaces])[perm], np.array([s.est for s in lb.surfaces])
    )


@settings(max_examples=40, deadline=None)
@given(events=network_events, data=st.data())
def test_network_k_row_order_invariant(grid_network, events, data):
    pat, lam = network_pattern(grid_network, events)
    perm = np.array(data.draw(st.permutations(range(pat.n))))
    assert_permutation_invariant(pat, lam, perm)


@settings(max_examples=20, deadline=None)
@given(events=network_events, data=st.data())
def test_network_pcf_row_order_invariant(grid_network, events, data):
    pat, lam = network_pattern(grid_network, events)
    perm = np.array(data.draw(st.permutations(range(pat.n))))
    assert_permutation_invariant(pat, lam, perm, SummaryConfig(statistic="g"))


# planar events on the unit cube: (x, y, t, intensity); some sit exactly on
# the window and interval edges or on the half-way lines
edge_coord = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
planar_events = st.lists(
    st.tuples(edge_coord, edge_coord, edge_coord, st.floats(0.5, 4.0)),
    min_size=1,
    max_size=30,
)


def planar_pattern(events):
    coords = np.array([e[:3] for e in events], dtype=float)
    return PointPattern(coords, UNIT_W, UNIT_T), np.array([e[3] for e in events])


@pytest.mark.parametrize("statistic", ["K", "g"])
@settings(max_examples=40, deadline=None)
@given(events=planar_events)
def test_planar_local_mean_is_global(statistic, events):
    pat, lam = planar_pattern(events)
    cfg = SummaryConfig(statistic=statistic)
    glob = second_order_global(pat, lam, cfg)
    mean = second_order_local(pat, lam, cfg).mean_surface().est
    assert np.abs(mean - glob.est).max() <= sum_bound(pat.n, glob.est)


@pytest.mark.parametrize("statistic", ["K", "g"])
@settings(max_examples=40, deadline=None)
@given(events=planar_events, data=st.data())
def test_planar_row_order_invariant(statistic, events, data):
    pat, lam = planar_pattern(events)
    perm = np.array(data.draw(st.permutations(range(pat.n))))
    assert_permutation_invariant(pat, lam, perm, SummaryConfig(statistic=statistic))


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_coincident_events_row_order_invariant(statistic):
    # events at one point, with different intensities, are told apart by
    # their intensity
    rng = np.random.default_rng(8)
    coords = np.vstack([np.full((5, 3), 0.5), rng.uniform(0.3, 0.7, (15, 3))])
    pat = PointPattern(coords, UNIT_W, UNIT_T)
    lam = rng.uniform(0.5, 4.0, pat.n)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(pat.n)
        assert_permutation_invariant(pat, lam, perm, SummaryConfig(statistic=statistic))


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_poisson_row_order_invariant(statistic):
    pat = sim_poisson(IntensitySpec.constant(500.0), window=UNIT_W, interval=UNIT_T, seed=4)
    lam = np.random.default_rng(4).uniform(300.0, 700.0, pat.n)
    perm = np.random.default_rng(5).permutation(pat.n)
    assert_permutation_invariant(pat, lam, perm, SummaryConfig(statistic=statistic))
    # simulated patterns come time-sorted with distinct times, so they are
    # summed in their own row order, as before canonical sorting
    assert np.array_equal(summaries._canonical_order(pat, lam), np.arange(pat.n))


def test_pcf_memory_fence():
    # only pairs within the lag reach are built: a dense (n^2, grid) kernel
    # table would need about 3 GB here
    pat = sim_poisson(IntensitySpec.constant(3000.0), window=UNIT_W, interval=UNIT_T, seed=0)
    assert 2800 < pat.n < 3200
    tracemalloc.start()
    try:
        second_order_global(pat, float(pat.n), SummaryConfig(statistic="g"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20


@pytest.mark.parametrize("statistic, bound_mb", [("K", 80), ("g", 100)])
def test_planar_pair_block_memory_fence(statistic, bound_mb):
    # each origin block's pairs are folded into the surface as they are
    # made, so the peak is about one block: 3.1 MB for K and 3.6 MB for g
    # here, where the joined in-range pair columns peaked at 51 and 66 MB,
    # the whole-table sweep and the all-pairs kernel band at 104 and 240 MB
    pat = sim_poisson(IntensitySpec.constant(4000.0), window=UNIT_W, interval=UNIT_T, seed=0)
    assert 3800 < pat.n < 4200
    tracemalloc.start()
    try:
        second_order_global(pat, float(pat.n), SummaryConfig(statistic=statistic))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


WIDE_GRID = 0.25 * np.arange(1, 21) / 20


@pytest.mark.parametrize(
    "n, config, bound_mb",
    [
        (2000, SummaryConfig(statistic="K"), 40),
        (2000, SummaryConfig(statistic="g"), 40),
        (300, SummaryConfig(statistic="g", rs=WIDE_GRID, hs=WIDE_GRID, br=0.25, bh=0.25), 20),
    ],
    ids=["K", "g", "g-wide-bands"],
)
@pytest.mark.parametrize("surface", [second_order_global, second_order_local])
def test_pair_block_memory_fence_with_every_pair_in_reach(surface, n, config, bound_mb):
    # all events in a 0.05-wide cube: every pair a block tries is within the
    # lag reach, so each block holds its full budget of pairs.  Blocks are
    # folded as they are made, so the peak is a few blocks: 20-22 MB for K
    # and g, where joining every pair before the fold peaked at 188 MB.
    # Wide bandwidths on a 20 x 20 lag grid spread each pair over all 400
    # nodes; the fold takes a block in steps of the cell budget, so the peak
    # is 10-11 MB, where folding a whole block at once peaked at 882 MB
    pat = PointPattern(0.4 + 0.05 * np.random.default_rng(0).random((n, 3)), UNIT_W, UNIT_T)
    tracemalloc.start()
    try:
        surface(pat, float(pat.n), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_two_points_symmetric_locals():
    pat = planar([(0.3, 0.3, 0.3), (0.5, 0.6, 0.5)])
    cfg = SummaryConfig(rs=np.array([0.2, 0.4]), hs=np.array([0.2, 0.4]))
    lista = second_order_local(pat, 2.0, cfg)
    glob = second_order_global(pat, 2.0, cfg)
    assert np.allclose(lista.surfaces[0].est, lista.surfaces[1].est, rtol=1e-14)
    assert np.allclose(lista.mean_surface().est, glob.est, rtol=1e-14)


def test_k_monotone_in_both_lags(poisson100):
    lam = poisson100.n / poisson100.volume
    est = second_order_global(poisson100, lam).est
    assert (np.diff(est, axis=0) >= -1e-14).all()
    assert (np.diff(est, axis=1) >= -1e-14).all()


def test_scale_equivariance_without_correction(poisson100):
    lam = poisson100.n / poisson100.volume
    rs = np.linspace(0.025, 0.25, 10)
    hs = np.linspace(0.025, 0.25, 10)
    base = second_order_global(
        poisson100, lam, SummaryConfig(rs=rs, hs=hs, correction="none")
    ).est
    big = PointPattern(
        poisson100.coords * [2.0, 2.0, 1.0],
        SpatialWindow(0.0, 2.0, 0.0, 2.0),
        UNIT_T,
    )
    scaled = second_order_global(
        big, lam / 4.0, SummaryConfig(rs=2 * rs, hs=hs, correction="none")
    ).est
    assert np.allclose(scaled, 4.0 * base, rtol=1e-9)


def test_theoretical_surfaces(poisson100, net_poisson):
    sk = second_order_global(poisson100, 100.0)
    assert np.allclose(sk.theo, 2 * math.pi * np.outer(sk.rs**2, sk.hs))
    sg = second_order_global(poisson100, 100.0, SummaryConfig(statistic="g"))
    assert np.all(sg.theo == 1.0)
    sn = second_order_global(net_poisson, 3.0)
    assert np.allclose(sn.theo, np.outer(sn.rs, sn.hs))


def test_local_subset_ids(net_poisson):
    lam = net_poisson.n / net_poisson.volume
    lista = second_order_local(net_poisson, lam, ids=[1, 2, 3])
    assert lista.ids.tolist() == [1, 2, 3]
    assert len(lista.surfaces) == 3
    for s in lista.surfaces:
        assert s.est.shape == (len(s.rs), len(s.hs))
    with pytest.raises(ValueError, match="ids"):
        second_order_local(net_poisson, lam, ids=[0])
    with pytest.raises(ValueError, match="ids"):
        second_order_local(net_poisson, lam, ids=[net_poisson.n + 1])


def test_local_matches_direct_formula():
    # local K for event i, constant lam, no correction:
    # (n/volume) * sum_j 1{d_ij <= r, dt_ij <= h} / lam^2
    rows = [(0.2, 0.2, 0.1), (0.6, 0.25, 0.35), (0.35, 0.8, 0.9)]
    pat = planar(rows)
    lam = 3.0
    cfg = SummaryConfig(
        rs=np.linspace(0.1, 0.5, 5), hs=np.linspace(0.1, 0.5, 5), correction="none"
    )
    lista = second_order_local(pat, lam, cfg)
    for i in range(3):
        want = np.zeros((5, 5))
        for a, r in enumerate(cfg.rs):
            for b, h in enumerate(cfg.hs):
                acc = 0.0
                for j in range(3):
                    if j == i:
                        continue
                    d = math.hypot(rows[i][0] - rows[j][0], rows[i][1] - rows[j][1])
                    dt = abs(rows[i][2] - rows[j][2])
                    if d <= r and dt <= h:
                        acc += 1.0 / (lam * lam)
                want[a, b] = acc * 3.0 / pat.volume
        assert np.array_equal(lista.surfaces[i].est, want)


def test_surface_str_mentions_grid():
    pat = planar([(0.2, 0.2, 0.1), (0.6, 0.25, 0.35)])
    s = second_order_global(pat, 2.0)
    text = str(s)
    assert "K-function" in text and "10 x 10" in text
