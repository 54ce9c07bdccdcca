"""Block shortest paths and equidistant counts against the heap oracle.

``network._vertex_distances`` relaxes the labels of all origins together,
and ``network._pair_geometry`` reads equidistant counts off each origin's
sorted breakpoints.  Both must agree bit for bit with ``network_reference``:
a binary-heap Dijkstra per origin, and one ``equidistant_counts`` call per
origin.  The networks are lattices with diagonals, a 400-segment chain, a
cycle, disconnected pieces and equal-length alternative routes; offsets sit
at segment ends, midpoints and quarter points, where distances tie.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import (
    IntensitySpec,
    LinearNetwork,
    NetworkPoint,
    PointPattern,
    SpatialWindow,
    SummaryConfig,
    TimeInterval,
    equidistant_count,
    equidistant_counts,
    localtest,
    network_distance,
    pairwise_network_distances,
    point_vertex_distances,
    second_order_global,
    second_order_local,
    sim_poisson,
)
from stpoint import diagnostics, network, summaries
from stpoint.network import VERTEX_TOL, _pair_geometry, _rank, _vertex_distances

from conftest import joined, one_block
from network_reference import dense_pairs, dijkstra, per_origin_pair_geometry

UNIT_T = TimeInterval(0.0, 1.0)


def lattice(k, diagonals=(), spacing=1.0, shift=(0.0, 0.0)):
    """k x k vertex lattice; diagonals lists the cells (i, j) given one."""
    xs = spacing * np.arange(k)
    verts = np.array([(x + shift[0], y + shift[1]) for y in xs for x in xs])
    segs = [(j * k + i, j * k + i + 1) for j in range(k) for i in range(k - 1)]
    segs += [(j * k + i, (j + 1) * k + i) for j in range(k - 1) for i in range(k)]
    segs += [(j * k + i, (j + 1) * k + i + 1) for i, j in diagonals]
    return verts, segs


def join(*parts):
    """One network from several (vertices, segments) parts, not connected."""
    verts, segs, base = [], [], 0
    for v, s in parts:
        verts.append(v)
        segs += [(a + base, b + base) for a, b in s]
        base += len(v)
    return LinearNetwork(np.vstack(verts), np.array(segs))


def chain(k):
    verts = np.column_stack([np.linspace(0.0, 1.0, k + 1), np.zeros(k + 1)])
    return LinearNetwork(verts, np.array([(i, i + 1) for i in range(k)]))


def cycle(k):
    angle = 2.0 * np.pi * np.arange(k) / k
    verts = np.column_stack([np.cos(angle), np.sin(angle)])
    return LinearNetwork(verts, np.array([(i, (i + 1) % k) for i in range(k)]))


# equal-length routes of one, two and three hops between vertices 0 and 1:
# 0-1 straight (length 2), 0-2-1 (1 + 1) and 0-3-4-1 (0.5 + 1 + 0.5), and
# a pair of routes whose float sums differ: 0.1 + 0.2 against 0.3
ALTERNATIVES = LinearNetwork(
    np.array(
        [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 0.5],
         [1.0, 1.0], [1.1, 1.0], [1.3, 1.0]]
    ),
    np.array([[0, 2], [2, 1], [0, 3], [3, 4], [4, 1], [1, 5], [5, 6], [6, 7], [5, 7]]),
)
FIXED = {
    "chain400": chain(400),
    "cycle8": cycle(8),
    "alternatives": ALTERNATIVES,
    "two_lattices": join(lattice(3, [(0, 0)]), lattice(2, shift=(10.0, 0.0))),
}


@st.composite
def networks(draw):
    name = draw(st.sampled_from(["lattice", *FIXED]))
    if name != "lattice":
        return FIXED[name]
    k = draw(st.integers(2, 6))
    cells = [(i, j) for i in range(k - 1) for j in range(k - 1)]
    diag = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    spacing = draw(st.sampled_from([1.0, 0.1, 0.3, 7.25]))
    return join(lattice(k, diag, spacing))


@st.composite
def points(draw, net, min_size=1, max_size=12):
    """(seg, off) arrays; offsets at 0, ell, ell/2, quarter points or anywhere."""
    n = draw(st.integers(min_size, max_size))
    ids = st.integers(0, len(net.segments) - 1)
    seg = np.array(draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64)
    ell = net.lengths[seg]
    where = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
            min_size=n, max_size=n,
        )
    )
    return seg, np.array(where, dtype=float) * ell


@st.composite
def network_and_points(draw):
    net = draw(networks())
    return net, draw(points(net))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(network_and_points())
def test_vertex_distances_match_heap_dijkstra(case):
    net, (seg, off) = case
    got = _vertex_distances(net, seg, off)
    want = np.array([dijkstra(net, (s, o)) for s, o in zip(seg.tolist(), off.tolist())])
    assert same_bits(got, want)
    for k in range(len(seg)):
        assert same_bits(point_vertex_distances(net, (int(seg[k]), float(off[k]))), want[k])


def test_vertex_distances_at_offsets_within_tolerance():
    # offsets up to VERTEX_TOL past either end are clamped onto the segment
    net = FIXED["alternatives"]
    ell = net.lengths
    seg = np.array([0, 1, 2, 8, 3])
    off = np.array([-0.5 * VERTEX_TOL, ell[1] + VERTEX_TOL, -0.0, ell[8], 0.5 * ell[3]])
    want = np.array([dijkstra(net, (s, o)) for s, o in zip(seg.tolist(), off.tolist())])
    assert same_bits(_vertex_distances(net, seg, off), want)


def test_vertex_distances_on_long_chain():
    # 400 hops end to end: the relaxation runs one round per hop
    net = FIXED["chain400"]
    seg, off = np.array([0, 399, 200]), np.array([0.0, net.lengths[399], 0.5 * net.lengths[200]])
    got = _vertex_distances(net, seg, off)
    want = np.array([dijkstra(net, (s, o)) for s, o in zip(seg.tolist(), off.tolist())])
    assert same_bits(got, want)
    assert got[0, -1] == pytest.approx(1.0) and got[1, 0] == pytest.approx(1.0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pair_geometry_matches_per_origin_loop(data):
    net = data.draw(networks())
    origins = data.draw(points(net))
    partners = origins if data.draw(st.booleans()) else data.draw(points(net, 0, 15))
    reach = data.draw(st.sampled_from([-np.inf, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, np.inf]))
    got = _pair_geometry(net, origins, partners, reach)
    want = per_origin_pair_geometry(net, origins, partners, reach)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_pair_geometry_far_from_breakpoints_uses_no_per_origin_call(monkeypatch):
    # random offsets on an irregular lattice: no lag sits near a breakpoint,
    # so the counts come from the sorted breakpoints alone
    verts, segs = lattice(5, [(0, 0), (2, 1), (3, 3)], spacing=0.37)
    net = join((verts + np.random.default_rng(0).uniform(-0.05, 0.05, verts.shape), segs))
    rng = np.random.default_rng(1)
    seg = rng.integers(len(net.segments), size=40)
    off = rng.uniform(0.05, 0.95, 40) * net.lengths[seg]
    want = per_origin_pair_geometry(net, (seg, off), (seg, off), 1.2)
    calls = []
    monkeypatch.setattr(network, "equidistant_counts", lambda *a, **k: calls.append(a))
    got = _pair_geometry(net, (seg, off), (seg, off), 1.2)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert calls == [] and (want[1][want[0] <= 1.2] >= 2).any()


@pytest.mark.parametrize("below", [0.0, 0.5 * VERTEX_TOL, 3 * VERTEX_TOL, 1e-6])
def test_counts_at_the_largest_lag_see_breakpoints_just_above_it(below):
    # from a vertex of the 4-cycle the antipode, half the perimeter away, is
    # a vertex hit and the peak of both arcs; within the tolerance below it the rule
    # counts 1 where crossings alone would give 2, and the lag is the
    # largest of its origin, so breakpoints above it must still be seen
    net = cycle(4)
    part = (np.array([0, 1, 1]), np.array([0.5, 0.5, net.lengths[1] - below]))
    origin = (np.array([0]), np.array([0.0]))
    got = _pair_geometry(net, origin, part, 3.0)
    want = per_origin_pair_geometry(net, origin, part, 3.0)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("off", [0.0, 0.5 * VERTEX_TOL, VERTEX_TOL])
def test_counts_next_to_a_start_vertex_whose_head_piece_is_left_out(off):
    # the origin sits within VERTEX_TOL of the centre vertex of a 3 x 3
    # lattice, on segment (4, 5), so its head piece is left out and no tent
    # peaks at the vertex's label off; the lags run past the breakpoint
    # margin of about 4 VERTEX_TOL, up to off beyond it, where only the
    # distance to an end (the vertex label) is within the margin
    net = join(lattice(3))
    lags = VERTEX_TOL * np.arange(1, 161) / 20.0  # 0.05 ... 8 VERTEX_TOL
    part = (np.array([3] * 160 + [2] * 160), np.concatenate([off + lags, 1.0 - lags]))
    origin = (np.array([3]), np.array([off]))
    got = _pair_geometry(net, origin, part, 1.0)
    want = per_origin_pair_geometry(net, origin, part, 1.0)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert set(want[1][0, 160:][lags > 2 * VERTEX_TOL].tolist()) == {4}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_matches_numpy(data):
    rows = data.draw(st.integers(1, 5))
    width = data.draw(st.integers(1, 9))
    values = st.sampled_from([-np.inf, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, np.inf, np.nan])
    cells = data.draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    table = np.reshape(cells, (rows, width))  # rows unsorted, with NaN and values past cap
    cap = data.draw(st.sampled_from([0.5, 2.0, np.inf]))
    q = data.draw(st.integers(0, 12))
    row = data.draw(st.lists(st.integers(0, rows - 1), min_size=q, max_size=q))
    row = np.array(row, dtype=np.int64)
    x = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]), min_size=q, max_size=q))
    x = np.array(x, dtype=float)
    for side in ("left", "right"):
        rank, below, above = _rank(table, cap, row, x, side)
        for k, (r, v) in enumerate(zip(row, x)):
            kept = np.sort(table[r][table[r] <= cap])
            i = np.searchsorted(kept, v, side=side)
            padded = np.concatenate([[-np.inf], kept, [np.inf]])
            assert (rank[k], below[k], above[k]) == (i, padded[i], padded[i + 1])


def tie_pattern(net, n, rng):
    seg = rng.integers(len(net.segments), size=n)
    frac = rng.uniform(0.0, 1.0, n)
    snap = rng.random(n) < 0.4
    frac[snap] = rng.choice([0.0, 0.5, 1.0], size=int(snap.sum()))
    off = frac * net.lengths[seg]
    xy = net.segment_point(seg, off)
    v = net.vertices
    win = SpatialWindow(v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())
    coords = np.column_stack([xy, rng.uniform(0.0, 1.0, n)])
    return PointPattern(coords, win, UNIT_T, {}, net, seg, off)


@pytest.mark.parametrize("cells, blocks", [(1, 30), (300, 4), (2000, 1)])
@pytest.mark.parametrize("statistic", ["K", "g"])
def test_surfaces_match_dense_reference_across_blocks(monkeypatch, cells, blocks, statistic):
    # the cell budget splits 30 origins into blocks of 1, 9 and 30 rows; the
    # second lattice is out of reach of the first, so pairs are skipped
    net = join(lattice(4, [(0, 0), (1, 2)], 0.5), lattice(2, spacing=0.5, shift=(2.0, 0.0)))
    cfg = SummaryConfig(statistic=statistic, rs=np.array([0.25, 0.5, 1.0]))
    skipped = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pat = tie_pattern(net, 30, rng)
        lam = rng.uniform(0.5, 2.0, pat.n)
        with monkeypatch.context() as m:
            m.setattr(network, "_CELLS", cells)
            assert len(network._origin_blocks(net, pat.n, pat.n)) == blocks
            glob = second_order_global(pat, lam, cfg)
            loc = second_order_local(pat, lam, cfg)
        with monkeypatch.context() as m:
            m.setattr(summaries, "_pairs", one_block(dense_pairs))
            want_glob = second_order_global(pat, lam, cfg)
            want_loc = second_order_local(pat, lam, cfg)
        assert np.array_equal(glob.est, want_glob.est)
        assert glob.skipped_pairs == want_glob.skipped_pairs == loc.skipped_pairs
        assert np.array_equal([s.est for s in loc.surfaces], [s.est for s in want_loc.surfaces])
        skipped += glob.skipped_pairs
    assert skipped > 0


def path_graph():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    return LinearNetwork(verts, np.array([[0, 1], [1, 2]]))


def test_wrapped_segment_ids_are_refused():
    # id -1 used to index the last segment while the same-segment test
    # compared ids, so the direct route between these points was missed:
    # the answer was 1.0, the distance along segment 1 is 0.2
    net = path_graph()
    with pytest.raises(ValueError, match=r"segment id outside \[0, 2\)"):
        pairwise_network_distances(net, [1, -1], [0.4, 0.6])
    assert pairwise_network_distances(net, [1, 1], [0.4, 0.6])[0, 1] == pytest.approx(0.2)


@pytest.mark.parametrize("bad", [-1, -2, 2, 7])
def test_segment_ids_outside_range_raise_value_error(bad):
    net = path_graph()
    calls = [
        lambda: point_vertex_distances(net, (bad, 0.5)),
        lambda: point_vertex_distances(net, NetworkPoint(bad, 0.5)),
        lambda: network_distance(net, (bad, 0.5), (0, 0.5)),
        lambda: network_distance(net, (0, 0.5), (bad, 0.5)),
        lambda: pairwise_network_distances(net, [0, bad], [0.5, 0.5]),
        lambda: equidistant_count(net, (bad, 0.5), 0.3),
        lambda: equidistant_counts(net, (bad, 0.5), [0.3]),
        lambda: equidistant_counts(net, (bad, 0.5), [0.3], dv=np.zeros(3)),
        lambda: net.segment_point([bad], [0.5]),
        lambda: net.arc_position([bad], [0.5]),
        lambda: NetworkPoint(bad, 0.5).coords(net),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="segment id outside"):
            call()


@pytest.mark.parametrize("bad", [0.9, 1.5, -0.5, np.nan])
def test_non_integer_segment_ids_raise_value_error(bad):
    # truncated, 0.9 would read segment 0: network_distance(net, (0.9, 0.2),
    # (1, 0.5)) would be 1.3, the distance from segment 0
    net = path_graph()
    calls = [
        lambda: point_vertex_distances(net, (bad, 0.2)),
        lambda: point_vertex_distances(net, NetworkPoint(bad, 0.2)),
        lambda: network_distance(net, (bad, 0.2), (1, 0.5)),
        lambda: network_distance(net, (1, 0.5), (bad, 0.2)),
        lambda: pairwise_network_distances(net, [bad, 1], [0.2, 0.5]),
        lambda: equidistant_count(net, (bad, 0.2), 0.3),
        lambda: equidistant_counts(net, (bad, 0.2), [0.3]),
        lambda: net.segment_point([bad], [0.2]),
        lambda: net.arc_position([bad], [0.2]),
        lambda: NetworkPoint(bad, 0.2).coords(net),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="segment ids must be integers"):
            call()


def test_integral_float_segment_ids_are_accepted():
    net = path_graph()
    assert network_distance(net, (1.0, 0.2), (1, 0.5)) == pytest.approx(0.3)
    got = pairwise_network_distances(net, np.array([0.0, 1.0]), [0.9, 0.5])
    assert np.array_equal(got, pairwise_network_distances(net, [0, 1], [0.9, 0.5]))
    assert np.array_equal(
        point_vertex_distances(net, NetworkPoint(1.0, 0.2)),
        point_vertex_distances(net, (1, 0.2)),
    )


def test_pattern_refuses_non_integer_segment_ids():
    # truncated, net_seg [0.9, 1.5] would read as [0, 1]
    net = path_graph()
    xy = net.segment_point(np.array([0, 1]), np.array([0.2, 0.5]))
    coords = np.column_stack([xy, np.full(2, 0.5)])
    w = SpatialWindow(-1.0, 2.0, -1.0, 2.0)
    with pytest.raises(ValueError, match="segment ids must be integers"):
        PointPattern(coords, w, UNIT_T, {}, net, np.array([0.9, 1.5]), np.array([0.2, 0.5]))
    pat = PointPattern(coords, w, UNIT_T, {}, net, np.array([0.0, 1.0]), np.array([0.2, 0.5]))
    assert pat.net_seg.dtype == np.int64 and pat.net_seg.tolist() == [0, 1]


def network_pattern(net, seg, off):
    seg, off = np.asarray(seg), np.asarray(off, dtype=float)
    xy = net.segment_point(np.clip(seg, 0, len(net.segments) - 1), np.nan_to_num(off))
    coords = np.column_stack([xy, np.full(len(seg), 0.5)])
    return PointPattern(coords, SpatialWindow(-1.0, 2.0, -1.0, 2.0), UNIT_T, {}, net, seg, off)


@pytest.mark.parametrize(
    "seg, off, match",
    [
        ([0, -1], [0.5, 0.5], "segment id outside"),
        ([0, 2], [0.5, 0.5], "segment id outside"),
        ([0, 1], [0.5, -3 * VERTEX_TOL], "offset outside segment"),
        ([0, 1], [0.5, 1.0 + 3 * VERTEX_TOL], "offset outside segment"),
        ([0, 1], [0.5, np.nan], "offset outside segment"),
    ],
)
def test_pattern_refuses_points_off_the_network(seg, off, match):
    with pytest.raises(ValueError, match=match):
        network_pattern(path_graph(), seg, off)


def test_pattern_accepts_offsets_within_tolerance():
    pat = network_pattern(path_graph(), [0, 1], [-0.5 * VERTEX_TOL, 1.0 + 0.5 * VERTEX_TOL])
    assert pat.n == 2


def test_network_pair_table_memory_fence():
    # origins are taken in blocks, so no n x n distance, count or time-lag
    # table is built: the dense tables peaked at about 250 MB here
    verts, segs = lattice(11, spacing=0.1)
    net = join((verts, segs))
    pat = sim_poisson(IntensitySpec.constant(2500.0 / net.total_length), network=net, seed=0)
    assert 2400 < pat.n < 2600
    tracemalloc.start()
    try:
        second_order_global(pat, pat.n / net.total_length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# Each block tries only its time slice of partners.  Small lag reaches in
# time and small blocks put most partners outside the slice; events at t0
# and t1 (where rounding can make the temporal count 0), tied times and
# times on a grid of step hmax test the slice bounds and the dead-pair
# count beyond them.
TWO_COMPONENTS = LinearNetwork(
    np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [2.0, 5.0]]), np.array([[0, 1], [2, 3]])
)
SLICE_NETWORKS = {
    "lattice3": join(lattice(3, [(0, 0)])),
    "cycle4": cycle(4),
    "two_components": TWO_COMPONENTS,
    "two_lattices": FIXED["two_lattices"],
}
INTERVALS = [(0.0, 1.0), (0.1, 0.9), (0.3, 1.7), (-2.5, 0.7)]


def timed_pattern(net, seg, off, t, interval):
    v = net.vertices
    win = SpatialWindow(v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())
    coords = np.column_stack([net.segment_point(seg, off), t])
    return PointPattern(coords, win, interval, {}, net, seg, off)


@st.composite
def sliced_cases(draw):
    """(X, Z, config, cells): two patterns on one network and interval."""
    net = SLICE_NETWORKS[draw(st.sampled_from(sorted(SLICE_NETWORKS)))]
    t0, t1 = draw(st.sampled_from(INTERVALS))
    hmax = draw(st.sampled_from([0.05, 0.1, 0.2])) * (t1 - t0)
    nodes = draw(st.integers(1, 3))
    rs = draw(st.sampled_from([None, np.array([0.25, 0.5, 1.0])]))
    cfg = SummaryConfig(rs=rs, hs=hmax * np.arange(1, nodes + 1) / nodes)
    steps = int((t1 - t0) / hmax)
    when = st.one_of(
        st.sampled_from([t0, t1]),
        st.integers(0, steps).map(lambda m: min(t0 + m * hmax, t1)),
        st.floats(t0, t1),
    )
    patterns = []
    for lo, hi in ((2, 14), (2, 10)):
        seg, off = draw(points(net, lo, hi))
        t = draw(st.lists(when, min_size=len(seg), max_size=len(seg)))
        patterns.append(timed_pattern(net, seg, off, np.array(t), TimeInterval(t0, t1)))
    return (*patterns, cfg, draw(st.sampled_from([1, 40, network._CELLS])))


def reference_run(module, call):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_pairs", one_block(dense_pairs))
        return call()


@settings(max_examples=60, deadline=None)
@given(sliced_cases(), st.sampled_from(["K", "g"]))
def test_time_sliced_pairs_match_dense_reference(case, statistic):
    X, Z, cfg, cells = case
    cfg = replace(cfg, statistic=statistic)
    lam = np.random.default_rng(X.n).uniform(0.5, 2.0, X.n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(network, "_CELLS", cells)
        glob = second_order_global(X, lam, cfg)
        loc = second_order_local(X, lam, cfg)
        pvalues = localtest(X, Z, statistic, k=19, config=cfg, seed=3).pvalues
        assert (joined(summaries._pairs(X, Z, summaries.resolve_config(X, cfg)))[5]
                == dense_pairs(X, Z, summaries.resolve_config(X, cfg))[5])
    want_glob = reference_run(summaries, lambda: second_order_global(X, lam, cfg))
    want_loc = reference_run(summaries, lambda: second_order_local(X, lam, cfg))
    want_p = reference_run(diagnostics, lambda: localtest(X, Z, statistic, k=19, config=cfg, seed=3))
    assert same_bits(glob.est, want_glob.est)
    assert glob.skipped_pairs == want_glob.skipped_pairs == loc.skipped_pairs
    got_loc = np.array([s.est for s in loc.surfaces])
    assert same_bits(got_loc, np.array([s.est for s in want_loc.surfaces]))
    assert same_bits(pvalues, want_p.pvalues)


def test_dead_pairs_beyond_the_time_slice_are_counted(monkeypatch):
    # one-origin blocks and a reach of 0.04 in time: every pair lies
    # outside its origin's slice.  Four pairs join the two components; from
    # t1 = 0.9 the lag to t0 = 0.1 rounds to 0.8, and 0.9 - 0.8 < 0.1 while
    # 0.9 + 0.8 > 0.9, so that pair has temporal count 0 as well
    pat = timed_pattern(
        TWO_COMPONENTS, np.array([0, 0, 1]), np.array([0.5, 1.5, 1.0]),
        np.array([0.9, 0.1, 0.5]), TimeInterval(0.1, 0.9),
    )
    cfg = SummaryConfig(rs=np.array([0.5, 1.0]), hs=np.array([0.02, 0.04]))
    monkeypatch.setattr(network, "_CELLS", 1)
    got = second_order_global(pat, 1.0, cfg)
    want = reference_run(summaries, lambda: second_order_global(pat, 1.0, cfg))
    assert got.skipped_pairs == want.skipped_pairs == 5
    assert same_bits(got.est, want.est)


def test_network_blocks_try_their_time_slice_only(monkeypatch):
    # the pattern of test_network_pair_table_memory_fence: with the default
    # lag grids a block's slice holds about half of the partners, where the
    # whole (block x n) table held all of them
    verts, segs = lattice(11, spacing=0.1)
    net = join((verts, segs))
    pat = sim_poisson(IntensitySpec.constant(2500.0 / net.total_length), network=net, seed=0)
    cells = []

    def counting(net, origins, partners, reach=-np.inf):
        cells.append(len(origins[0]) * len(partners[0]))
        return _pair_geometry(net, origins, partners, reach)

    monkeypatch.setattr(summaries, "_pair_geometry", counting)
    for statistic in ("K", "g"):
        cells.clear()
        second_order_global(pat, pat.n / net.total_length, SummaryConfig(statistic=statistic))
        assert 0 < sum(cells) < 0.65 * pat.n**2
