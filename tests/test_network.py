"""Linear networks: shortest-path metric, snapping, equidistant counts.

The equidistant count m(u, r) is the number of network locations at
shortest-path distance exactly r from u.  It is checked two ways: frozen
hand-derived values on tiny graphs, and a dense-sampling oracle that
estimates m as the density of the arc-length measure of the distance
level sets.
"""

import numpy as np
import pytest

from stpoint import (
    LinearNetwork,
    NetworkPoint,
    equidistant_count,
    equidistant_counts,
    network_distance,
    pairwise_network_distances,
    point_vertex_distances,
    snap_to_network,
)
from stpoint.network import VERTEX_TOL, _segment_tables


def path_graph():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    segs = np.array([[0, 1], [1, 2]])
    return LinearNetwork(verts, segs)


def all_simple_path_distance(net, u, v):
    """Min total length over simple vertex paths; exponential, tiny graphs only."""
    if u == v:
        return 0.0
    best = [np.inf]

    def walk(node, seen, acc):
        if acc >= best[0]:
            return
        if node == v:
            best[0] = acc
            return
        for nb, w in net.adjacency[node]:
            if nb not in seen:
                walk(nb, seen | {nb}, acc + w)

    walk(u, {u}, 0.0)
    return best[0]


def brute_point_distance(net, a, b):
    """Network distance via exhaustive simple-path enumeration."""
    seg_a, off_a = a
    seg_b, off_b = b
    ua, va = net.segments[seg_a]
    ub, vb = net.segments[seg_b]
    la = float(net.lengths[seg_a])
    lb = float(net.lengths[seg_b])
    cand = [
        da + all_simple_path_distance(net, int(p), int(q)) + db
        for p, da in ((ua, off_a), (va, la - off_a))
        for q, db in ((ub, off_b), (vb, lb - off_b))
    ]
    if seg_a == seg_b:
        cand.append(abs(off_a - off_b))
    return min(cand)


def test_path_graph_distance():
    net = path_graph()
    a = NetworkPoint(0, 0.5)
    b = NetworkPoint(1, 1.0)  # the far vertex (1, 1)
    assert network_distance(net, a, b) == pytest.approx(1.5)
    assert network_distance(net, b, a) == pytest.approx(1.5)


def test_cycle_antipodal_distance(cycle_network):
    a = (0, 0.5)
    b = (2, 0.5)  # halfway round either way
    d = network_distance(cycle_network, a, b)
    assert d == pytest.approx(2.0)
    assert d == pytest.approx(brute_point_distance(cycle_network, a, b))


def test_cycle_shorter_arc_wins(cycle_network):
    a = (0, 0.25)
    b = (1, 0.75)
    # clockwise arc 1.5, anticlockwise 2.5
    d = network_distance(cycle_network, a, b)
    assert d == pytest.approx(1.5)
    assert d == pytest.approx(brute_point_distance(cycle_network, a, b))


def test_distance_matches_brute_force_on_grid(grid_network):
    rng = np.random.default_rng(7)
    nseg = len(grid_network.segments)
    for _ in range(12):
        a = (int(rng.integers(nseg)), float(rng.uniform(0, 1)))
        b = (int(rng.integers(nseg)), float(rng.uniform(0, 1)))
        got = network_distance(grid_network, a, b)
        want = brute_point_distance(grid_network, a, b)
        assert got == pytest.approx(want, abs=1e-9)


def test_metric_properties(grid_network):
    rng = np.random.default_rng(21)
    m = 14
    seg = rng.integers(len(grid_network.segments), size=m)
    off = rng.uniform(0.05, 0.95, size=m) * grid_network.lengths[seg]
    d = pairwise_network_distances(grid_network, seg, off)
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d[~np.eye(m, dtype=bool)] > 0)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


def test_pairwise_agrees_with_single_calls(grid_network):
    seg = np.array([0, 5, 17])
    off = np.array([0.3, 0.8, 0.5])
    d = pairwise_network_distances(grid_network, seg, off)
    for i in range(3):
        for j in range(3):
            want = network_distance(
                grid_network, (int(seg[i]), float(off[i])), (int(seg[j]), float(off[j]))
            )
            assert d[i, j] == pytest.approx(want, abs=1e-12)


def test_disconnected_components_are_infinitely_far():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
    segs = np.array([[0, 1], [2, 3]])
    net = LinearNetwork(verts, segs)
    assert network_distance(net, (0, 0.5), (1, 0.5)) == np.inf
    dv = point_vertex_distances(net, (0, 0.2))
    assert np.isinf(dv[2]) and np.isinf(dv[3])
    assert dv[0] == pytest.approx(0.2)


def test_network_validation():
    v = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        LinearNetwork(v, np.array([[0, 0]]))
    with pytest.raises(ValueError):
        LinearNetwork(v, np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        LinearNetwork(v, np.array([[0, 2]]))
    with pytest.raises(ValueError):
        LinearNetwork(v, np.zeros((0, 2), dtype=int))
    with pytest.raises(ValueError):
        LinearNetwork(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[0, 1]]))


def test_equidistant_count_straight_segment():
    # one segment of length 2; from its midpoint there are two locations at
    # every distance r < 1, none beyond
    net = LinearNetwork(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[0, 1]]))
    mid = (0, 1.0)
    assert equidistant_count(net, mid, 0.5) == 2
    assert equidistant_count(net, mid, 1.5) == 0
    assert equidistant_count(net, mid, 0.0) == 1
    # from an endpoint there is a single location each way out to the far end
    assert equidistant_count(net, (0, 0.0), 0.7) == 1


def test_equidistant_count_cycle(cycle_network):
    # from a vertex of the 4-cycle both arcs stay distinct until the
    # antipode, so m = 2 at r = 1.5; the two arcs merge at r = 2
    v = (0, 0.0)
    assert equidistant_count(cycle_network, v, 1.5) == 2
    assert equidistant_count(cycle_network, v, 2.0) == 1
    assert equidistant_count(cycle_network, v, 2.5) == 0


def test_equidistant_counts_vector_and_errors(cycle_network):
    out = equidistant_counts(cycle_network, (0, 0.0), [0.0, 0.5, 1.5, 2.0, 3.0])
    assert out.tolist() == [1, 2, 2, 1, 0]
    with pytest.raises(ValueError):
        equidistant_counts(cycle_network, (0, 0.0), [-0.5])


def test_equidistant_counts_reject_nan(cycle_network):
    with pytest.raises(ValueError, match="nonnegative"):
        equidistant_counts(cycle_network, (0, 0.0), [np.nan])


def test_nan_offset_rejected(cycle_network):
    # a NaN offset used to seed Dijkstra with NaN and report every vertex,
    # hence every other point, as unreachable
    with pytest.raises(ValueError, match="offset outside segment"):
        point_vertex_distances(cycle_network, (0, np.nan))
    with pytest.raises(ValueError, match="offset outside segment"):
        network_distance(cycle_network, (0, np.nan), (2, 0.5))



@pytest.mark.parametrize("off_b", [99.0, -5.0, np.nan])
def test_network_distance_checks_both_offsets(off_b):
    # only the first point's offset used to be checked: these returned
    # -96.2, -4.2 and nan
    with pytest.raises(ValueError, match="offset outside segment"):
        network_distance(path_graph(), (0, 0.2), (1, off_b))
    with pytest.raises(ValueError, match="offset outside segment"):
        network_distance(path_graph(), (1, off_b), (0, 0.2))

def unfiltered_counts(net, point, rs):
    """The count rule over every (sub)segment and every reachable vertex."""
    rs = np.asarray(rs, dtype=float)
    dv = point_vertex_distances(net, point)
    tables = _segment_tables(net, np.array([point[0]]), np.array([point[1]]), dv[None, :])
    da, db, ell = (t[0] for t in tables)
    ok = np.isfinite(da)
    da, db, ell = da[ok], db[ok], ell[ok]
    tol = VERTEX_TOL
    r = rs[None, :]
    s1 = r - da[:, None]
    s2 = ell[:, None] + db[:, None] - r
    sstar = ((db + ell - da) / 2.0)[:, None]
    asc = (s1 > tol) & (s1 < ell[:, None] - tol) & (s1 <= sstar + tol)
    desc = (s2 > tol) & (s2 < ell[:, None] - tol) & (s2 >= sstar - tol)
    both = asc & desc & (np.abs(s1 - s2) <= tol)
    interior = asc.sum(axis=0) + desc.sum(axis=0) - both.sum(axis=0)
    hits = np.abs(dv[np.isfinite(dv)][:, None] - r) <= tol
    counts = interior + hits.sum(axis=0)
    counts[rs <= tol] = 1
    return counts


@pytest.mark.parametrize("name", ["grid_network", "cycle_network"])
def test_equidistant_counts_match_unfiltered_rule_at_ties(request, name):
    # origins at vertices, midpoints and random offsets; each lag set ends on
    # a realised vertex distance or half-segment multiple, where the reach
    # filter's boundary cases sit
    net = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    origins = [(s, f * net.lengths[s]) for s in range(len(net.segments)) for f in (0.0, 0.5, 1.0)]
    origins += [(int(s), float(rng.uniform(0.0, net.lengths[s]))) for s in rng.integers(len(net.segments), size=12)]
    most = 0
    for point in origins:
        dv = point_vertex_distances(net, point)
        ties = np.unique(np.concatenate([dv[np.isfinite(dv)], 0.5 * np.arange(1, 9)]))
        for rmax in ties:
            rs = ties[ties <= rmax]
            got = equidistant_counts(net, point, rs)
            assert np.array_equal(got, unfiltered_counts(net, point, rs))
            most = max(most, int(got.max()))
    assert most >= 2  # the lags do cross segments


def sampled_level_density(net, point, r, spacing=2e-4, eps=2e-3):
    """Dense-sampling oracle: measure of {v: |d(point,v) - r| <= eps} / (2 eps)."""
    arcs = np.arange(0.5 * spacing, net.total_length, spacing)
    seg, off = net.location_at(arcs)
    dv = point_vertex_distances(net, point)
    du = dv[net.segments[seg, 0]] + off
    dw = dv[net.segments[seg, 1]] + (net.lengths[seg] - off)
    d = np.minimum(du, dw)
    same = seg == point[0]
    d[same] = np.minimum(d[same], np.abs(off[same] - point[1]))
    return ((np.abs(d - r) <= eps).sum() * spacing) / (2 * eps)


@pytest.mark.parametrize("r", [0.4, 0.9, 1.3, 1.8])
def test_equidistant_count_matches_sampling_oracle(grid_network, r):
    point = (4, 0.37)
    want = sampled_level_density(grid_network, point, r)
    got = equidistant_count(grid_network, point, r)
    assert got == round(want)
    assert abs(got - want) < 0.05


def test_snap_exact_and_offset():
    net = path_graph()
    seg, off, snapped, dist = snap_to_network(net, [0.5, 1.3], [0.0, 0.5])
    assert seg[0] == 0
    assert off[0] == pytest.approx(0.5)
    assert dist[0] == pytest.approx(0.0)
    # (1.3, 0.5) projects onto the vertical segment at (1, 0.5)
    assert seg[1] == 1
    assert off[1] == pytest.approx(0.5)
    assert snapped[1].tolist() == pytest.approx([1.0, 0.5])
    assert dist[1] == pytest.approx(0.3)


def test_snap_tie_breaks_to_lowest_segment(cycle_network):
    # the centre of the square is equidistant from all four sides
    seg, off, snapped, dist = snap_to_network(cycle_network, [0.5], [0.5])
    assert seg[0] == 0
    assert dist[0] == pytest.approx(0.5)


def test_arc_position_roundtrip(grid_network):
    rng = np.random.default_rng(3)
    seg = rng.integers(len(grid_network.segments), size=50)
    off = rng.uniform(0, 1, size=50) * grid_network.lengths[seg]
    arc = grid_network.arc_position(seg, off)
    seg2, off2 = grid_network.location_at(arc)
    xy1 = grid_network.segment_point(seg, off)
    xy2 = grid_network.segment_point(seg2, off2)
    assert np.allclose(xy1, xy2, atol=1e-12)
