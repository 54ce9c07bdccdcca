"""Inverse-distance interpolation and grid lookup."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from stpoint import (
    CovariateGrid,
    SpatialWindow,
    TimeInterval,
    interpolate_idw,
    lookup_nearest,
)
from stpoint import network

UNIT_W = SpatialWindow(0.0, 1.0, 0.0, 1.0)
UNIT_T = TimeInterval(0.0, 1.0)


def random_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    xyz = rng.uniform(0.05, 0.95, size=(n, 3))
    vals = np.sin(7 * xyz[:, 0]) + xyz[:, 1] ** 2 + 0.3 * xyz[:, 2]
    return np.column_stack([xyz, vals])


def test_nodes_at_sample_sites_take_sample_values():
    samples = np.array(
        [
            [0.0, 0.0, 0.0, 2.0],
            [1.0, 1.0, 1.0, 5.0],
            [0.5, 0.5, 0.5, -1.0],
        ]
    )
    g = interpolate_idw(samples, grid=(3, 3, 3), window=UNIT_W, interval=UNIT_T)
    assert g.values[0, 0, 0] == 2.0
    assert g.values[2, 2, 2] == 5.0
    assert g.values[1, 1, 1] == -1.0


def test_interpolant_stays_within_sample_range():
    samples = random_samples(15, seed=1)
    g = interpolate_idw(samples, grid=(6, 6, 6), window=UNIT_W, interval=UNIT_T)
    lo, hi = samples[:, 3].min(), samples[:, 3].max()
    assert g.values.min() >= lo - 1e-12
    assert g.values.max() <= hi + 1e-12


def test_midpoint_of_two_samples_is_their_mean():
    samples = np.array(
        [
            [0.0, 0.5, 0.5, 1.0],
            [1.0, 0.5, 0.5, 3.0],
        ]
    )
    g = interpolate_idw(samples, grid=(3, 3, 3), window=UNIT_W, interval=UNIT_T)
    # the node at (0.5, 0.5, 0.5) sits at equal distance from both samples
    assert g.values[1, 1, 1] == pytest.approx(2.0, abs=1e-12)


def test_constant_field_reproduced():
    samples = random_samples(10, seed=2)
    samples[:, 3] = 4.25
    g = interpolate_idw(samples, grid=(4, 4, 4), window=UNIT_W, interval=UNIT_T)
    # (sum w * c) / (sum w) can drift by an ulp, nothing more
    assert np.allclose(g.values, 4.25, rtol=1e-14, atol=0.0)


def test_single_sample_gives_constant_grid():
    g = interpolate_idw(
        [[0.3, 0.4, 0.5, 7.5]], grid=(3, 3, 3), window=UNIT_W, interval=UNIT_T
    )
    assert np.allclose(g.values, 7.5, rtol=1e-14, atol=0.0)


def test_duplicate_conflicting_sites_warn_and_average():
    samples = np.array(
        [
            [0.2, 0.2, 0.2, 1.0],
            [0.2, 0.2, 0.2, 3.0],
            [0.8, 0.8, 0.8, 5.0],
        ]
    )
    with pytest.warns(UserWarning, match="duplicate"):
        g = interpolate_idw(samples, grid=(2, 2, 2), window=UNIT_W, interval=UNIT_T)
    merged = interpolate_idw(
        np.array([[0.2, 0.2, 0.2, 2.0], [0.8, 0.8, 0.8, 5.0]]),
        grid=(2, 2, 2),
        window=UNIT_W,
        interval=UNIT_T,
    )
    assert np.array_equal(g.values, merged.values)


def test_sample_order_does_not_change_bits():
    samples = random_samples(25, seed=3)
    g1 = interpolate_idw(samples, grid=(5, 5, 5), window=UNIT_W, interval=UNIT_T)
    rng = np.random.default_rng(9)
    for _ in range(3):
        g2 = interpolate_idw(
            samples[rng.permutation(len(samples))],
            grid=(5, 5, 5),
            window=UNIT_W,
            interval=UNIT_T,
        )
        assert np.array_equal(g1.values, g2.values)


def test_large_power_approaches_nearest_sample():
    samples = random_samples(8, seed=4)
    g = interpolate_idw(
        samples, grid=(7, 7, 7), power=64.0, window=UNIT_W, interval=UNIT_T
    )
    tt, yy, xx = np.meshgrid(g.ts, g.ys, g.xs, indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel(), tt.ravel()])
    d = np.linalg.norm(nodes[:, None, :] - samples[None, :, :3], axis=2)
    part = np.sort(d, axis=1)
    # only nodes with a clearly unique nearest sample, where the limit is clean
    clear = part[:, 0] < 0.9 * part[:, 1]
    nearest_vals = samples[np.argmin(d, axis=1), 3]
    assert clear.sum() > 50
    assert np.allclose(g.values.ravel()[clear], nearest_vals[clear], atol=1e-3)


def test_default_grid_size_scales_with_samples():
    samples = random_samples(8, seed=5)
    g = interpolate_idw(samples, mult=6.0, window=UNIT_W, interval=UNIT_T)
    assert g.nx == g.ny == g.nt == 12  # ceil(6 * 8**(1/3))


def test_idw_input_validation():
    with pytest.raises(ValueError):
        interpolate_idw(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        interpolate_idw([[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError):
        interpolate_idw([[0.1, 0.2, 0.3, np.nan]])
    with pytest.raises(ValueError):
        interpolate_idw(random_samples(4), power=0.0)
    with pytest.raises(ValueError):
        interpolate_idw(random_samples(4), grid=(1, 3, 3))
    # unchecked, mult <= 0 gives a 2-node grid and inf or nan a bare math.ceil error
    for mult in (-3.0, 0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="mult"):
            interpolate_idw(random_samples(4), mult=mult)
    for power in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="power"):
            interpolate_idw(random_samples(4), grid=(3, 3, 3), power=power)
    # unchecked, int() truncates (2.7, 3.9, 3) to (2, 3, 3)
    for grid in ((2.7, 3.9, 3), (3, 3, 3.5), (3, np.nan, 3), (3, np.inf, 3)):
        with pytest.raises(ValueError, match="grid entries must be integers"):
            interpolate_idw(random_samples(4), grid=grid)
    g = interpolate_idw(random_samples(4), grid=(3.0, np.int64(4), 5))
    assert (g.nx, g.ny, g.nt) == (3, 4, 5)


def test_grid_must_be_three_integers():
    # (3, 3) used to raise "not enough values to unpack"
    for grid in ((3, 3), (3, 3, 3, 3), ((3, 3, 3),)):
        with pytest.raises(ValueError, match="grid must be three integers"):
            interpolate_idw(random_samples(4), grid=grid)


@pytest.mark.parametrize(
    "nsamp, grid, bound",
    [
        (64, (56, 56, 56), 15e6),  # the cli_covariate size: measured 4.9 MB
        (2000, (60, 60, 3), 60e6),  # nodes cut by the cell budget: 5.5 MB
    ],
)
def test_idw_memory_fence(nsamp, grid, bound):
    # nodes are taken a time slice at a time in blocks of at most
    # network._CELLS node-sample cells; a (nodes x samples x 3) difference
    # block per 65,536 nodes peaks at 318 MB and 1.2 GB on these cases
    samples = random_samples(nsamp, seed=7)
    tracemalloc.start()
    try:
        interpolate_idw(samples, grid=grid, window=UNIT_W, interval=UNIT_T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_idw_blocks_follow_the_shared_cell_budget():
    # IDW takes its node blocks from network._origin_blocks, so shrinking
    # the one budget shrinks them: measured 1.8 MB here, against 4.9 MB
    # at the real budget and 8.3 MB under a private budget of 2^20 cells
    samples = random_samples(64, seed=7)
    with mock.patch.object(network, "_CELLS", 2**12):
        tracemalloc.start()
        try:
            interpolate_idw(samples, grid=(56, 56, 56), window=UNIT_W, interval=UNIT_T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3e6


def small_grid():
    vals = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
    return CovariateGrid("c", 0.0, 1.0, 4, 0.0, 1.0, 3, 0.0, 1.0, 2, vals)


def test_lookup_exact_nodes():
    g = small_grid()
    tbl = g.node_table()
    got = lookup_nearest(g, tbl[:, 0], tbl[:, 1], tbl[:, 2])
    assert np.array_equal(got, tbl[:, 3])


def test_lookup_halfway_tie_rounds_down():
    vals = np.arange(8, dtype=float).reshape(2, 2, 2)
    g = CovariateGrid("c", 0.0, 1.0, 2, 0.0, 1.0, 2, 0.0, 1.0, 2, vals)
    assert lookup_nearest(g, 0.5, 0.5, 0.5) == vals[0, 0, 0]


def test_lookup_clamps_outside_grid():
    g = small_grid()
    assert lookup_nearest(g, -5.0, -5.0, -5.0) == g.values[0, 0, 0]
    assert lookup_nearest(g, 99.0, 99.0, 99.0) == g.values[1, 2, 3]


def test_lookup_matches_brute_force_scan():
    g = small_grid()
    tbl = g.node_table()
    rng = np.random.default_rng(6)
    q = np.column_stack(
        [
            rng.uniform(-0.4, 3.4, 40),
            rng.uniform(-0.4, 2.4, 40),
            rng.uniform(-0.4, 1.4, 40),
        ]
    )
    got = lookup_nearest(g, q[:, 0], q[:, 1], q[:, 2])
    # index-scaled distances; random queries never land on exact ties
    scaled_nodes = tbl[:, :3] / np.array([g.dx, g.dy, g.dt])
    scaled_q = q / np.array([g.dx, g.dy, g.dt])
    idx = np.argmin(
        np.linalg.norm(scaled_q[:, None, :] - scaled_nodes[None, :, :], axis=2), axis=1
    )
    assert np.array_equal(got, tbl[idx, 3])


def test_grid_validation():
    vals = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        CovariateGrid("c", 0.0, 1.0, 1, 0.0, 1.0, 2, 0.0, 1.0, 2, vals)
    with pytest.raises(ValueError):
        CovariateGrid("c", 0.0, -1.0, 2, 0.0, 1.0, 2, 0.0, 1.0, 2, vals)
    with pytest.raises(ValueError):
        CovariateGrid("c", 0.0, 1.0, 2, 0.0, 1.0, 2, 0.0, 1.0, 2, np.zeros((2, 2, 3)))
    bad = vals.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        CovariateGrid("c", 0.0, 1.0, 2, 0.0, 1.0, 2, 0.0, 1.0, 2, bad)
