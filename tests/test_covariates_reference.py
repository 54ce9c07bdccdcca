"""Tensor-grid IDW against the all-nodes difference block it replaced.

``stpoint.covariates.interpolate_idw`` forms squared node-sample
distances from per-axis tables of squared gaps, one time slice at a time
in blocks of at most ``network._CELLS`` node-sample cells.
``covariates_reference`` keeps the rule it replaced, which materialised
every node and a (nodes x samples x 3) difference block.  On random
samples (J from 1 to 150, powers 1, 2, 2.5 and 3, non-unit windows and
intervals, sites placed exactly on grid nodes, duplicate sites) the two
grids are bit-identical, with the cell budget at its real value and
shrunk so that slices split into several blocks of nodes, or of single
nodes.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import SpatialWindow, TimeInterval, interpolate_idw
from stpoint import network

import covariates_reference as ref

POWERS = st.sampled_from([1.0, 2.0, 2.5, 3.0])


@st.composite
def idw_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nsamp = draw(st.integers(1, 150))
    nx, ny, nt = (draw(st.integers(2, 9)) for _ in range(3))
    x0, y0, t0 = rng.uniform(-5.0, 5.0, 3)
    wx, wy, wt = rng.uniform(0.1, 7.0, 3)
    window = SpatialWindow(x0, x0 + wx, y0, y0 + wy)
    interval = TimeInterval(t0, t0 + wt)
    sites = rng.uniform(0.0, 1.0, (nsamp, 3)) * [wx, wy, wt] + [x0, y0, t0]
    vals = rng.normal(size=nsamp)
    # some sites exactly on grid nodes, so nodes take a sample value
    on_node = rng.random(nsamp) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    for col, (lo, hi, n) in enumerate([(x0, x0 + wx, nx), (y0, y0 + wy, ny), (t0, t0 + wt, nt)]):
        nodes = np.linspace(lo, hi, n)
        sites[on_node, col] = nodes[rng.integers(0, n, on_node.sum())]
    # duplicate sites, with equal or conflicting values
    dup = rng.integers(0, nsamp, draw(st.integers(0, 3)))
    sites = np.vstack([sites, sites[dup]])
    vals = np.concatenate([vals, np.where(rng.random(len(dup)) < 0.5, vals[dup], 1.5)])
    samples = np.column_stack([sites, vals])
    if draw(st.booleans()):
        # sites rounded to 0.1 tie often; the grid spans their ranges
        samples[:, :3] = np.round(samples[:, :3], 1)
        if np.ptp(samples[:, :3], axis=0).min() > 0:
            window = interval = None
    cells = draw(
        st.one_of(
            st.just(network._CELLS),  # the real budget: whole slices here
            st.integers(1, len(samples)),  # one node per block
            st.integers(len(samples), nx * ny * len(samples)),  # several nodes
        )
    )
    power = draw(POWERS)
    return samples, (nx, ny, nt), power, window, interval, cells


@settings(max_examples=150, deadline=None)
@given(idw_cases())
def test_interpolate_idw_equals_reference(case):
    samples, grid, power, window, interval, cells = case
    kw = dict(grid=grid, power=power, window=window, interval=interval)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # conflicting duplicates
        want = ref.interpolate_idw(samples, **kw)
        with mock.patch.object(network, "_CELLS", cells):
            got = interpolate_idw(samples, **kw)
    assert (got.x0, got.dx, got.nx, got.y0, got.dy, got.ny) == (
        want.x0, want.dx, want.nx, want.y0, want.dy, want.ny,
    )
    assert (got.t0, got.dt, got.nt) == (want.t0, want.dt, want.nt)
    assert np.array_equal(got.values, want.values)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), POWERS)
def test_default_grid_equals_reference(seed, power):
    # the grid from mult, over the sample ranges
    samples = np.random.default_rng(seed).uniform(0.0, 1.0, (20, 4))
    got = interpolate_idw(samples, mult=3.0, power=power)
    want = ref.interpolate_idw(samples, mult=3.0, power=power)
    assert got.values.shape == want.values.shape == (9, 9, 9)
    assert np.array_equal(got.values, want.values)
