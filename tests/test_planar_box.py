"""Planar pair blocks test the lag box before they take distances.

``summaries._planar_block`` keeps the pairs with dx, dy <= r and dt <= h
first, and takes d = hypot(dx, dy) for those only.  That loses no pair
within reach as long as hypot is never below max(dx, dy), which is checked
here on the platform's own libm.  Pairs exactly on the box edge, and just
outside it, must come out as the dense all-pairs reference lists them, and
the number of hypot evaluations must stay a small share of n².
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpoint import (
    IntensitySpec,
    PointPattern,
    SummaryConfig,
    second_order_global,
    second_order_local,
    sim_poisson,
)
from stpoint import summaries
from stpoint.summaries import resolve_config

from conftest import joined, one_block
from planar_reference import dense_pairs
from test_summaries import UNIT_T, UNIT_W

EPS = 2.0**-40

lengths = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(lengths, lengths), min_size=1, max_size=64))
@example(pairs=[(5e-324, 0.0), (5e-324, 5e-324), (2.2250738585072014e-308, 1e-320)])
@example(pairs=[(1.7976931348623157e308, 0.0), (1.7976931348623157e308, 1e308), (1e200, 1e-200)])
@example(pairs=[(0.3125, 0.0), (0.1875, 0.25), (0.3125, EPS)])
def test_hypot_is_never_below_the_larger_leg(pairs):
    # the premise of the box test, on arrays long enough for vector loops
    a, b = np.array(pairs * 8).T
    with np.errstate(over="ignore"):  # legs near the float maximum overflow to inf
        assert (np.hypot(a, b) >= np.maximum(a, b)).all()


def box_edge_pattern(reach, hreach):
    """Events with pairs on the edge of the lag box and just outside it.

    Every coordinate is dyadic, so every lag is exact.  The legs (5u, 0),
    (0, 5u), (3u, 4u) and (4u, 3u), u = reach / 5, have d == reach, and
    so has (5u, EPS) after rounding; the others overshoot by EPS.  The
    time lags run 0, hreach, hreach + EPS in turn.
    """
    u = reach / 5.0
    legs = [(5 * u, 0.0), (0.0, 5 * u), (3 * u, 4 * u), (4 * u, 3 * u), (5 * u, EPS)]
    legs += [(5 * u + EPS, 0.0), (0.0, 5 * u + EPS), (3 * u, 4 * u + EPS), (5 * u + EPS, 5 * u)]
    x0, y0, t0 = 0.125, 0.125, 0.25
    rows = [(x0, y0, t0)]
    for k, (dx, dy) in enumerate(legs):
        dt = (0.0, hreach, hreach + EPS)[k % 3]
        rows.append((x0 + dx, y0 + dy, t0 + dt))
    return PointPattern(np.array(rows), UNIT_W, UNIT_T)


@pytest.mark.parametrize("statistic", ["K", "g"])
@pytest.mark.parametrize("correction", ["translation", "none"])
def test_pairs_on_the_box_edge_match_dense_reference(statistic, correction):
    grid = {"rs": np.arange(1, 6) / 16.0, "hs": np.array([0.125, 0.25])}
    reach, hreach = 5 / 16, 0.25
    if statistic == "g":
        # the kernels reach one bandwidth further: br = rs[-1] and
        # bh = hs[-1] double the reach and keep it dyadic
        grid.update(br=reach, bh=hreach)
        reach, hreach = 2 * reach, 2 * hreach
    X = box_edge_pattern(reach, hreach)
    cfg = resolve_config(X, SummaryConfig(statistic=statistic, correction=correction, **grid))
    lam = np.linspace(50.0, 80.0, X.n)
    got = joined(summaries._pairs(X, X, cfg, lam))
    want = dense_pairs(X, X, cfg, lam)
    keep = (want[2] <= reach) & (want[3] <= hreach) & (want[4] > 0)
    for a, b in zip(got[:5], want[:5]):
        assert np.array_equal(a, b[keep])
    d, dt = got[2], got[3]
    # the edge is reached, in distance along either axis and on the
    # diagonal, and in time; nothing beyond it is listed
    assert ((d == reach) & (dt == hreach)).sum() >= 2
    assert (d == reach).sum() >= 8 and (dt == hreach).sum() >= 8
    assert d.max() == reach and dt.max() == hreach
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summaries, "_pairs", one_block(dense_pairs))
        ref = second_order_global(X, lam, cfg), second_order_local(X, lam, cfg)
    glob, loc = second_order_global(X, lam, cfg), second_order_local(X, lam, cfg)
    assert np.array_equal(glob.est, ref[0].est)
    for a, b in zip(loc.surfaces, ref[1].surfaces):
        assert np.array_equal(a.est, b.est)


@pytest.mark.parametrize("statistic", ["K", "g"])
def test_planar_pair_block_hypot_fence(statistic, monkeypatch):
    # hypot runs on the pairs inside the lag box only: 0.084 n² for K and
    # 0.107 n² for g here, where every tried pair took one, 0.44 n² and
    # 0.48 n²
    pat = sim_poisson(IntensitySpec.constant(4000.0), window=UNIT_W, interval=UNIT_T, seed=0)
    assert 3800 < pat.n < 4200
    hypot, seen = np.hypot, []

    def counted(a, b, *args, **kwargs):
        seen.append(np.size(a))
        return hypot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "hypot", counted)
    second_order_global(pat, float(pat.n), SummaryConfig(statistic=statistic))
    assert seen and sum(seen) < 0.15 * pat.n**2
