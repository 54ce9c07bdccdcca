"""Quadrature builder against the hand-kept schemes it replaced.

``stpoint.fit`` builds every counting-weight scheme through one grid
helper and one weight helper.  ``quadrature_reference`` keeps the five
schemes written out one by one.  On random windows, intervals and
patterns, with a third of the coordinates on cell edges (multiples of
1/60 of an axis, which the grids of up to 60 cells share) and, on windows,
a tenth of the events repeated so that nearest-event ties occur, the
package must match them bit for bit:

* ``make_quadrature`` on windows: coords, weights, is_data, data_index,
  marks, nd and the warning, for every ``nd`` form, with and without
  marks, with ``by_type``, and with the nearest-event query blocks set by
  the real or a shrunk ``network._CELLS``;
* ``sep_fit`` on windows and networks: coefficients, norm and fitted;
* ``stppm`` with the reference quadrature swapped in (glm, lsr, marked):
  coef and fitted, and ``predict`` against the reference design builder.

On networks the dummies sit at cell centres, which the package places as
``lo + (k + 0.5) * (L / n)`` and the reference as ``(k + 0.5) / n * L``.
There the dummy coordinates may differ by rounding, within 8 ulps of the
domain extent, and ``stppm`` within 1e-11 relative (6e-13 was the largest
gap seen over 600 fits) when every mark level has events; weights,
is_data, data_index, marks and nd stay bit-identical.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stpoint import (
    FitError,
    MarkColumn,
    PointPattern,
    SpatialWindow,
    TimeInterval,
    make_quadrature,
    parse_formula,
    sep_fit,
    stppm,
)
from stpoint import fit, network

import quadrature_reference as ref

EPS = np.finfo(float).eps
MARKS = st.sampled_from(["none", "continuous", "categorical", "both"])
SEEDS = st.integers(0, 2**32 - 1)


def on_edges(lo, hi, rng, n):
    """n values in [lo, hi]: a third on multiples of (hi - lo) / 60."""
    frac = rng.uniform(0.0, 1.0, n)
    edge = rng.random(n) < 1 / 3
    frac[edge] = rng.integers(0, 61, int(edge.sum())) / 60
    return np.clip(lo + frac * (hi - lo), lo, hi)


def random_marks(kind, n, rng):
    marks = {}
    if kind in ("continuous", "both"):
        marks["m"] = MarkColumn("continuous", rng.normal(size=n))
    if kind in ("categorical", "both"):
        marks["type"] = MarkColumn("categorical", rng.integers(0, 3, n), ("A", "B", "C"))
    return marks


def random_interval(rng):
    t0 = float(rng.uniform(-5.0, 5.0))
    return TimeInterval(t0, t0 + float(rng.choice([0.3, 1.0, 2.5, rng.uniform(0.1, 10.0)])))


def planar_pattern(seed, n, marks):
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-5.0, 5.0, 2)
    w = SpatialWindow(x0, x0 + rng.uniform(0.1, 10.0), y0, y0 + rng.uniform(0.1, 10.0))
    iv = random_interval(rng)
    coords = np.column_stack([
        on_edges(w.x0, w.x1, rng, n),
        on_edges(w.y0, w.y1, rng, n),
        on_edges(iv.t0, iv.t1, rng, n),
    ])
    # a tenth repeat earlier events: dummies then tie between their marks
    copy = np.flatnonzero(rng.random(n) < 0.1)
    coords[copy] = coords[rng.integers(0, copy + 1)]
    return PointPattern(coords, w, iv, random_marks(marks, n, rng))


def network_pattern(net, seed, n, marks):
    rng = np.random.default_rng(seed)
    seg, off = net.location_at(on_edges(0.0, net.total_length, rng, n))
    v = net.vertices
    win = SpatialWindow(v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())
    iv = random_interval(rng)
    coords = np.column_stack([net.segment_point(seg, off), on_edges(iv.t0, iv.t1, rng, n)])
    return PointPattern(coords, win, iv, random_marks(marks, n, rng), net, seg, off)


def nd_forms(dims):
    side = st.integers(1, 6)
    return st.one_of(
        st.none(), side,
        st.tuples(*[side] * dims),
        st.tuples(side, side, side),  # collapses to (n_arc, nt) on a network
    )


def quadrature(build, pattern, nd, seed, by_type):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        quad = build(pattern, nd=nd, seed=seed, by_type=by_type)
    return quad, [str(c.message) for c in caught]


def same_marks(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].kind == b[name].kind and a[name].levels == b[name].levels
        assert a[name].values.dtype == b[name].values.dtype
        assert np.array_equal(a[name].values, b[name].values)


def outcome(call):
    """A fit's result, or the type and message of the fit error it raised."""
    try:
        return call()
    except FitError as exc:
        return type(exc), str(exc)


def same_separable(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(got.space_coef, want.space_coef)
    assert np.array_equal(got.time_coef, want.time_coef)
    assert got.norm == want.norm
    assert np.array_equal(got.fitted, want.fitted)


def same_poisson(got, want, pattern, rtol=0.0):
    """Equal fits; with ``rtol``, coefficients within rtol of the largest
    (or 1) and intensities within rtol relative."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.names == want.names
    _, X = ref.predict_design(want, pattern.coords, pattern.marks)
    pairs = [
        (got.fitted, want.fitted),
        (got.predict(pattern.coords, pattern.marks), np.exp(X @ want.coef)),
    ]
    if rtol == 0.0:
        assert np.array_equal(got.coef, want.coef)
        assert all(np.array_equal(a, b) for a, b in pairs)
    else:
        scale = max(1.0, np.abs(want.coef).max())
        assert np.abs(got.coef - want.coef).max() <= rtol * scale
        assert all(np.allclose(a, b, rtol=rtol, atol=0.0) for a, b in pairs)


def reference_stppm(pattern, **kw):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fit, "make_quadrature", ref.make_quadrature)
        return outcome(lambda: stppm(pattern, "~x + t", **kw))


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS, n=st.integers(1, 60), marks=MARKS, nd=nd_forms(3), typed=st.booleans(),
    cells=st.sampled_from([1, 300, network._CELLS]),  # nearest-event query blocks
)
def test_planar_quadrature_matches_reference(seed, n, marks, nd, typed, cells):
    pat = planar_pattern(seed, n, marks)
    by_type = "type" if typed and "type" in pat.marks else None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(network, "_CELLS", cells)
        got, got_warn = quadrature(make_quadrature, pat, nd, seed, by_type)
    want, want_warn = quadrature(ref.make_quadrature, pat, nd, seed, by_type)
    assert got_warn == want_warn
    for name in ("coords", "weights", "is_data", "data_index"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.nd == want.nd and got.volume == want.volume
    same_marks(got.marks, want.marks)
    # the merged design builder against the fit's own old one
    trend = parse_formula("~x + y + t")
    g_names, g_x = fit._design(trend, got.coords, got.marks, None, by_type)
    w_names, w_x = ref.design_with_types(want, trend, None)
    assert g_names == w_names and np.array_equal(g_x, w_x)


@settings(max_examples=50, deadline=None)
@given(
    seed=SEEDS, n=st.integers(1, 60), marks=MARKS,
    method=st.sampled_from(["glm", "lsr"]), typed=st.booleans(),
)
def test_planar_stppm_matches_reference(seed, n, marks, method, typed):
    pat = planar_pattern(seed, n, marks)
    kw = dict(marked=typed and "type" in pat.marks, method=method, seed=seed)
    got = outcome(lambda: stppm(pat, "~x + t", **kw))
    same_poisson(got, reference_stppm(pat, **kw), pat)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 60), marks=MARKS, nd=st.none() | st.integers(1, 12))
def test_planar_sep_fit_matches_reference(seed, n, marks, nd):
    pat = planar_pattern(seed, n, marks)
    space = "~x + y + m" if "m" in pat.marks else "~x + y"
    got = outcome(lambda: sep_fit(pat, space, "~t", nd=nd, seed=seed))
    same_separable(got, outcome(lambda: ref.sep_fit(pat, space, "~t", nd=nd, seed=seed)))


NETWORKS = st.sampled_from(["grid", "cycle"])


@settings(max_examples=80, deadline=None)
@given(
    which=NETWORKS, seed=SEEDS, n=st.integers(1, 40), marks=MARKS,
    nd=nd_forms(2), typed=st.booleans(),
)
def test_network_quadrature_matches_reference(
    grid_network, cycle_network, which, seed, n, marks, nd, typed
):
    net = grid_network if which == "grid" else cycle_network
    pat = network_pattern(net, seed, n, marks)
    by_type = "type" if typed and "type" in pat.marks else None
    got, got_warn = quadrature(make_quadrature, pat, nd, seed, by_type)
    want, want_warn = quadrature(ref.make_quadrature, pat, nd, seed, by_type)
    assert got_warn == want_warn
    for name in ("weights", "is_data", "data_index"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.nd == want.nd and got.volume == want.volume
    same_marks(got.marks, want.marks)
    # dummy centres move by rounding only; data rows are copied
    extent = max(net.total_length, np.abs(net.vertices).max(),
                 abs(pat.interval.t0) + pat.interval.length)
    assert np.array_equal(got.coords[got.is_data], want.coords[want.is_data])
    assert np.abs(got.coords - want.coords).max() <= 8 * EPS * extent


@settings(max_examples=50, deadline=None)
@given(
    which=NETWORKS, seed=SEEDS, n=st.integers(1, 40), marks=MARKS,
    nd=st.none() | st.integers(1, 12),
)
def test_network_sep_fit_matches_reference(
    grid_network, cycle_network, which, seed, n, marks, nd
):
    net = grid_network if which == "grid" else cycle_network
    pat = network_pattern(net, seed, n, marks)
    space = "~x + y + m" if "m" in pat.marks else "~x + y"
    got = outcome(lambda: sep_fit(pat, space, "~t", nd=nd, seed=seed))
    same_separable(got, outcome(lambda: ref.sep_fit(pat, space, "~t", nd=nd, seed=seed)))


@settings(max_examples=50, deadline=None)
@given(
    which=NETWORKS, seed=SEEDS, n=st.integers(10, 40), marks=MARKS,
    method=st.sampled_from(["glm", "lsr"]), typed=st.booleans(),
)
def test_network_stppm_matches_reference(
    grid_network, cycle_network, which, seed, n, marks, method, typed
):
    net = grid_network if which == "grid" else cycle_network
    pat = network_pattern(net, seed, n, marks)
    kw = dict(marked=typed and "type" in pat.marks, method=method, seed=seed)
    # a level with no events has its intercept at -inf: the IRLS stops
    # anywhere on that ray, so a rounding change moves it arbitrarily
    assume(not kw["marked"] or len(set(pat.marks["type"].values)) == 3)
    got = outcome(lambda: stppm(pat, "~x + t", **kw))
    same_poisson(got, reference_stppm(pat, **kw), pat, rtol=1e-11)
