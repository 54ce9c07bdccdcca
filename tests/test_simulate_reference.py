"""The simulators against their reference copies in ``simulate_reference``.

Poisson, planar branching and LGCP patterns must be bit-identical to the
reference's from the same seeds: coordinates, window, interval, marks and
network locations.  Network branching patterns snap each generation once,
where the reference snapped every event a second time after its loop; they
keep the same events, marks and segments, and move coordinates and offsets
by rounding only.  ``snap_to_network`` takes points in row blocks and must
equal the reference's dense search bit for bit.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from stpoint import (
    EtasParams,
    IntensitySpec,
    LinearNetwork,
    SpatialWindow,
    TimeInterval,
    sim_etas,
    sim_lgcp,
    sim_poisson,
    simulate,
)
from stpoint import network as network_module
from stpoint.network import snap_to_network

import simulate_reference as ref

SEEDS = range(24)
SUBCRIT = EtasParams(mu=25.0, k0=1e-4, c=0.02, p=1.5, d=0.05, q=2.0)
NET_ETAS = EtasParams(mu=60.0, k0=1e-4, c=0.02, p=1.5, d=0.05, q=2.0)


def lattice(k=11, step=0.1):
    """k x k vertex lattice with spacing step: 2 k (k - 1) segments."""
    verts = np.array([(i * step, j * step) for j in range(k) for i in range(k)])
    segs = [(j * k + i, j * k + i + 1) for j in range(k) for i in range(k - 1)]
    segs += [(j * k + i, (j + 1) * k + i) for j in range(k - 1) for i in range(k)]
    return LinearNetwork(verts, np.array(segs))


NET = lattice()


def assert_same_domain(a, b):
    assert a.n == b.n
    assert a.window == b.window and a.interval == b.interval
    assert a.marks.keys() == b.marks.keys()
    for name in a.marks:
        assert a.marks[name].kind == b.marks[name].kind
        assert a.marks[name].values.tobytes() == b.marks[name].values.tobytes()
    assert (a.network is None) == (b.network is None)
    if a.network is not None:
        assert a.net_seg.dtype == b.net_seg.dtype
        assert np.array_equal(a.net_seg, b.net_seg)


def assert_identical(a, b):
    assert_same_domain(a, b)
    assert a.coords.tobytes() == b.coords.tobytes()
    if a.network is not None:
        assert a.net_off.tobytes() == b.net_off.tobytes()


@pytest.mark.parametrize(
    "lam, kwargs",
    [
        (40.0, {}),
        (
            IntensitySpec.loglinear("~x + t", [4.0, 1.0, -0.5]),
            {"window": SpatialWindow(0.0, 2.0, -1.0, 1.0), "interval": TimeInterval(0.0, 3.0)},
        ),
        (IntensitySpec.loglinear("~x", [3.0, 1.0]), {"network": NET}),
    ],
    ids=["constant", "loglinear", "network"],
)
def test_sim_poisson_is_bit_identical(lam, kwargs):
    for seed in SEEDS:
        got = sim_poisson(lam, seed=seed, **kwargs)
        assert_identical(got, ref.sim_poisson(lam, seed=seed, **kwargs))


def test_sim_etas_planar_is_bit_identical():
    window = SpatialWindow(-1.0, 1.0, 0.0, 0.5)
    for seed in SEEDS:
        for kwargs in ({}, {"window": window, "betacov": 0.3, "m0": 2.0}):
            got, info = sim_etas(SUBCRIT, seed=seed, return_info=True, **kwargs)
            want, want_info = ref.sim_etas(SUBCRIT, seed=seed, return_info=True, **kwargs)
            assert_identical(got, want)
            assert info == want_info


@pytest.mark.parametrize("family", ["separable-exponential", "gneiting", "iaco-cesare"])
def test_sim_lgcp_is_bit_identical(family):
    kwargs = {"grid": (6, 5, 4), "window": SpatialWindow(0.0, 2.0, 0.0, 1.0)}
    for seed in SEEDS:
        got, field = sim_lgcp(family, seed=seed, return_field=True, **kwargs)
        want, want_field = ref.sim_lgcp(family, seed=seed, return_field=True, **kwargs)
        assert_identical(got, want)
        assert field.tobytes() == want_field.tobytes()


def test_sim_etas_network_snaps_once_within_rounding():
    for seed in SEEDS:
        got, info = sim_etas(NET_ETAS, network=NET, seed=seed, return_info=True)
        want, want_info = ref.sim_etas(NET_ETAS, network=NET, seed=seed, return_info=True)
        assert info == want_info
        assert_same_domain(got, want)
        assert np.abs(got.coords - want.coords).max(initial=0.0) <= 1e-12
        assert np.abs(got.net_off - want.net_off).max(initial=0.0) <= 1e-12


def test_sim_etas_network_snaps_each_generation_once(monkeypatch):
    sizes = []

    def counting_snap(network, x, y):
        sizes.append(len(x))
        return snap_to_network(network, x, y)

    monkeypatch.setattr(simulate, "snap_to_network", counting_snap)
    _pattern, info = sim_etas(NET_ETAS, network=NET, seed=4, return_info=True)
    # one call per generation that drew offspring, none for the background
    # or after the loop
    assert info["generations"] >= 2
    assert len(sizes) == info["generations"]
    assert sum(sizes) == info["offspring_drawn"]
    assert min(sizes) > 0


@pytest.mark.parametrize("sim, arg", [(sim_poisson, 5.0), (sim_etas, SUBCRIT)])
def test_window_with_network_is_refused(sim, arg):
    with pytest.raises(ValueError, match="window cannot be given with a network"):
        sim(arg, window=SpatialWindow(0.0, 1.0, 0.0, 1.0), network=NET, seed=1)


@pytest.mark.parametrize("kwargs", [{}, {"network": NET}], ids=["planar", "network"])
def test_zero_intensity_warns_and_gives_the_reference_empty_pattern(kwargs):
    zero = IntensitySpec.constant(0.0)
    with pytest.warns(UserWarning, match="intensity is zero everywhere"):
        got = sim_poisson(zero, seed=3, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = ref.sim_poisson(zero, seed=3, **kwargs)
    assert got.n == 0
    assert_identical(got, want)


@pytest.mark.parametrize("cells", [1, 7, 300, network_module._CELLS])
def test_snap_blocks_equal_the_dense_search(monkeypatch, cells):
    # one row per block up to a single block for all points; points outside
    # the lattice snap to its rim and corners, where segments tie
    monkeypatch.setattr(network_module, "_CELLS", cells)
    rng = np.random.default_rng(cells)
    x = np.concatenate([rng.uniform(-0.3, 1.3, 600), NET.vertices[:, 0], [0.05, 0.5]])
    y = np.concatenate([rng.uniform(-0.3, 1.3, 600), NET.vertices[:, 1], [0.05, 0.5]])
    for n in (0, 1, len(x)):
        got = snap_to_network(NET, x[:n], y[:n])
        want = ref.snap_to_network(NET, x[:n], y[:n])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_snap_memory_fence():
    # the dense search built four (points x segments) tables at once and
    # peaked at about 270 MB here
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0.0, 1.0, (2, 20000))
    tracemalloc.start()
    try:
        snap_to_network(NET, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(NET.segments) == 220
    assert peak < 32e6
