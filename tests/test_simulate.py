"""Point process simulators: thinned Poisson and branching cascades.

Distributional checks compare fixed-seed samples against analytic CDFs
(Kolmogorov-Smirnov distance) or moment identities; the branching ratio
is cross-checked against numerical integration of the trigger kernel.
"""

import math

import numpy as np
import pytest

from stpoint import (
    EtasParams,
    IntensitySpec,
    SpatialWindow,
    TimeInterval,
    branching_ratio,
    gr_magnitudes,
    omori_times,
    radial_displacements,
    sim_etas,
    sim_poisson,
)

UNIT_W = SpatialWindow(0.0, 1.0, 0.0, 1.0)
UNIT_T = TimeInterval(0.0, 1.0)

# subcritical by a wide margin: eta ~ 0.40
SUBCRIT = EtasParams(mu=25.0, k0=1e-4, c=0.02, p=1.5, d=0.05, q=2.0)


def ks_distance(sample, cdf):
    x = np.sort(sample)
    n = len(x)
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def test_homogeneous_counts_are_poisson():
    lam = 50.0
    counts = np.array(
        [sim_poisson(lam, window=UNIT_W, interval=UNIT_T, seed=s).n for s in range(500)]
    )
    mean = counts.mean()
    assert abs(mean - lam) < 3.0 * math.sqrt(lam / 500)
    dispersion = counts.var(ddof=1) / mean
    assert 0.8 < dispersion < 1.2


def test_thinning_matches_target_density():
    # lambda = exp(2 + 6x): mass (e^8 - e^2)/6, x-marginal CDF known in closed form
    spec = IntensitySpec.loglinear("~x", [2.0, 6.0])
    total = (math.exp(8.0) - math.exp(2.0)) / 6.0
    pats = [
        sim_poisson(spec, window=UNIT_W, interval=UNIT_T, seed=100 + s) for s in range(4)
    ]
    n = np.array([p.n for p in pats], dtype=float)
    assert abs(n.mean() - total) < 3.0 * math.sqrt(total / 4)

    xs = np.concatenate([p.x for p in pats])
    d = ks_distance(xs, lambda v: (np.exp(6 * v) - 1.0) / (math.exp(6.0) - 1.0))
    assert d < 0.05
    # time plays no role in the intensity, so t stays uniform
    ts = np.concatenate([p.t for p in pats])
    assert ks_distance(ts, lambda v: v) < 0.05


def test_zero_intensity_warns_and_returns_empty():
    with pytest.warns(UserWarning, match="zero"):
        pat = sim_poisson(0.0, window=UNIT_W, interval=UNIT_T, seed=1)
    assert pat.n == 0


def test_poisson_on_network_stays_on_network(grid_network):
    pat = sim_poisson(5.0, network=grid_network, interval=UNIT_T, seed=2)
    assert pat.network is grid_network
    xy = grid_network.segment_point(pat.net_seg, pat.net_off)
    assert np.allclose(xy, pat.coords[:, :2], atol=1e-12)
    counts = np.array(
        [sim_poisson(5.0, network=grid_network, interval=UNIT_T, seed=s).n
         for s in range(200)]
    )
    expect = 5.0 * grid_network.total_length
    assert abs(counts.mean() - expect) < 3.0 * math.sqrt(expect / 200)


def test_poisson_determinism():
    a = sim_poisson(80.0, window=UNIT_W, interval=UNIT_T, seed=42)
    b = sim_poisson(80.0, window=UNIT_W, interval=UNIT_T, seed=42)
    assert np.array_equal(a.coords, b.coords)
    c = sim_poisson(80.0, window=UNIT_W, interval=UNIT_T, seed=43)
    assert not np.array_equal(a.coords, c.coords)


def test_events_sorted_by_time():
    pat = sim_poisson(120.0, window=UNIT_W, interval=UNIT_T, seed=3)
    assert np.all(np.diff(pat.t) >= 0)


def test_omori_lags_follow_power_law():
    rng = np.random.default_rng(5)
    c, p = 0.02, 1.5
    tau = omori_times(rng, 10_000, c, p)
    assert (tau >= 0).all()
    d = ks_distance(tau, lambda v: 1.0 - (1.0 + v / c) ** (1.0 - p))
    assert d < 0.02


def test_radial_displacements_follow_power_law():
    rng = np.random.default_rng(6)
    d_par, q = 0.05, 2.0
    r = radial_displacements(rng, 10_000, d_par, q)
    assert (r >= 0).all()
    d = ks_distance(r, lambda v: 1.0 - (1.0 + v**2 / d_par) ** (1.0 - q))
    assert d < 0.02


def test_magnitudes_follow_gutenberg_richter():
    rng = np.random.default_rng(7)
    b, m0 = 1.0, 2.5
    m = gr_magnitudes(rng, 10_000, b, m0)
    assert (m >= m0).all()
    d = ks_distance(m, lambda v: 1.0 - np.float_power(10.0, -b * (v - m0)))
    assert d < 0.02


def test_branching_ratio_matches_numerical_integration():
    params = SUBCRIT
    betacov, b, m0 = 0.5, 1.0, 2.5
    # temporal kernel mass: integral of (tau + c)^(-p) over [0, inf)
    s = np.geomspace(params.c, 1e9, 400_000)
    a_t = np.trapezoid(s ** (-params.p), s)
    # spatial kernel mass: integral of 2 pi r (r^2 + d)^(-q), substituted s = r^2 + d
    s2 = np.geomspace(params.d, 1e9, 400_000)
    a_s = math.pi * np.trapezoid(s2 ** (-params.q), s2)
    # magnitude tilt under the Gutenberg-Richter law
    rate = b * math.log(10.0)
    m = np.linspace(m0, m0 + 40.0 / (rate - betacov), 400_000)
    tilt = np.trapezoid(np.exp(betacov * m) * rate * np.exp(-rate * (m - m0)), m)
    want = params.k0 * a_t * a_s * tilt
    got = branching_ratio(params, betacov, b, m0)
    assert got == pytest.approx(want, rel=1e-4)


def test_mean_offspring_matches_branching_ratio():
    eta = branching_ratio(SUBCRIT, 0.5)
    assert eta < 1.0
    spawners = 0
    offspring = 0
    for s in range(200):
        _, info = sim_etas(SUBCRIT, window=UNIT_W, interval=UNIT_T, seed=s,
                           return_info=True)
        spawners += info["spawners"]
        offspring += info["offspring_drawn"]
    assert offspring / spawners == pytest.approx(eta, rel=0.05)


def test_supercritical_cascade_refused():
    hot = EtasParams(mu=25.0, k0=0.05, c=0.02, p=1.5, d=0.05, q=2.0)
    assert branching_ratio(hot, 0.5) > 1.0
    with pytest.raises(ValueError, match="supercritical"):
        sim_etas(hot, window=UNIT_W, interval=UNIT_T, seed=0)


def test_divergent_magnitude_productivity_refused():
    with pytest.raises(ValueError, match="diverges"):
        branching_ratio(SUBCRIT, betacov=3.0, b=1.0)


def test_pure_background_when_k0_zero():
    params = EtasParams(mu=40.0, k0=0.0, c=0.02, p=1.5, d=0.05, q=2.0)
    pat = sim_etas(params, window=UNIT_W, interval=UNIT_T, seed=9)
    assert pat.n > 0
    assert np.all(pat.marks["generation"].values == 0.0)


def test_etas_pattern_shape_and_marks():
    pat = sim_etas(SUBCRIT, window=UNIT_W, interval=UNIT_T, seed=10)
    assert set(pat.marks) == {"magnitude", "generation"}
    assert (pat.marks["magnitude"].values >= 2.5).all()
    gen = pat.marks["generation"].values
    assert np.array_equal(gen, np.round(gen))
    assert np.all(np.diff(pat.t) >= 0)
    assert pat.window.contains(pat.x, pat.y).all()


def test_etas_offspring_enrichment():
    # descendants must actually appear for subcritical-but-active settings
    total = 0
    with_kids = 0
    for s in range(50):
        pat = sim_etas(SUBCRIT, window=UNIT_W, interval=UNIT_T, seed=200 + s)
        total += pat.n
        with_kids += int((pat.marks["generation"].values > 0).sum())
    assert with_kids > 0.1 * total


def test_etas_determinism_and_network(grid_network):
    a = sim_etas(SUBCRIT, network=grid_network, interval=UNIT_T, seed=12)
    b = sim_etas(SUBCRIT, network=grid_network, interval=UNIT_T, seed=12)
    assert np.array_equal(a.coords, b.coords)
    xy = grid_network.segment_point(a.net_seg, a.net_off)
    assert np.allclose(xy, a.coords[:, :2], atol=1e-12)


def test_etas_params_validation():
    with pytest.raises(ValueError):
        EtasParams(mu=-1.0, k0=0.0, c=0.02, p=1.5, d=0.05, q=2.0)
    with pytest.raises(ValueError):
        EtasParams(mu=1.0, k0=0.0, c=0.0, p=1.5, d=0.05, q=2.0)
    with pytest.raises(ValueError):
        EtasParams(mu=1.0, k0=0.0, c=0.02, p=1.0, d=0.05, q=2.0)
    with pytest.raises(ValueError):
        EtasParams.from_vector([1.0, 2.0, 3.0])
    # NaN and inf fail every check, each named
    good = dict(mu=1.0, k0=0.0, c=0.02, p=1.5, d=0.05, q=2.0)
    for name in good:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                EtasParams(**{**good, name: bad})
    for kwargs, name in (
        ({"betacov": float("nan")}, "betacov"),
        ({"betacov": 0.5, "b": float("nan")}, "b"),
        ({"betacov": 0.5, "b": 0.0}, "b"),
        ({"betacov": 0.5, "b": -1.0}, "b"),
        ({"betacov": 0.5, "m0": float("inf")}, "m0"),
        ({"betacov": 0.5, "m0": 2000.0}, "betacov"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            branching_ratio(SUBCRIT, **kwargs)


def test_intensity_spec_validation():
    with pytest.raises(ValueError):
        IntensitySpec.constant(-2.0)
    with pytest.raises(ValueError):
        IntensitySpec.loglinear("~x", [1.0])  # needs intercept + slope
    spec = IntensitySpec.loglinear("~x", [2.0, 6.0])
    got = spec.evaluate([0.0, 0.5], [0.0, 0.0], [0.0, 0.0])
    assert np.allclose(got, np.exp([2.0, 5.0]))
