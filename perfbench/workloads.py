"""The four benchmark workloads: inputs, stage calls and correctness checks.

A workload is built once per run from the seed (its set-up) and then run
as back-to-back cycles on the same inputs.  Stages call the public
``stpoint`` API, or ``stpoint.cli.main`` in-process, through module
attributes looked up at call time, so the traced run sees them wrapped.

Event counts are fixed per workload: the simulators draw a little more than
needed and a seeded uniform subset of the target size is kept.  A uniform
subset of a Poisson or Cox pattern is an independent thinning of it
conditioned on the count, so the pair correlation the stages estimate is
unchanged, while run times compare across seeds at one problem size.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
import resource
import time
import traceback

import numpy as np

import stpoint as sp
import stpoint.cli as stp_cli

from spans import STAGE_PREFIX

EPS = np.finfo(np.float64).eps
THREADS = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))  # pinned by run.py


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sub_seed(seed: int, k: int) -> int:
    """Independent integer seed number k derived from the run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def fixed_size(pattern, n: int, seed: int):
    """Seeded uniform subset of n events (all events when fewer)."""
    if pattern.n <= n:
        return pattern
    rng = np.random.default_rng(seed)
    return pattern.subset(np.sort(rng.choice(pattern.n, size=n, replace=False)))


class StageFailed(Exception):
    pass


class Cycle:
    """Times the stage calls of one cycle and tallies ops and checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.first = self.last = None
        self.cpu_first = self.cpu_last = None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.stage_rss: dict = {}
        self.stage_s: dict = {}

    def stage(self, name, fn, *args, **kwargs):
        self.attempted += 1
        span = self.tracer.span(STAGE_PREFIX + name) if self.tracer else contextlib.nullcontext()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with span:
                return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"stage {name}: {traceback.format_exc()}")
            raise StageFailed(name) from exc
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            if self.first is None:
                self.first, self.cpu_first = t0, cpu0
            self.last, self.cpu_last = t1, cpu1
            self.stage_s[name] = t1 - t0
            self.stage_rss[name] = maxrss_mb()

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {name} {detail}".rstrip())
        return ok

    @property
    def seconds(self) -> float:
        return self.last - self.first

    @property
    def cpu_seconds(self) -> float:
        return self.cpu_last - self.cpu_first


def check_local_mean(cycle, local, ref, n):
    """Mean of the local K surfaces equals the global surface.

    All pair contributions are positive, so a float64 sum of m of them is
    within (m - 1) eps of its exact value relative to the sum.  The global
    surface sums n(n - 1) pairs, a local one n - 1 and the mean n surfaces,
    each then accumulated over the lag grid; the tolerance is that bound.
    """
    mean = local.mean_surface().est
    tol = (n * n + 2 * n + 2 * ref.est.size) * EPS * float(np.abs(ref.est).max())
    err = float(np.abs(mean - ref.est).max())
    cycle.check("mean of local K surfaces == global K surface", err <= tol, f"err={err:.3g} tol={tol:.3g}")


class Workload:
    name = ""
    stages: tuple = ()
    predicted: tuple = ()  # layers expected to have the largest self time
    sizes: dict = {}

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = dict(self.sizes[size])
        self.workdir = workdir
        self.n = {}

    def cycle(self, c: Cycle) -> None:
        raise NotImplementedError


class PlanarPcf(Workload):
    """LGCP on the unit cube: dense pair tables and the g kernel surface."""

    name = "planar_pcf"
    stages = ("sim_lgcp", "stlgcppm", "globaldiag", "localdiag")
    predicted = ("summaries",)
    sizes = {
        "full": {"n": 1900, "lam0": 3200.0, "grid": (16, 16, 12)},
        "smoke": {"n": 120, "lam0": 300.0, "grid": (6, 6, 4)},
    }
    params = {"sigma": 1.0, "alpha": 0.1, "beta": 0.1}

    def cycle(self, c):
        s, seed = self.size, self.seed
        p = c.stage(
            "sim_lgcp",
            lambda: fixed_size(
                sp.sim_lgcp(
                    "separable-exponential", self.params, lam0=s["lam0"],
                    grid=s["grid"], seed=sub_seed(seed, 1),
                ),
                s["n"], sub_seed(seed, 2),
            ),
        )
        self.n = {"X": p.n}
        fit = c.stage("stlgcppm", lambda: sp.stlgcppm(p, "~x+y+t", seed=sub_seed(seed, 3)))
        g = c.stage("globaldiag", lambda: sp.globaldiag(p, fit.intensity))
        loc = c.stage("localdiag", lambda: sp.localdiag(p, fit.intensity))
        params = list(fit.params.values())
        c.check("LGCP estimates finite", bool(np.isfinite(params).all()))
        check_local_mean(c, loc.listas, g.surface, p.n)


def lattice_network(k: int):
    """k x k vertex lattice on the unit square: 2k(k-1) segments of length 1/(k-1)."""
    xs = np.linspace(0.0, 1.0, k)
    vertices = np.array([(x, y) for y in xs for x in xs])
    segments = []
    for j in range(k):
        for i in range(k):
            v = j * k + i
            if i < k - 1:
                segments.append((v, v + 1))
            if j < k - 1:
                segments.append((v, v + k))
    return sp.LinearNetwork(vertices, np.array(segments))


class NetworkK(Workload):
    """Poisson on a lattice network: Dijkstra and equidistant counts."""

    name = "network_k"
    stages = ("sim_poisson", "stppm", "second_order_global", "localdiag")
    predicted = ("network",)
    # intercept log 46 puts about 1030 events on 220 segments, so the
    # 900 kept are almost always a strict subset
    sizes = {
        "full": {"n": 900, "k": 11, "intercept": math.log(46.0)},
        "smoke": {"n": 60, "k": 5, "intercept": math.log(60.0)},
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.network = lattice_network(self.size["k"])
        self.spec = sp.IntensitySpec.loglinear("~x+t", [self.size["intercept"], 0.5, -0.5])

    def cycle(self, c):
        s, seed = self.size, self.seed
        p = c.stage(
            "sim_poisson",
            lambda: fixed_size(
                sp.sim_poisson(self.spec, network=self.network, seed=sub_seed(seed, 1)),
                s["n"], sub_seed(seed, 2),
            ),
        )
        self.n = {"X": p.n}
        fit = c.stage("stppm", lambda: sp.stppm(p, "~x+t", seed=sub_seed(seed, 3)))
        surf = c.stage("second_order_global", lambda: sp.second_order_global(p, fit.fitted))
        loc = c.stage("localdiag", lambda: sp.localdiag(p, fit.fitted))
        c.check("K surface finite", bool(np.isfinite(surf.est).all()))
        check_local_mean(c, loc.listas, surf, p.n)


class LocalFits(Workload):
    """Per-event loops: local IRLS, local minimum contrast, permutation test."""

    name = "local_fits"
    stages = ("sim_lgcp", "sim_etas", "locstppm", "stlgcppm", "localtest")
    predicted = ("optimize", "lgcp")
    sizes = {
        "full": {"n": 270, "lam0": 700.0, "grid": (12, 12, 8), "nz": 220, "mu": 200.0, "k": 99},
        "smoke": {"n": 40, "lam0": 120.0, "grid": (5, 5, 4), "nz": 40, "mu": 60.0, "k": 19},
    }
    params = {"sigma": 1.2, "alpha": 0.15, "beta": 0.2}

    def cycle(self, c):
        s, seed = self.size, self.seed
        X = c.stage(
            "sim_lgcp",
            lambda: fixed_size(
                sp.sim_lgcp(
                    "separable-exponential", self.params, lam0=s["lam0"],
                    grid=s["grid"], seed=sub_seed(seed, 1),
                ),
                s["n"], sub_seed(seed, 2),
            ),
        )
        etas = sp.EtasParams(mu=s["mu"], k0=3e-5, c=0.02, p=1.5, d=0.01, q=2.0)
        Z, _info = c.stage("sim_etas", lambda: sp.sim_etas(etas, seed=sub_seed(seed, 3), return_info=True))
        Z = fixed_size(Z, s["nz"], sub_seed(seed, 4))
        self.n = {"X": X.n, "Z": Z.n}
        # stlgcppm(first="local") refuses a pattern on which any local fit
        # fails to converge, as "~x" does at about one seed in 30 here;
        # locstppm returns such events as NaN rows, checked below
        first = c.stage("locstppm", lambda: sp.locstppm(X, "~x", seed=sub_seed(seed, 5)))
        fit = c.stage(
            "stlgcppm",
            lambda: sp.stlgcppm(X, "~1", first="local", second="local", seed=sub_seed(seed, 5)),
        )
        res = c.stage("localtest", lambda: sp.localtest(X, Z, "K", k=s["k"], seed=sub_seed(seed, 6)))

        ok = first.converged
        c.check(
            "non-converged local first-order rows are NaN, converged rows finite",
            bool(np.isnan(first.coef[~ok]).all() and np.isfinite(first.coef[ok]).all()),
        )
        c.check("fitted intensity finite", bool(np.isfinite(fit.intensity).all()))
        c.check("local LGCP estimates finite", bool(np.isfinite(fit.param_table()).all()))
        # a non-finite local surface value makes its contrast non-finite
        c.check(
            "local contrasts finite",
            all(math.isfinite(r.contrast) for r in fit.second_fit),
        )
        pv = res.pvalues
        c.check(
            "localtest p-values in [1/(k+1), 1]",
            bool(np.all((pv >= 1.0 / (s["k"] + 1) - EPS) & (pv <= 1.0))),
        )


class CliCovariate(Workload):
    """File pipeline through cli.main: IDW covariate, its CSV, global fits."""

    name = "cli_covariate"
    stages = (
        "cli_simulate",
        "cli_covariate",
        "cli_fit_glm",
        "cli_fit_lsr",
        "cli_fit_separable",
        "cli_diagnose_global",
    )
    predicted = ("io",)
    sizes = {
        "full": {"samples": 64, "mult": 14.0, "coef": "7.3,0.5,-0.5,0.3"},
        "smoke": {"samples": 8, "mult": 2.0, "coef": "4.5,0.5,-0.5,0.3"},
    }
    DOMAIN = ["--window", "0,1,0,1", "--time", "0,1"]

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng(sub_seed(seed, 1))
        sites = rng.random((self.size["samples"], 3))
        x, y, t = sites.T
        value = np.sin(2.0 * math.pi * x) * np.cos(math.pi * y) + 0.5 * t
        os.makedirs(workdir, exist_ok=True)
        self.samples = os.path.join(workdir, "samples.csv")
        with open(self.samples, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,y,t,value\n")
            for row in np.column_stack([sites, value]):
                fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
        self.reference = None  # output checksums of the first cycle

    def _out(self, step):
        return os.path.join(self.workdir, step)

    def _call(self, c, name, argv):
        argv = argv + ["-o", self._out(name), "--threads", str(THREADS)]
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = c.stage(name, lambda: stp_cli.main(argv))
        if not c.check(f"{name} exits 0", rc == 0, err.getvalue().strip()):
            raise StageFailed(name)

    def cycle(self, c):
        s, seed = self.size, self.seed
        pattern = os.path.join(self._out("cli_simulate"), "pattern.csv")
        cov = "cov=" + os.path.join(self._out("cli_covariate"), "covariate.csv")
        fit_seed = str(sub_seed(seed, 3) % 2**31)
        self._call(c, "cli_simulate", [
            "simulate", "poisson", "--formula", "~x+y+t", "--coef", s["coef"],
            "--seed", str(sub_seed(seed, 2) % 2**31), *self.DOMAIN,
        ])
        self._call(c, "cli_covariate", [
            "covariate", "--samples", self.samples, "--name", "cov",
            "--mult", str(s["mult"]), *self.DOMAIN,
        ])
        fit = ["fit", "poisson", "--pattern", pattern, *self.DOMAIN,
               "--formula", "~x+y+t+cov", "--covariate", cov, "--seed", fit_seed]
        self._call(c, "cli_fit_glm", fit)
        self._call(c, "cli_fit_lsr", fit + ["--method", "lsr"])
        self._call(c, "cli_fit_separable", [
            "fit", "separable", "--pattern", pattern, *self.DOMAIN,
            "--space-formula", "~x+y", "--time-formula", "~t", "--seed", fit_seed,
        ])
        self._call(c, "cli_diagnose_global", [
            "diagnose", "global", "--pattern", pattern, *self.DOMAIN,
            "--intensity", os.path.join(self._out("cli_fit_glm"), "intensity.csv"),
        ])
        with open(pattern, encoding="utf-8") as fh:
            self.n = {"X": sum(1 for _ in fh) - 1}

        sums = {}
        for step in self.stages:
            with open(os.path.join(self._out(step), "run.json"), encoding="utf-8") as fh:
                sums[step] = json.load(fh)["outputs"]
        if self.reference is None:
            self.reference = sums
        else:
            c.check("run.json output checksums identical across cycles", sums == self.reference)


WORKLOADS = {w.name: w for w in (PlanarPcf, NetworkK, LocalFits, CliCovariate)}


def pairs_in_range(pattern, config):
    """Ordered pairs i != j within the surface's lag reach, and n(n - 1).

    The reach is the largest lag plus, for g, the kernel bandwidth.
    """
    cfg = sp.resolve_config(pattern, config)
    g = cfg.statistic == "g"
    rmax = cfg.rs[-1] + (cfg.br if g else 0.0)
    hmax = cfg.hs[-1] + (cfg.bh if g else 0.0)
    x, y, t = pattern.x, pattern.y, pattern.t
    n = pattern.n
    inside = 0
    for lo in range(0, n, 512):
        sl = slice(lo, lo + 512)
        d = np.hypot(x[sl, None] - x[None, :], y[sl, None] - y[None, :])
        dt = np.abs(t[sl, None] - t[None, :])
        inside += int(np.count_nonzero((d <= rmax) & (dt <= hmax)))
    return inside - n, n * (n - 1)
