"""Command-line interface: reproducible file-based analysis pipelines.

Subcommands:
    simulate poisson|etas      draw point patterns (--seed required)
    covariate                  interpolate a sample CSV onto a regular grid
    summary                    global or per-event second-order surfaces
    fit poisson|separable|local-poisson|lgcp
    diagnose global|local      intensity goodness-of-fit diagnostics
    test local                 permutation test, background vs alternative

Each run writes its artifacts plus a ``run.json`` manifest (command,
flags, seed, library versions, sha256 checksums of inputs and outputs;
no timestamps) into the --out directory, so identical invocations give
byte-identical files.  --threads (or the STPP_THREADS variable) is
reserved: it is accepted and checked to be a positive integer, but it has
no effect, and it is deliberately left out of the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__
from .core import SpatialWindow, TimeInterval
from .covariates import interpolate_idw
from .diagnostics import globaldiag, infl, localdiag, localtest
from .fit import locstppm, sep_fit, stppm
from .formula import parse_formula
from .io import (
    _write_csv,
    grid_from_nodes,
    json_dumps,
    read_covariate_csv,
    read_intensity_csv,
    read_network_json,
    read_pattern_csv,
    write_covariate_csv,
    write_intensity_csv,
    write_pattern_csv,
    write_surface_csv,
)
from .lgcp import COV_FAMILIES, MinContrastResult, stlgcppm
from .simulate import EtasParams, IntensitySpec, sim_etas, sim_poisson
from .summaries import SummaryConfig, second_order_global, second_order_local
from .svg import covariate_svg, pattern_svg, surface_svg

__all__ = ["main"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# small parsing helpers


def _floats(text: str, n: int, what: str):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"{what}: expected {n} comma-separated numbers, got {text!r}")
    if len(parts) != n:
        raise UsageError(f"{what}: expected {n} comma-separated numbers, got {text!r}")
    return parts


def _float_list(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"{what}: expected comma-separated numbers, got {text!r}")


def _window(args) -> Optional[SpatialWindow]:
    if getattr(args, "window", None) is None:
        return None
    return SpatialWindow(*_floats(args.window, 4, "--window"))


def _interval(args) -> Optional[TimeInterval]:
    if getattr(args, "time", None) is None:
        return None
    return TimeInterval(*_floats(args.time, 2, "--time"))


def _network(args, run):
    """The --network file, checked against --domain where a command has one."""
    path = getattr(args, "network", None)
    domain = getattr(args, "domain", None)
    if domain == "network" and path is None:
        raise UsageError("--domain network requires --network")
    if domain == "window" and path is not None:
        raise UsageError("--domain window conflicts with --network")
    if path is None:
        return None
    return run.read(read_network_json, path)


def _pattern(args, run):
    net = _network(args, run)
    return run.read(
        read_pattern_csv, args.pattern, window=_window(args), interval=_interval(args), network=net
    )


def _covariates(args, run) -> dict:
    covs = {}
    for item in getattr(args, "covariate", None) or []:
        if "=" not in item:
            raise UsageError(f"--covariate: expected name=path, got {item!r}")
        name, path = item.split("=", 1)
        try:
            covs[name] = grid_from_nodes(run.read(read_covariate_csv, path), name=name)
        except ValueError as exc:
            raise UsageError(
                f"--covariate {name}: {exc}; interpolate scattered samples "
                "with the 'covariate' subcommand first"
            )
    return covs


def _config(args, statistic: str) -> SummaryConfig:
    rs = getattr(args, "rs", None)
    hs = getattr(args, "hs", None)
    for flag in ("br", "bh"):
        if statistic == "K" and getattr(args, flag, None) is not None:
            raise UsageError(f"--{flag} applies only to the g statistic")
    if getattr(args, "no_normalize", False) and args.network is None:
        raise UsageError("--no-normalize applies only to network patterns (give --network)")
    return SummaryConfig(
        statistic=statistic,
        rs=_float_list(rs, "--rs") if rs else None,
        hs=_float_list(hs, "--hs") if hs else None,
        correction=getattr(args, "correction", "translation"),
        normalize=not getattr(args, "no_normalize", False),
        br=getattr(args, "br", None),
        bh=getattr(args, "bh", None),
    )


def _nd(args):
    text = getattr(args, "nd", None)
    if text is None:
        return None
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"--nd: expected integers, got {text!r}")
    if len(parts) == 1:
        return parts[0]
    return tuple(parts)


def _jsonable(obj):
    """Convert to plain JSON types; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


# ---------------------------------------------------------------------------
# run bookkeeping


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Run:
    """Collects artifacts and writes the run.json manifest."""

    def __init__(self, args, command: str):
        self.outdir = args.out
        self.command = command
        self.flags = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "threads") and not k.startswith("_")
        }
        self.seed = getattr(args, "seed", None)
        self.inputs: list = []
        self.outputs: list = []
        os.makedirs(self.outdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def read(self, reader, path, **kwargs):
        """``reader(path, **kwargs)``, with ``path`` recorded as an input."""
        self.inputs.append(path)
        return reader(path, **kwargs)

    def add(self, name: str) -> str:
        self.outputs.append(name)
        return self.path(name)

    def write_text(self, name: str, text: str) -> None:
        with open(self.add(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json_dumps(_jsonable(obj)))

    def finish(self) -> int:
        manifest = {
            "command": self.command,
            "flags": _jsonable(self.flags),
            "seed": self.seed,
            "versions": {
                "numpy": np.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
                "stpoint": __version__,
            },
            "inputs": {p: _sha256(p) for p in sorted(set(self.inputs))},
            "outputs": {n: _sha256(self.path(n)) for n in sorted(self.outputs)},
        }
        with open(self.path("run.json"), "w", encoding="utf-8", newline="") as fh:
            fh.write(json_dumps(manifest))
        for name in sorted(self.outputs) + ["run.json"]:
            print(f"wrote {self.path(name)}")
        return 0


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_simulate_poisson(args):
    run = Run(args, "simulate poisson")
    net = _network(args, run)
    if args.lam is None and args.formula is None:
        raise UsageError("give --lambda or --formula")
    if args.lam is not None and args.formula is not None:
        raise UsageError("--lambda and --formula are mutually exclusive")
    if args.lam is not None:
        if args.coef is not None:
            raise UsageError("--coef requires --formula")
        spec = IntensitySpec.constant(args.lam)
    else:
        if args.coef is None:
            raise UsageError("--formula requires --coef")
        spec = IntensitySpec.loglinear(
            parse_formula(args.formula), _float_list(args.coef, "--coef")
        )
    pattern = sim_poisson(
        spec,
        window=_window(args),
        interval=_interval(args),
        network=net,
        seed=args.seed,
    )
    write_pattern_csv(pattern, run.add("pattern.csv"))
    if args.emit_svg:
        run.write_text("pattern.svg", pattern_svg(pattern))
    print(pattern)
    return run.finish()


def _cmd_simulate_etas(args):
    run = Run(args, "simulate etas")
    net = _network(args, run)
    params = EtasParams(args.mu, args.k0, args.c, args.p, args.d, args.q)
    pattern, info = sim_etas(
        params,
        window=_window(args),
        interval=_interval(args),
        network=net,
        betacov=args.betacov,
        b=args.b,
        m0=args.m0,
        seed=args.seed,
        return_info=True,
    )
    write_pattern_csv(pattern, run.add("pattern.csv"))
    run.write_json("etas.json", info)
    if args.emit_svg:
        run.write_text("pattern.svg", pattern_svg(pattern))
    print(pattern)
    return run.finish()


def _cmd_covariate(args):
    run = Run(args, "covariate")
    samples = run.read(read_covariate_csv, args.samples)
    grid_spec = None
    if args.grid is not None:
        try:
            grid_spec = tuple(int(p) for p in args.grid.split(","))
        except ValueError:
            grid_spec = ()
        if len(grid_spec) != 3 or min(grid_spec) < 2:
            raise UsageError("--grid: expected nx,ny,nt with each >= 2")
    grid = interpolate_idw(
        samples,
        grid=grid_spec,
        mult=args.mult,
        power=args.power,
        window=_window(args),
        interval=_interval(args),
        name=args.name,
    )
    write_covariate_csv(grid, run.add("covariate.csv"))
    if args.emit_svg:
        run.write_text("covariate.svg", covariate_svg(grid))
    return run.finish()


def _cmd_summary(args):
    run = Run(args, "summary")
    cfg = _config(args, args.statistic)
    pattern = _pattern(args, run)
    if args.intensity is not None:
        lam = run.read(read_intensity_csv, args.intensity)
    else:
        lam = pattern.n / pattern.volume
    if args.local:
        lista = second_order_local(pattern, lam, cfg)
        write_surface_csv(lista, run.add("lista.csv"))
        if args.emit_svg:
            run.write_text("surface.svg", surface_svg(lista.mean_surface()))
    else:
        surface = second_order_global(pattern, lam, cfg)
        write_surface_csv(surface, run.add("surface.csv"))
        if args.emit_svg:
            run.write_text("surface.svg", surface_svg(surface))
        print(surface)
    return run.finish()


def _model_json_poisson(model) -> dict:
    return {
        "model": "poisson",
        "formula": str(model.trend),
        "method": model.method,
        "coefficients": {"names": list(model.names), "values": model.coef},
        "converged": model.glm.converged,
        "n_iter": model.glm.n_iter,
        "marked": model.type_mark is not None,
        "type_mark": model.type_mark,
        "quadrature": {
            "n_data": model.pattern.n,
            "nd": list(model.nd),
            "seed": model.seed,
        },
    }


def _cmd_fit_poisson(args):
    run = Run(args, "fit poisson")
    pattern = _pattern(args, run)
    covs = _covariates(args, run)
    model = stppm(
        pattern,
        trend=args.formula,
        covs=covs or None,
        marked=args.marked,
        method=args.method,
        nd=_nd(args),
        seed=args.seed,
    )
    run.write_json("model.json", _model_json_poisson(model))
    write_intensity_csv(model.fitted, run.add("intensity.csv"))
    print(model)
    return run.finish()


def _cmd_fit_separable(args):
    run = Run(args, "fit separable")
    pattern = _pattern(args, run)
    model = sep_fit(
        pattern,
        spaceformula=args.space_formula,
        timeformula=args.time_formula,
        nd=_nd(args),
        seed=args.seed,
    )
    run.write_json(
        "model.json",
        {
            "model": "separable",
            "space": {
                "formula": str(model.space_trend),
                "names": list(model.space_names),
                "values": model.space_coef,
            },
            "time": {
                "formula": str(model.time_trend),
                "names": list(model.time_names),
                "values": model.time_coef,
            },
            "normalization": model.norm,
        },
    )
    write_intensity_csv(model.fitted, run.add("intensity.csv"))
    print(model)
    return run.finish()


def _cmd_fit_local_poisson(args):
    run = Run(args, "fit local-poisson")
    pattern = _pattern(args, run)
    covs = _covariates(args, run)
    model = locstppm(
        pattern,
        trend=args.formula,
        covs=covs or None,
        h_space=args.h_space,
        h_time=args.h_time,
        nd=_nd(args),
        seed=args.seed,
    )
    run.write_json(
        "model.json",
        {
            "model": "local-poisson",
            "formula": str(model.trend),
            "names": list(model.names),
            "bandwidths": {"space": model.h_space, "time": model.h_time},
            "n_converged": int(model.converged.sum()),
            "coefficients": model.coef,
        },
    )
    write_intensity_csv(model.fitted, run.add("intensity.csv"))
    print(model)
    return run.finish()


_FAMILY_ALIASES = {
    "sep-exp": "separable-exponential",
    "gneiting": "gneiting",
    "iaco-cesare": "iaco-cesare",
}


def _cmd_fit_lgcp(args):
    run = Run(args, "fit lgcp")
    cfg = _config(args, "g")
    pattern = _pattern(args, run)
    covs = _covariates(args, run)
    family = _FAMILY_ALIASES.get(args.family, args.family)
    if family not in COV_FAMILIES:
        raise UsageError(f"--family: unknown family {args.family!r}")
    fit = stlgcppm(
        pattern,
        trend=args.formula,
        covs=covs or None,
        family=family,
        first=args.first,
        second=args.second,
        config=cfg,
        nd=_nd(args),
        seed=args.seed,
    )
    if args.first == "global":
        first_order = {
            "names": list(fit.first_fit.names),
            "values": fit.first_fit.coef,
            "converged": fit.first_fit.glm.converged,
        }
    else:
        first_order = {
            "names": list(fit.first_fit.names),
            "coefficients": fit.first_fit.coef,
            "bandwidths": {
                "space": fit.first_fit.h_space,
                "time": fit.first_fit.h_time,
            },
        }
    if isinstance(fit.second_fit, MinContrastResult):
        second_order = {
            "params": fit.second_fit.params,
            "contrast": fit.second_fit.contrast,
            "converged": fit.second_fit.converged,
            "boundary": fit.second_fit.boundary,
        }
    else:
        keys = list(fit.second_fit[0].params)
        second_order = {
            "names": keys,
            "values": [[r.params[k] for k in keys] for r in fit.second_fit],
            "boundary": [r.boundary for r in fit.second_fit],
        }
    run.write_json(
        "model.json",
        {
            "model": "lgcp",
            "family": family,
            "first": args.first,
            "second": args.second,
            "formula": args.formula,
            "first_order": first_order,
            "second_order": second_order,
        },
    )
    write_intensity_csv(fit.intensity, run.add("intensity.csv"))
    print(fit)
    return run.finish()


def _cmd_diagnose_global(args):
    run = Run(args, "diagnose global")
    cfg = _config(args, "K")
    pattern = _pattern(args, run)
    lam = run.read(read_intensity_csv, args.intensity)
    res = globaldiag(pattern, lam, config=cfg)
    write_surface_csv(res.surface, run.add("ksurface.csv"))
    run.write_json("diag.json", {"sum_squared_differences": res.discrepancy})
    if args.emit_svg:
        run.write_text("ksurface.svg", surface_svg(res.surface))
    print(res)
    return run.finish()


def _cmd_diagnose_local(args):
    run = Run(args, "diagnose local")
    cfg = _config(args, "K")
    pattern = _pattern(args, run)
    lam = run.read(read_intensity_csv, args.intensity)
    res = localdiag(pattern, lam, p=args.p, config=cfg)
    ids = np.arange(1, len(res.scores) + 1)
    flagged = np.isin(ids, res.flagged_ids)
    _write_csv(run.add("scores.csv"), ["id", "score", "flagged"], [ids, res.scores, flagged])
    run.write_json(
        "diag.json",
        {
            "threshold": res.threshold,
            "quantile": res.quantile,
            "flagged_ids": ids[flagged],
        },
    )
    surfaces = infl(res)
    for pid, surf in zip(surfaces.ids, surfaces.surfaces):
        write_surface_csv(surf, run.add(f"infl_{int(pid)}.csv"))
        if args.emit_svg:
            run.write_text(f"infl_{int(pid)}.svg", surface_svg(surf))
    print(res)
    return run.finish()


def _cmd_test_local(args):
    run = Run(args, "test local")
    cfg = _config(args, args.method)
    net = _network(args, run)
    window, interval = _window(args), _interval(args)
    bg = run.read(read_pattern_csv, args.background, window=window, interval=interval, network=net)
    alt = run.read(read_pattern_csv, args.alt, window=window, interval=interval, network=net)
    # the union of the two domains (each is the given one where one was given)
    window = SpatialWindow(
        min(bg.window.x0, alt.window.x0),
        max(bg.window.x1, alt.window.x1),
        min(bg.window.y0, alt.window.y0),
        max(bg.window.y1, alt.window.y1),
    )
    interval = TimeInterval(
        min(bg.interval.t0, alt.interval.t0),
        max(bg.interval.t1, alt.interval.t1),
    )
    bg = replace(bg, window=window, interval=interval)
    alt = replace(alt, window=window, interval=interval)
    res = localtest(
        bg,
        alt,
        method=args.method,
        k=args.k,
        alpha=args.alpha,
        config=cfg,
        seed=args.seed,
    )
    ids = np.arange(1, len(res.pvalues) + 1)
    sig = np.isin(ids, res.significant_ids)
    _write_csv(run.add("pvalues.csv"), ["id", "pvalue", "significant"], [ids, res.pvalues, sig])
    run.write_json(
        "test.json",
        {
            "method": res.method,
            "k": res.k,
            "alpha": res.alpha,
            "n_background": res.n_background,
            "n_alternative": res.n_alternative,
            "significant_ids": ids[sig],
        },
    )
    print(res)
    return run.finish()


# ---------------------------------------------------------------------------
# parser


def _add_out(p, svg=True):
    p.add_argument("-o", "--out", required=True, help="output directory")
    if svg:
        p.add_argument("--emit-svg", action="store_true", help="also write SVG plots")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="reserved; accepted but has no effect",
    )


def _add_domain(p, network=True):
    p.add_argument("--window", help="x0,x1,y0,y1 (default: data range)")
    p.add_argument("--time", help="t0,t1 (default: data range)")
    if network:
        p.add_argument("--network", help="network JSON file")


def _add_pattern(p):
    p.add_argument("--pattern", required=True, help="pattern CSV")
    _add_domain(p)


def _add_lags(p, bandwidths=True, normalize=True):
    p.add_argument("--rs", help="comma-separated spatial lags")
    p.add_argument("--hs", help="comma-separated temporal lags")
    if bandwidths:
        p.add_argument("--br", type=float, help="spatial pcf bandwidth (g only)")
        p.add_argument("--bh", type=float, help="temporal pcf bandwidth (g only)")
    p.add_argument(
        "--correction", choices=["translation", "none"], default="translation"
    )
    if normalize:
        p.add_argument(
            "--no-normalize",
            action="store_true",
            help="network patterns: divide by sum of 1/intensity instead of volume",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stpoint",
        description="Spatio-temporal point pattern analysis pipelines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # simulate
    sim = sub.add_parser("simulate", help="draw synthetic patterns")
    sim_sub = sim.add_subparsers(dest="mode", required=True)

    sp = sim_sub.add_parser("poisson", help="(in)homogeneous Poisson")
    sp.add_argument("--lambda", dest="lam", type=float, help="constant intensity")
    sp.add_argument("--formula", help="log-linear trend in x, y, t")
    sp.add_argument("--coef", help="comma-separated trend coefficients")
    sp.add_argument("--domain", choices=["window", "network"], default="window")
    _add_domain(sp)
    sp.add_argument("--seed", type=int, required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_simulate_poisson)

    se = sim_sub.add_parser("etas", help="epidemic-type aftershock sequences")
    for flag, hint in [
        ("--mu", "background rate"),
        ("--k0", "triggering scale"),
        ("--c", "temporal offset"),
        ("--p", "temporal decay exponent"),
        ("--d", "spatial scale"),
        ("--q", "spatial decay exponent"),
    ]:
        se.add_argument(flag, type=float, required=True, help=hint)
    se.add_argument("--betacov", type=float, default=0.5, help="magnitude productivity")
    se.add_argument("--b", type=float, default=1.0, help="magnitude distribution slope")
    se.add_argument("--m0", type=float, default=2.5, help="magnitude threshold")
    se.add_argument("--domain", choices=["window", "network"], default="window")
    _add_domain(se)
    se.add_argument("--seed", type=int, required=True)
    _add_out(se)
    se.set_defaults(func=_cmd_simulate_etas)

    # covariate
    cov = sub.add_parser("covariate", help="interpolate samples to a grid")
    cov.add_argument("--samples", required=True, help="CSV with x,y,t,value rows")
    cov.add_argument("--name", default="cov", help="covariate name")
    cov.add_argument("--grid", help="nx,ny,nt (overrides --mult)")
    cov.add_argument("--mult", type=float, default=20.0, help="grid density factor")
    cov.add_argument("--power", type=float, default=2.0, help="inverse-distance power")
    _add_domain(cov, network=False)
    _add_out(cov)
    cov.set_defaults(func=_cmd_covariate)

    # summary
    summ = sub.add_parser("summary", help="second-order summary surfaces")
    _add_pattern(summ)
    summ.add_argument("--statistic", choices=["K", "g"], default="K")
    summ.add_argument("--intensity", help="per-event intensity CSV (default: n/volume)")
    summ.add_argument("--local", action="store_true", help="per-event surfaces")
    _add_lags(summ)
    _add_out(summ)
    summ.set_defaults(func=_cmd_summary)

    # fit
    fit = sub.add_parser("fit", help="fit intensity / process models")
    fit_sub = fit.add_subparsers(dest="mode", required=True)

    fp = fit_sub.add_parser("poisson", help="log-linear Poisson intensity")
    _add_pattern(fp)
    fp.add_argument("--formula", default="~1")
    fp.add_argument("--covariate", action="append", help="name=grid.csv (repeatable)")
    fp.add_argument("--marked", action="store_true", help="per-type intercepts")
    fp.add_argument("--method", choices=["glm", "lsr"], default="glm")
    fp.add_argument("--nd", help="dummy grid: k or nx,ny,nt")
    fp.add_argument("--seed", type=int, required=True)
    _add_out(fp, svg=False)
    fp.set_defaults(func=_cmd_fit_poisson)

    fs = fit_sub.add_parser("separable", help="separable space/time intensity")
    _add_pattern(fs)
    fs.add_argument("--space-formula", default="~1")
    fs.add_argument("--time-formula", default="~1")
    fs.add_argument(
        "--nd", help="k: k x k spatial cells (k arc cells on a network) and k time cells"
    )
    fs.add_argument("--seed", type=int, required=True)
    _add_out(fs, svg=False)
    fs.set_defaults(func=_cmd_fit_separable)

    fl = fit_sub.add_parser("local-poisson", help="kernel-weighted local fits")
    _add_pattern(fl)
    fl.add_argument("--formula", default="~1")
    fl.add_argument("--covariate", action="append", help="name=grid.csv (repeatable)")
    fl.add_argument("--h-space", type=float, help="spatial bandwidth")
    fl.add_argument("--h-time", type=float, help="temporal bandwidth")
    fl.add_argument("--nd", help="dummy grid: k or nx,ny,nt")
    fl.add_argument("--seed", type=int, required=True)
    _add_out(fl, svg=False)
    fl.set_defaults(func=_cmd_fit_local_poisson)

    fg = fit_sub.add_parser("lgcp", help="log-Gaussian Cox process")
    _add_pattern(fg)
    fg.add_argument("--formula", default="~1")
    fg.add_argument("--covariate", action="append", help="name=grid.csv (repeatable)")
    fg.add_argument("--first", choices=["global", "local"], default="global")
    fg.add_argument("--second", choices=["global", "local"], default="global")
    fg.add_argument(
        "--family",
        default="sep-exp",
        help="sep-exp | gneiting | iaco-cesare",
    )
    _add_lags(fg)
    fg.add_argument("--nd", help="dummy grid: k or nx,ny,nt")
    fg.add_argument("--seed", type=int, required=True)
    _add_out(fg, svg=False)
    fg.set_defaults(func=_cmd_fit_lgcp)

    # diagnose
    diag = sub.add_parser("diagnose", help="intensity goodness-of-fit")
    diag_sub = diag.add_subparsers(dest="mode", required=True)

    dg = diag_sub.add_parser("global", help="K-based global diagnostic")
    _add_pattern(dg)
    dg.add_argument("--intensity", required=True, help="per-event intensity CSV")
    _add_lags(dg, bandwidths=False)
    _add_out(dg)
    dg.set_defaults(func=_cmd_diagnose_global)

    dl = diag_sub.add_parser("local", help="per-event outlier diagnostic")
    _add_pattern(dl)
    dl.add_argument("--intensity", required=True, help="per-event intensity CSV")
    dl.add_argument("--p", type=float, default=0.95, help="flagging quantile")
    _add_lags(dl, bandwidths=False)
    _add_out(dl)
    dl.set_defaults(func=_cmd_diagnose_local)

    # test
    test = sub.add_parser("test", help="hypothesis tests")
    test_sub = test.add_subparsers(dest="mode", required=True)

    tl = test_sub.add_parser("local", help="permutation test of local structure")
    tl.add_argument("--background", required=True, help="pattern CSV (X)")
    tl.add_argument("--alt", required=True, help="pattern CSV (Z)")
    _add_domain(tl)
    tl.add_argument("--method", choices=["K", "g"], default="K")
    tl.add_argument("--k", type=int, default=99, help="permutation count")
    tl.add_argument("--alpha", type=float, default=0.05)
    _add_lags(tl, normalize=False)  # localtest scales every surface by n_X / volume
    tl.add_argument("--seed", type=int, required=True)
    _add_out(tl, svg=False)
    tl.set_defaults(func=_cmd_test_local)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    threads = getattr(args, "threads", None)
    if threads is None and os.environ.get("STPP_THREADS"):
        try:
            threads = int(os.environ["STPP_THREADS"])
        except ValueError:
            print("error: STPP_THREADS must be an integer", file=sys.stderr)
            return 2
    if threads is not None and threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # library errors map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
