"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every function listed in a layer module's
``__all__`` with a timing wrapper, in every ``stpoint`` module that holds a
reference to it, so calls between and inside modules are caught.  Each
call records a span (function, start, end, parent span) in flat in-memory
buffers; ``uninstall`` puts the original functions back.  Counters are read
only from public return values, after the span has closed.

A layer is the module that defines the function.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "core",
    "simulate",
    "covariates",
    "formula",
    "fit",
    "network",
    "summaries",
    "lgcp",
    "optimize",
    "diagnostics",
    "io",
    "cli",
)

STAGE_PREFIX = "stage."


def _count_glm(tr, res, args, kwargs):
    tr.counters["fit.glm_iters"] += res.n_iter


def _count_quadrature(tr, res, args, kwargs):
    tr.counters["fit.dummies"] += res.n_dummy


def _count_local_fit(tr, res, args, kwargs):
    tr.counters["fit.local_nonconverged"] += int((~res.converged).sum())


def _count_nelder_mead(tr, res, args, kwargs):
    tr.counters["optimize.nm_iters"] += res.n_iter
    tr.counters["optimize.nm_unconverged"] += int(not res.converged)


def _count_min_contrast(tr, res, args, kwargs):
    tr.counters["lgcp.boundary_fits"] += int(res.boundary)


def _count_summary(tr, res, args, kwargs):
    tr.counters["summaries.skipped_pairs"] += res.skipped_pairs
    pattern = args[0] if args else kwargs["pattern"]
    if pattern.network is None:
        config = args[2] if len(args) > 2 else kwargs.get("config")
        tr.planar_summaries.append((pattern, config))


def _count_etas(tr, res, args, kwargs):
    if isinstance(res, tuple):
        tr.counters["simulate.etas_generations"] += res[1]["generations"]


def _count_localtest(tr, res, args, kwargs):
    tr.counters["diagnostics.null_surfaces"] += res.n_background * res.k


def _count_idw(tr, res, args, kwargs):
    samples = args[0] if args else kwargs["samples"]
    nodes = res.nx * res.ny * res.nt
    tr.counters["covariates.idw_pairs"] += nodes * len(samples)


def _count_write(tr, res, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counters["io.bytes_written"] += os.path.getsize(path)


# counters taken from the return value of a public function, by
# "<layer>.<function>"; io writers are matched by prefix below
COUNTERS = {
    "fit.fit_glm": _count_glm,
    "fit.make_quadrature": _count_quadrature,
    "fit.locstppm": _count_local_fit,
    "optimize.nelder_mead": _count_nelder_mead,
    "lgcp.min_contrast": _count_min_contrast,
    "summaries.second_order_global": _count_summary,
    "summaries.second_order_local": _count_summary,
    "simulate.sim_etas": _count_etas,
    "diagnostics.localtest": _count_localtest,
    "covariates.interpolate_idw": _count_idw,
}


COUNTER_NAMES = (
    "fit.glm_iters",
    "fit.dummies",
    "fit.local_nonconverged",
    "optimize.nm_iters",
    "optimize.nm_unconverged",
    "lgcp.boundary_fits",
    "summaries.skipped_pairs",
    "simulate.etas_generations",
    "diagnostics.null_surfaces",
    "covariates.idw_pairs",
    "io.bytes_written",
)


def _counter_for(name):
    if name.startswith("io.write_"):
        return _count_write
    return COUNTERS.get(name)


class Tracer:
    """Span buffers plus the wrappers that fill them."""

    def __init__(self):
        self.names: list = []  # span name per function id
        self._ids: dict = {}
        self.fid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.planar_summaries: list = []
        self._patched: list = []  # (module, attribute, original)

    def reset(self):
        for buf in (self.fid, self.parent, self.start, self.end):
            del buf[:]
        self.stack[:] = [-1]
        self.counters.clear()
        self.planar_summaries.clear()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        fid = self._id(name)
        count = _counter_for(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a stage call."""
        idx = len(self.fid)
        self.fid.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def install(self):
        """Wrap the public functions of every layer module."""
        import stpoint  # noqa: F401  (loads every submodule)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"stpoint.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        holders = [
            m
            for name, m in list(sys.modules.items())
            if name == "stpoint" or name.startswith("stpoint.")
        ]
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # aggregation

    def summary(self):
        """Per-function call counts, inclusive and self seconds."""
        import numpy as np

        fid = np.frombuffer(self.fid, dtype=np.int_)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        nf = len(self.names)
        calls = np.bincount(fid, minlength=nf)
        incl = np.bincount(fid, weights=dur, minlength=nf)
        own = np.bincount(fid, weights=self_s, minlength=nf)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path):
        """Spans as gzipped CSV: name,start_s,end_s,parent (row index, -1 root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for k in range(len(self.fid)):
                fh.write(
                    f"{self.names[self.fid[k]]},{self.start[k] - t0:.9f},"
                    f"{self.end[k] - t0:.9f},{self.parent[k]}\n"
                )

