"""Benchmark of one stpoint analysis cycle, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planar_pcf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, one caller, closed loop.  After its set-up the run repeats the
workload's cycle back to back on the same seed-derived inputs until
``--seconds`` are used up.  A cycle starts only if at least half of a
median-length cycle still fits, and at least three cycles run.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it alternates traced and untraced
cycles, starting traced, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Details (environment stamp, event counts, every cycle)
go to .bench_out/, and the spans of the last traced cycle go to a gzipped
CSV beside them.

``--smoke`` runs every workload at tiny sizes, traced and untraced.  It
fails unless each run emits exactly the metrics BENCHMARK.json names, plus
ops_failed_frac in its report, with no failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# One BLAS thread: with two, sim_lgcp's Cholesky was seen to stall for
# about ten times its usual time in one run of five.
THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_CYCLES = 3
HARD_STOP_S = 150.0  # no new cycle starts once it would end past this


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_stamp() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": THREADS,
        "blas_threads_reported": blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters that import stpoint and build the inputs


def measure_setup(workload: str, seed: int, repeats: int, size: str):
    times, failures = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if size == "smoke":
        cmd.append("--smoke")
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    return times, failures


# ---------------------------------------------------------------------------
# cycles


def run_cycle(wk, tracer):
    import workloads as wl

    c = wl.Cycle(tracer)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        wk.cycle(c)
    except wl.StageFailed:
        pass  # counted by Cycle; later stages need its result
    except Exception:  # the benchmark's own checks broke: count, keep going
        c.attempted += 1
        c.failed += 1
        c.failures.append("benchmark error: " + traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec = {
        "traced": tracer is not None,
        "cycle_s": c.seconds if c.first is not None else float("nan"),
        "cpu_s": c.cpu_seconds if c.first is not None else float("nan"),
        "attempted": c.attempted,
        "failed": c.failed,
        "failures": c.failures,
        "stage_s": dict(c.stage_s),
        "stage_rss_mb": dict(c.stage_rss),
        "n": dict(wk.n),
    }
    if tracer is not None:
        rec["layers"] = layer_values(tracer, c)
    return rec


def layer_values(tracer, c) -> dict:
    """Every per-layer value one traced cycle yields, by metric name."""
    import spans
    import workloads as wl

    summary = tracer.summary()
    out = {}
    for fn, row in summary.items():
        for key, value in row.items():
            out[f"{fn}.{key}"] = value
    for layer in spans.LAYERS:
        rows = [row for fn, row in summary.items() if fn.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
    for name in spans.COUNTER_NAMES:
        out[name] = tracer.counters.get(name, 0)
    for w in wl.WORKLOADS.values():
        for stage in w.stages:
            out[f"stage.{stage}.rss_mb"] = c.stage_rss.get(stage, 0.0)
    inside = total = 0
    for pattern, config in tracer.planar_summaries:
        a, b = wl.pairs_in_range(pattern, config)
        inside += a
        total += b
    out["summaries.pairs_in_range_frac"] = inside / total if total else 0.0
    return out


class Result:
    def __init__(self, workload, seed, trace, size):
        self.workload, self.seed, self.trace, self.size = workload, seed, trace, size
        self.cycles: list = []
        self.setup: list = []
        self.attempted = self.failed = 0
        self.failures: list = []
        self.metrics: dict = {}  # name -> value, the BENCHMARK.json set
        self.counts: dict = {}  # name -> sample count
        self.report: list = []


def run_workload(workload, seed, seconds, trace, size="full", probes=SETUP_REPEATS,
                 spans_path=None) -> Result:
    res = Result(workload, seed, trace, size)
    if not trace:
        res.setup, fails = measure_setup(workload, seed, probes, size)
        res.attempted += probes
        res.failed += len(fails)
        res.failures += fails

    # imported only now, so that numpy and stpoint load after the set-up
    # probes and after main() has pinned the BLAS threads
    import spans
    import workloads as wl

    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    tracer = spans.Tracer() if trace else None
    try:
        wk = wl.WORKLOADS[workload](seed, size, workdir)
        started = time.perf_counter()
        walls = []
        while True:
            traced = tracer if (trace and len(res.cycles) % 2 == 0) else None
            t0 = time.perf_counter()
            res.cycles.append(run_cycle(wk, traced))
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            if len(walls) >= MIN_CYCLES and elapsed + statistics.median(walls) / 2 > seconds:
                break  # the next cycle would end mostly past the measuring time
            if elapsed + max(walls) > HARD_STOP_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run still uses it
    for rec in res.cycles:
        res.attempted += rec["attempted"]
        res.failed += rec["failed"]
        res.failures += rec["failures"]
    res.n = res.cycles[-1]["n"]
    if tracer is not None and spans_path:
        tracer.write_spans(spans_path)
    res.peak_rss_mb = wl.maxrss_mb()
    plain = [r for r in res.cycles if not r["traced"]]
    traced = [r for r in res.cycles if r["traced"]]
    if not trace:
        res.metrics = {
            "cycle_s": statistics.median(r["cycle_s"] for r in plain),
            "peak_rss_mb": res.peak_rss_mb,
            "setup_s": statistics.median(res.setup),
        }
        res.counts = {"cycle_s": len(plain), "peak_rss_mb": 1, "setup_s": len(res.setup)}
    else:
        first = traced[0]["layers"]
        for m in load_spec()["per_layer"]:
            name = m["name"]
            if name.startswith("stage."):
                res.metrics[name] = first[name]  # high-water: first cycle only
                res.counts[name] = 1
            elif name in first:
                # counts repeat exactly; median_low keeps them whole
                median = statistics.median if m["unit"] == "s" else statistics.median_low
                res.metrics[name] = median(r["layers"][name] for r in traced)
                res.counts[name] = len(traced)
        t_traced = statistics.median(r["cycle_s"] for r in traced)
        t_plain = statistics.median(r["cycle_s"] for r in plain)
        res.metrics["run.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        res.counts["run.cpu_s"] = len(plain)
        res.metrics["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
        res.counts["trace.overhead_frac"] = 1
        res.cycle_traced, res.cycle_plain = t_traced, t_plain
    res.ops_failed_frac = res.failed / res.attempted if res.attempted else 0.0
    make_report(res, wk)
    return res


def make_report(res, wk):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    n = " ".join(f"{k}={v}" for k, v in res.n.items())
    lines = [
        f"workload {res.workload}  seed {res.seed}  trace {res.trace}  size {res.size}  "
        f"cycles {len(res.cycles)}  n {n}"
    ]
    if not res.trace:
        how = {"cycle_s": "median over cycles", "peak_rss_mb": "process high-water",
               "setup_s": "median over fresh interpreters"}
        for name, value in res.metrics.items():
            lines.append(f"  {name:<16} {value:.6g} {units[name]:<6} "
                         f"{how[name]}, {res.counts[name]} sample(s)")
    lines.append(f"  {'ops_failed_frac':<16} {res.ops_failed_frac:.6g} ratio  "
                 f"{res.failed} failed of {res.attempted} stage calls and checks")
    for failure in res.failures:
        lines.append("  FAILED " + failure.strip().replace("\n", "\n    "))
    if res.trace:
        from spans import LAYERS

        layers = sorted(LAYERS, key=lambda l: -res.metrics[f"{l}.self_s"])
        top = layers[0]
        verdict = "agrees" if top in wk.predicted else "DISAGREES"
        lines.append(
            f"  largest self time: {top} {res.metrics[top + '.self_s']:.4g} s; "
            f"predicted {'/'.join(wk.predicted)}: trace {verdict}"
        )
        lines.append("  self time by layer: " + ", ".join(
            f"{l} {res.metrics[l + '.self_s']:.3g} s" for l in layers
            if res.metrics[l + ".calls"]))
        lines.append(
            f"  trace.overhead_frac {res.metrics['trace.overhead_frac']:.4g} "
            f"(traced cycle {res.cycle_traced:.4g} s, untraced {res.cycle_plain:.4g} s)"
        )
    res.report = lines


def write_details(res):
    stem = f"{res.workload}_seed{res.seed}_trace{res.trace}"
    detail = {
        "workload": res.workload,
        "seed": res.seed,
        "trace": res.trace,
        "size": res.size,
        "env": env_stamp(),
        "n": res.n,
        "metrics": res.metrics,
        "sample_counts": res.counts,
        "ops_failed_frac": res.ops_failed_frac,
        "attempted": res.attempted,
        "failed": res.failed,
        "setup_s_samples": res.setup,
        "cycles": res.cycles,
        "report": res.report,
    }
    with open(os.path.join(OUT, f"BENCH_{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    return detail["env"]


def final_line(res) -> str:
    spec = load_spec()
    group = spec["per_layer"] if res.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": res.metrics[m["name"]], "unit": m["unit"]} for m in group}
    return json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# smoke


def smoke() -> int:
    import workloads as wl

    spec = load_spec()
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, 1, 0.0, trace, size="smoke", probes=1)
            print("\n".join(res.report))
            got = set(res.metrics)
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: missing {sorted(want[trace] - got)}, "
                                f"extra {sorted(got - want[trace])}")
            if not any(line.lstrip().startswith("ops_failed_frac") for line in res.report):
                problems.append(f"{name} trace {trace}: ops_failed_frac not reported")
            if res.failed:
                problems.append(f"{name} trace {trace}: {res.failed} failed operation(s)")
            final_line(res)  # every named metric has a unit
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stpoint", "__init__.py")):
        print(f"error: no stpoint package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(THREADS)
    sys.path.insert(1, SRC)

    if args.setup_probe:
        import workloads as wl

        size = "smoke" if args.smoke else "full"
        workdir = os.path.join(WORK, f"probe-{args.workload}-{os.getpid()}")
        try:
            wl.WORKLOADS[args.workload](args.seed, size, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.smoke:
        return smoke()

    names = [w["name"] for w in load_spec()["workloads"]]
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.csv.gz")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    res = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       spans_path=spans_path if args.trace else None)
    env = write_details(res)
    print("\n".join(res.report))
    print("  env " + json.dumps(env, sort_keys=True))
    print(final_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
