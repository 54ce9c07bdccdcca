"""File formats and the command-line pipelines.

Round trips must be bit-for-bit (floats serialize with 17 significant
digits in CSV and shortest exact repr in JSON), CLI runs byte-identical
under reruns and --threads variation, and every CLI artifact must equal
the corresponding library call on the same inputs.
"""

import json
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stpoint import (
    CovariateGrid,
    LinearNetwork,
    ListaSet,
    MarkColumn,
    PointPattern,
    SpatialWindow,
    TimeInterval,
    globaldiag,
    interpolate_idw,
    localdiag,
    localtest,
    second_order_global,
    second_order_local,
    sim_poisson,
    stppm,
)
from stpoint.cli import _build_parser, main
from stpoint.io import (
    _write_csv,
    fmt_float,
    grid_from_nodes,
    json_dumps,
    read_covariate_csv,
    read_intensity_csv,
    read_network_json,
    read_pattern_csv,
    read_surface_csv,
    write_covariate_csv,
    write_intensity_csv,
    write_network_json,
    write_pattern_csv,
    write_surface_csv,
)
from stpoint.svg import surface_svg


# ---------------------------------------------------------------------------
# serialization round trips


def test_float_formats_round_trip():
    tricky = [
        math.pi,
        1.0 / 3.0,
        1e-300,
        6.02214076e23,
        -0.1,
        2.0**-52,
        1.7976931348623157e308,
    ]
    for v in tricky:
        assert float(fmt_float(v)) == v
        assert json.loads(json_dumps({"v": v}))["v"] == v


def test_pattern_csv_round_trip(tmp_path, unit_window, unit_interval):
    rng = np.random.default_rng(5)
    coords = rng.random((40, 3))
    pat = PointPattern(
        coords,
        unit_window,
        unit_interval,
        marks={
            "mag": MarkColumn("continuous", rng.random(40) * 3 + 2),
            "type": MarkColumn(
                "categorical", (rng.random(40) < 0.5).astype(int), ("A", "B")
            ),
        },
    )
    path = tmp_path / "pattern.csv"
    write_pattern_csv(pat, path)
    back = read_pattern_csv(path, window=unit_window, interval=unit_interval)
    assert np.array_equal(back.coords, pat.coords)
    assert np.array_equal(back.marks["mag"].values, pat.marks["mag"].values)
    assert list(back.marks["type"].labels) == list(pat.marks["type"].labels)
    assert back.window == pat.window and back.interval == pat.interval


def test_pattern_csv_header_check(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header must start with x,y,t"):
        read_pattern_csv(bad)


def test_network_json_round_trip(tmp_path, grid_network):
    path = tmp_path / "net.json"
    write_network_json(grid_network, path)
    back = read_network_json(path)
    assert np.array_equal(back.vertices, grid_network.vertices)
    assert np.array_equal(back.segments, grid_network.segments)
    with pytest.raises(ValueError, match="vertices"):
        (tmp_path / "empty.json").write_text("[]")
        read_network_json(tmp_path / "empty.json")


def test_covariate_grid_round_trip(tmp_path):
    vals = np.arange(24, dtype=float).reshape(4, 3, 2) * math.pi
    grid = CovariateGrid("elev", 0.0, 0.5, 2, 0.0, 0.25, 3, 0.0, 0.1, 4, vals)
    path = tmp_path / "cov.csv"
    write_covariate_csv(grid, path)
    back = grid_from_nodes(read_covariate_csv(path), name="elev")
    assert np.array_equal(back.values, grid.values)
    for attr in ("x0", "dx", "nx", "y0", "dy", "ny", "t0", "dt", "nt"):
        assert getattr(back, attr) == getattr(grid, attr)


def test_grid_from_nodes_rejects_scattered_samples():
    rng = np.random.default_rng(2)
    scattered = np.column_stack([rng.random((10, 3)), rng.random(10)])
    with pytest.raises(ValueError, match="complete regular grid"):
        grid_from_nodes(scattered)
    # complete grid but shuffled rows: the node order is part of the format
    grid = CovariateGrid(
        "c", 0.0, 1.0, 2, 0.0, 1.0, 2, 0.0, 1.0, 2, np.arange(8, dtype=float).reshape(2, 2, 2)
    )
    table = grid.node_table()[::-1]
    with pytest.raises(ValueError, match="x-fastest"):
        grid_from_nodes(table)


def test_surface_csv_round_trip(tmp_path, poisson100):
    lam = float(poisson100.n / poisson100.volume)
    surf = second_order_global(poisson100, lam)
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, path)
    back = read_surface_csv(path, statistic="K")
    assert np.array_equal(back.rs, surf.rs)
    assert np.array_equal(back.hs, surf.hs)
    assert np.array_equal(back.est, surf.est)
    assert np.array_equal(back.theo, surf.theo)


def test_intensity_csv_round_trip(tmp_path):
    vals = np.exp(np.random.default_rng(3).random(25) * 4)
    path = tmp_path / "lam.csv"
    write_intensity_csv(vals, path)
    assert np.array_equal(read_intensity_csv(path), vals)
    bad = tmp_path / "bad.csv"
    bad.write_text("intensity\n-1.0\n")
    with pytest.raises(ValueError, match="positive"):
        read_intensity_csv(bad)


def test_covariate_writer_memory_stays_per_block(tmp_path):
    # the 56^3 grid of the benchmark's covariate step: the node table is
    # 5.4 MiB and the write peaks at 9.4 MiB, formatting a block of rows at
    # a time; formatting the whole table as one block peaked at 54 MiB
    grid = CovariateGrid("c", 0.0, 1 / 55, 56, 0.0, 1 / 55, 56, 0.0, 1 / 55, 56,
                         np.random.default_rng(0).normal(size=(56, 56, 56)))
    tracemalloc.start()
    try:
        write_covariate_csv(grid, tmp_path / "cov.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_lista_writer_memory_stays_per_block(tmp_path):
    # 4045 events on 10 x 10 lags, as sim_poisson(4000, seed=0): 404,500
    # rows; one meshgrid per surface and a joined (rows, 4) table peaked at
    # 30.8 MiB, the repeated and tiled columns at about 15 MiB
    rng = np.random.default_rng(0)
    rs, hs = np.arange(1, 11) / 40.0, np.arange(1, 11) / 40.0
    lista = ListaSet(np.arange(1, 4046), rs, hs, rng.normal(size=(4045, 10, 10)),
                     np.outer(rs, hs), "K")
    tracemalloc.start()
    try:
        write_surface_csv(lista, tmp_path / "lista.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("extra", [1, -1])
def test_csv_writer_refuses_columns_of_unequal_length(tmp_path, extra):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="unequal length"):
        _write_csv(path, ["a", "b"], [np.arange(4.0), np.arange(4 + extra)])
    assert not path.exists()


COV, SURF = "x,y,t,value\n", "r,h,estimate,theoretical\n"
MALFORMED = {
    "covariate-empty": (read_covariate_csv, "", "empty file"),
    "covariate-header-only": (read_covariate_csv, COV, "expected rows of x,y,t,value"),
    "covariate-wrong-header": (read_covariate_csv, "x,y,t\n1,2,3\n", "header must be x,y,t,value"),
    "covariate-non-numeric": (read_covariate_csv, COV + "1,2,abc,4\n", "non-numeric entry"),
    "covariate-ragged": (read_covariate_csv, COV + "1,2,3,4\n1,2,3,4,5\n", "expected rows of x,y,t,value"),
    "covariate-short": (read_covariate_csv, COV + "1,2,3\n", "expected rows of x,y,t,value"),
    "surface-empty": (read_surface_csv, "", "empty file"),
    "surface-header-only": (read_surface_csv, SURF, "rows do not cover a full lag grid"),
    "surface-wrong-header": (read_surface_csv, "r,h,est\n1,2,3\n", "expected header r,h,estimate,theoretical"),
    "surface-non-numeric": (read_surface_csv, SURF + "abc,1,1,1\n", "non-numeric entry"),
    "surface-ragged": (read_surface_csv, SURF + "1,1,1,1\n1,2,1\n", "expected rows of r,h,estimate"),
    "surface-short": (read_surface_csv, SURF + "1,1,1\n", "expected rows of r,h,estimate"),
    "surface-partial-grid": (read_surface_csv, SURF + "1,1,1,1\n1,2,1,1\n2,1,1,1\n", "full lag grid"),
    "intensity-empty": (read_intensity_csv, "", "empty file"),
    "intensity-header-only": (read_intensity_csv, "intensity\n", "no intensity values"),
    "intensity-wrong-header": (read_intensity_csv, "lambda\n1.0\n", "non-numeric intensity entry"),
    "intensity-non-numeric": (read_intensity_csv, "intensity\n1.0\nabc\n", "non-numeric intensity entry"),
    "intensity-ragged": (read_intensity_csv, "intensity\n1.0\n2.0,3.0\n", "expected rows of intensity"),
    "intensity-second-column": (read_intensity_csv, "intensity\n1.0,2.0\n3.0,4.0\n", "expected rows of intensity"),
    "intensity-not-positive": (read_intensity_csv, "intensity\n1.0\n0.0\n", "positive and finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_numeric_readers_refuse_malformed_files(tmp_path, case):
    reader, text, message = MALFORMED[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        reader(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# CLI: determinism and exit codes


SIM_ARGS = [
    "simulate",
    "poisson",
    "--lambda",
    "200",
    "--window",
    "0,1,0,1",
    "--time",
    "0,1",
    "--seed",
    "2",
]


def read_bytes(path):
    return path.read_bytes()


def test_simulate_rerun_is_byte_identical(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(SIM_ARGS + ["-o", str(out)]) == 0
    first = {p.name: read_bytes(p) for p in out.iterdir()}
    assert set(first) == {"pattern.csv", "run.json"}

    assert main(SIM_ARGS + ["-o", str(out)]) == 0
    assert {p.name: read_bytes(p) for p in out.iterdir()} == first

    monkeypatch.setenv("STPP_THREADS", "4")
    assert main(SIM_ARGS + ["-o", str(out)]) == 0
    assert {p.name: read_bytes(p) for p in out.iterdir()} == first
    monkeypatch.delenv("STPP_THREADS")

    assert main(SIM_ARGS + ["--threads", "2", "-o", str(out)]) == 0
    assert {p.name: read_bytes(p) for p in out.iterdir()} == first
    capsys.readouterr()


def test_run_manifest_checksums(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(SIM_ARGS + ["-o", str(out)]) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["command"] == "simulate poisson"
    assert manifest["seed"] == 2
    assert "threads" not in manifest["flags"]
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256(read_bytes(out / name)).hexdigest()
        assert actual == digest
    capsys.readouterr()


def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "o")
    # argparse: missing required --seed
    assert main(["simulate", "poisson", "--lambda", "5", "-o", out]) == 2
    # unknown subcommand
    assert main(["frobnicate"]) == 2
    # conflicting intensity specifications
    assert (
        main(
            ["simulate", "poisson", "--lambda", "5", "--formula", "~x",
             "--coef", "1,1", "--seed", "1", "-o", out]
        )
        == 2
    )
    # network domain without a network file
    assert (
        main(["simulate", "poisson", "--lambda", "5", "--domain", "network",
              "--seed", "1", "-o", out])
        == 2
    )
    assert main(SIM_ARGS + ["--threads", "0", "-o", out]) == 2
    # --coef without --formula would be ignored
    assert (
        main(["simulate", "poisson", "--lambda", "50", "--coef", "1,2,3", "--seed", "1",
              "-o", out]) == 2
        and "--coef requires --formula" in capsys.readouterr().err
    )
    samples = tmp_path / "samples.csv"
    samples.write_text("x,y,t,value\n0,0,0,1\n1,1,1,2\n")
    assert main(["covariate", "--samples", str(samples), "--grid", "4,4,x", "-o", out]) == 2
    assert "--grid: expected nx,ny,nt with each >= 2" in capsys.readouterr().err
    monkeypatch.setenv("STPP_THREADS", "soon")
    assert main(SIM_ARGS + ["-o", out]) == 2
    monkeypatch.delenv("STPP_THREADS")
    capsys.readouterr()


def test_computation_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["fit", "poisson", "--pattern", str(tmp_path / "missing.csv"),
                 "--seed", "1", "-o", out]) == 1
    pat = tmp_path / "p.csv"
    main(SIM_ARGS + ["-o", str(tmp_path / "sim")])
    (tmp_path / "sim" / "pattern.csv").rename(pat)
    assert main(["fit", "poisson", "--pattern", str(pat), "--formula", "~ zz",
                 "--seed", "1", "-o", out]) == 1
    capsys.readouterr()


def test_fit_separable_rejects_bad_nd(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    for nd in ("4,5,6", "0"):
        code = main(["fit", "separable", "--pattern", str(pat_csv), "--nd", nd,
                     "--seed", "1", "-o", str(tmp_path / "o")])
        assert code == 1
        assert "nd must be one positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: golden equivalence with library calls


def simulate_pattern(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(SIM_ARGS + ["-o", str(out)]) == 0
    capsys.readouterr()
    return out / "pattern.csv"


def test_fit_poisson_names_and_equivalence(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    out = tmp_path / "fit"
    assert main(["fit", "poisson", "--pattern", str(pat_csv), "--formula", "~ x",
                 "--seed", "2", "-o", str(out)]) == 0
    capsys.readouterr()
    model = json.loads((out / "model.json").read_text())
    assert model["coefficients"]["names"] == ["(Intercept)", "x"]

    pattern = read_pattern_csv(pat_csv)
    lib = stppm(pattern, trend="~ x", seed=2)
    assert model["coefficients"]["values"] == lib.coef.tolist()
    assert np.array_equal(read_intensity_csv(out / "intensity.csv"), lib.fitted)


FIT = ["--pattern", "p.csv", "--seed", "1", "-o", "o"]
DIAGNOSE = ["--pattern", "p.csv", "--intensity", "i.csv", "-o", "o"]
INERT_FLAGS = [
    *[(["fit", mode, *FIT], ["--emit-svg"])
      for mode in ("poisson", "separable", "local-poisson", "lgcp")],
    (["test", "local", "--background", "b.csv", "--alt", "a.csv", "--seed", "1", "-o", "o"],
     ["--emit-svg"]),
    *[(["diagnose", mode, *DIAGNOSE], flag)
      for mode in ("global", "local") for flag in (["--br", "0.1"], ["--bh", "0.1"])],
    (["test", "local", "--background", "b.csv", "--alt", "a.csv", "--seed", "1", "-o", "o"],
     ["--no-normalize"]),
]


@pytest.mark.parametrize("argv, flag", INERT_FLAGS)
def test_commands_refuse_flags_they_would_ignore(argv, flag, capsys):
    # without the flag the arguments parse; with it argparse exits 2
    _build_parser().parse_args(argv)
    assert main(argv + flag) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


TEST_LOCAL = ["test", "local", "--background", "b.csv", "--alt", "a.csv", "--seed", "1"]


@pytest.mark.parametrize("argv, flag", [
    (["summary", "--pattern", "p.csv", "--br", "0.1"], "--br"),
    (["summary", "--pattern", "p.csv", "--statistic", "K", "--bh", "0.1"], "--bh"),
    ([*TEST_LOCAL, "--method", "K", "--br", "0.1"], "--br"),
    ([*TEST_LOCAL, "--bh", "0.1"], "--bh"),
    (["summary", "--pattern", "p.csv", "--no-normalize"], "--no-normalize"),
    (["diagnose", "global", *DIAGNOSE[:-2], "--no-normalize"], "--no-normalize"),
    (["diagnose", "local", *DIAGNOSE[:-2], "--no-normalize"], "--no-normalize"),
    (["fit", "lgcp", *FIT[:-2], "--no-normalize"], "--no-normalize"),
])
def test_lag_flags_that_cannot_take_effect_exit_2(tmp_path, argv, flag, capsys):
    # K surfaces use no bandwidth, and planar surfaces always divide by the volume;
    # the flags are refused before any input is read, so the input files need not exist
    assert main(argv + ["-o", str(tmp_path / "o")]) == 2
    assert f"error: {flag} applies only to" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["summary", "--pattern", "p.csv"],
    ["diagnose", "global", *DIAGNOSE[:-2]],
    ["diagnose", "local", *DIAGNOSE[:-2]],
    ["fit", "lgcp", *FIT[:-2]],
    TEST_LOCAL,
], ids=["summary", "diagnose-global", "diagnose-local", "fit-lgcp", "test-local"])
def test_network_commands_refuse_correction_none(tmp_path, argv, capsys):
    # network surfaces always divide by the equidistant and temporal counts;
    # the flag is refused before any input is read
    flags = ["--network", "net.json", "--correction", "none", "-o", str(tmp_path / "o")]
    assert main(argv + flags) == 2
    assert "error: --correction none applies only to planar patterns" in capsys.readouterr().err


def test_fit_manifest_lists_no_svg_flag(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    out = tmp_path / "fit"
    assert main(["fit", "poisson", "--pattern", str(pat_csv), "--seed", "2",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    assert "emit_svg" not in json.loads((out / "run.json").read_text())["flags"]


def test_summary_equivalence(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    out = tmp_path / "summ"
    assert main(["summary", "--pattern", str(pat_csv), "--statistic", "K",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    pattern = read_pattern_csv(pat_csv)
    lib = second_order_global(pattern, pattern.n / pattern.volume)
    back = read_surface_csv(out / "surface.csv")
    assert np.array_equal(back.est, lib.est)
    assert np.array_equal(back.theo, lib.theo)


def test_summary_local_equals_the_library_and_reruns_byte_identical(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    out = tmp_path / "loc"
    argv = ["summary", "--pattern", str(pat_csv), "--local", "--emit-svg", "-o", str(out)]
    assert main(argv) == 0
    first = {p.name: read_bytes(p) for p in out.iterdir()}
    assert set(first) == {"lista.csv", "surface.svg", "run.json"}
    assert main(argv) == 0
    capsys.readouterr()
    assert {p.name: read_bytes(p) for p in out.iterdir()} == first

    pattern = read_pattern_csv(pat_csv)
    lib = second_order_local(pattern, pattern.n / pattern.volume)
    assert first["lista.csv"].startswith(b"id,r,h,estimate,theoretical\n")
    rows = np.loadtxt(out / "lista.csv", delimiter=",", skiprows=1)
    rows = rows.reshape(len(lib), len(lib.rs), len(lib.hs), 5)
    shape = rows.shape[:3]
    for col, want in enumerate([lib.ids[:, None, None], lib.rs[:, None], lib.hs, lib.est]):
        want = np.broadcast_to(want, shape).astype(float)
        assert rows[..., col].tobytes() == want.tobytes()
    assert (out / "surface.svg").read_text(encoding="utf-8") == surface_svg(lib.mean_surface())


def test_summary_refuses_non_finite_lags(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    for flags, message in ((["--rs", "0.1,nan"], "lags must be positive and finite"),
                           (["--hs", "inf"], "lags must be positive and finite"),
                           (["--statistic", "g", "--br", "nan"],
                            "bandwidths must be positive and finite")):
        code = main(["summary", "--pattern", str(pat_csv), *flags, "-o", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err


def test_local_poisson_with_no_converged_event_writes_its_run(tmp_path, capsys):
    # printing the fit used to raise IndexError, so run.json was not written
    pat_csv = simulate_pattern(tmp_path, capsys)
    out = tmp_path / "loc"
    assert main(["fit", "local-poisson", "--pattern", str(pat_csv), "--h-space", "0.001",
                 "--h-time", "0.001", "--seed", "1", "-o", str(out)]) == 0
    assert "(Intercept): nan  nan  nan" in capsys.readouterr().out
    assert json.loads((out / "model.json").read_text())["n_converged"] == 0
    assert "model.json" in json.loads((out / "run.json").read_text())["outputs"]


def test_local_poisson_refuses_non_finite_bandwidths(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    for flags in (["--h-space", "nan"], ["--h-time", "inf"]):
        code = main(["fit", "local-poisson", "--pattern", str(pat_csv), *flags,
                     "--seed", "1", "-o", str(tmp_path / "o")])
        assert code == 1
        assert "bandwidths must be positive and finite" in capsys.readouterr().err


def test_diagnose_global_equivalence(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    pattern = read_pattern_csv(pat_csv)
    lam = np.full(pattern.n, pattern.n / pattern.volume)
    lam_csv = tmp_path / "lam.csv"
    write_intensity_csv(lam, lam_csv)

    out = tmp_path / "diag"
    assert main(["diagnose", "global", "--pattern", str(pat_csv),
                 "--intensity", str(lam_csv), "-o", str(out)]) == 0
    capsys.readouterr()
    lib = globaldiag(pattern, lam)
    diag = json.loads((out / "diag.json").read_text())
    assert diag["sum_squared_differences"] == lib.discrepancy
    back = read_surface_csv(out / "ksurface.csv")
    assert np.array_equal(back.est, lib.surface.est)


def test_diagnose_local_emits_flagged_surfaces(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    pattern = read_pattern_csv(pat_csv)
    lam = np.full(pattern.n, pattern.n / pattern.volume)
    lam_csv = tmp_path / "lam.csv"
    write_intensity_csv(lam, lam_csv)

    out = tmp_path / "dl"
    assert main(["diagnose", "local", "--pattern", str(pat_csv),
                 "--intensity", str(lam_csv), "--p", "0.9", "-o", str(out)]) == 0
    capsys.readouterr()
    lib = localdiag(pattern, lam, p=0.9)
    diag = json.loads((out / "diag.json").read_text())
    assert diag["flagged_ids"] == lib.flagged_ids.tolist()
    assert diag["threshold"] == lib.threshold

    rows = (out / "scores.csv").read_text().strip().splitlines()
    assert rows[0] == "id,score,flagged"
    scores = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(scores, lib.scores)

    # one surface file per flagged event, bit-for-bit with the library
    for pid in lib.flagged_ids:
        back = read_surface_csv(out / f"infl_{int(pid)}.csv")
        assert np.array_equal(back.est, lib.listas.surfaces[int(pid) - 1].est)


def test_test_local_equivalence(tmp_path, capsys):
    bg_out, alt_out = tmp_path / "bg", tmp_path / "alt"
    assert main(SIM_ARGS + ["-o", str(bg_out)]) == 0
    alt_args = list(SIM_ARGS)
    alt_args[alt_args.index("--seed") + 1] = "3"
    alt_args[alt_args.index("--lambda") + 1] = "150"
    assert main(alt_args + ["-o", str(alt_out)]) == 0

    out = tmp_path / "test"
    assert main(["test", "local", "--background", str(bg_out / "pattern.csv"),
                 "--alt", str(alt_out / "pattern.csv"),
                 "--window", "0,1,0,1", "--time", "0,1",
                 "--k", "19", "--alpha", "0.05", "--seed", "11",
                 "-o", str(out)]) == 0
    capsys.readouterr()

    win, iv = SpatialWindow(0, 1, 0, 1), TimeInterval(0, 1)
    bg = read_pattern_csv(bg_out / "pattern.csv", window=win, interval=iv)
    alt = read_pattern_csv(alt_out / "pattern.csv", window=win, interval=iv)
    lib = localtest(bg, alt, k=19, alpha=0.05, seed=11)

    rows = (out / "pvalues.csv").read_text().strip().splitlines()
    assert rows[0] == "id,pvalue,significant"
    pvals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(pvals, lib.pvalues)
    info = json.loads((out / "test.json").read_text())
    assert info["significant_ids"] == lib.significant_ids.tolist()
    assert info["n_background"] == bg.n and info["n_alternative"] == alt.n



def lattice_network(k):
    """k x k vertex lattice on the unit square."""
    verts = np.array([(i, j) for j in range(k) for i in range(k)]) / (k - 1.0)
    segs = [(j * k + i, j * k + i + 1) for j in range(k) for i in range(k - 1)]
    segs += [(j * k + i, (j + 1) * k + i) for j in range(k - 1) for i in range(k)]
    return LinearNetwork(verts, np.array(segs))


def test_test_local_on_a_network_takes_the_union_window(tmp_path, capsys):
    # without --window each file's window is its own coordinate range; the
    # two used to differ and the run failed with "patterns must share the
    # same window and interval"
    net = lattice_network(6)
    write_network_json(net, tmp_path / "net.json")
    pats = [sim_poisson(0.4, network=net, seed=s) for s in (1, 2)]
    for name, pat in zip(("bg.csv", "alt.csv"), pats):
        write_pattern_csv(pat, tmp_path / name)
    read = [read_pattern_csv(tmp_path / name) for name in ("bg.csv", "alt.csv")]
    assert read[0].window != read[1].window
    union = (
        min(p.window.x0 for p in read), max(p.window.x1 for p in read),
        min(p.window.y0 for p in read), max(p.window.y1 for p in read),
    )
    common = ["test", "local", "--network", str(tmp_path / "net.json"),
              "--background", str(tmp_path / "bg.csv"), "--alt", str(tmp_path / "alt.csv"),
              "--k", "19", "--seed", "11"]
    assert main(common + ["-o", str(tmp_path / "plain")]) == 0
    window = ",".join(repr(v) for v in union)
    assert main(common + ["--window", window, "-o", str(tmp_path / "union")]) == 0
    capsys.readouterr()
    for name in ("pvalues.csv", "test.json"):
        assert read_bytes(tmp_path / "plain" / name) == read_bytes(tmp_path / "union" / name)


def test_simulate_refuses_a_window_with_a_network(tmp_path, capsys, grid_network):
    write_network_json(grid_network, tmp_path / "net.json")
    for sim in (["poisson", "--lambda", "5"], ["etas", "--mu", "5", "--k0", "0.0001", "--c", "0.02", "--p", "1.5",
                                                 "--d", "0.05", "--q", "2"]):
        code = main(["simulate", *sim, "--domain", "network",
                     "--network", str(tmp_path / "net.json"), "--window", "0,1,0,1",
                     "--seed", "1", "-o", str(tmp_path / "o")])
        assert code == 1
        assert "window cannot be given with a network" in capsys.readouterr().err

def test_covariate_equivalence(tmp_path, capsys):
    rng = np.random.default_rng(9)
    samples = np.column_stack([rng.random((30, 3)), rng.random(30) * 10])
    sample_csv = tmp_path / "samples.csv"
    with open(sample_csv, "w") as fh:
        fh.write("x,y,t,value\n")
        for row in samples:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")

    out = tmp_path / "cov"
    assert main(["covariate", "--samples", str(sample_csv), "--name", "elev",
                 "--grid", "4,4,3", "--power", "2.0", "-o", str(out)]) == 0
    capsys.readouterr()
    lib = interpolate_idw(
        read_covariate_csv(sample_csv), grid=(4, 4, 3), power=2.0, name="elev"
    )
    back = grid_from_nodes(read_covariate_csv(out / "covariate.csv"), name="elev")
    assert np.array_equal(back.values, lib.values)


def test_fit_lgcp_family_alias_and_artifacts(tmp_path, capsys):
    pat_csv = simulate_pattern(tmp_path, capsys)
    out = tmp_path / "lgcp"
    assert main(["fit", "lgcp", "--pattern", str(pat_csv),
                 "--family", "sep-exp",
                 "--rs", "0.05,0.1,0.15,0.2", "--hs", "0.05,0.1,0.15,0.2",
                 "--nd", "6", "--seed", "4", "-o", str(out)]) == 0
    capsys.readouterr()
    model = json.loads((out / "model.json").read_text())
    assert model["family"] == "separable-exponential"
    assert set(model["second_order"]["params"]) == {"sigma", "alpha", "beta"}
    pattern = read_pattern_csv(pat_csv)
    lam = read_intensity_csv(out / "intensity.csv")
    assert lam.shape == (pattern.n,)


def test_simulate_etas_and_svg(tmp_path, capsys):
    out = tmp_path / "etas"
    assert main(["simulate", "etas", "--mu", "30", "--k0", "0.0001", "--c", "0.02",
                 "--p", "1.5", "--d", "0.05", "--q", "2.0",
                 "--seed", "6", "--emit-svg", "-o", str(out)]) == 0
    capsys.readouterr()
    info = json.loads((out / "etas.json").read_text())
    assert info["branching_ratio"] < 1.0
    pattern = read_pattern_csv(out / "pattern.csv")
    assert "magnitude" in pattern.marks
    svg = (out / "pattern.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")
