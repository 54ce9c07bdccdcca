"""The CSV codec against the per-row writers and per-value readers it replaced.

``stpoint.io`` writes every CSV a block of rows at a time and reads every
numeric CSV with one ``np.loadtxt`` call.  ``io_reference`` keeps the
codec it replaced.  On random tables built from edge values (-0.0, the
smallest subnormal, +-1e300, +-inf, nan, integer-valued floats, 2**53) and
labels with commas, quotes, newlines, empty strings and non-ASCII text:

* every writer's bytes equal the reference writer's, with the block size
  shrunk so that every table crosses block boundaries, and once more at
  the real block size;
* a block that repeats 0.0, -0.0, nan, +-inf and +-5e-324 prints each as
  the reference does: the writer formats each distinct value of a block
  once, and must tell floats apart by their bits, not by ``==``;
* every numeric reader returns bit-identical arrays on the reference's
  files;
* the CLI's ``scores.csv`` and ``pvalues.csv`` equal the reference's
  hand-built tables.
"""

import csv
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stpoint import (
    CovariateGrid,
    ListaSet,
    MarkColumn,
    PointPattern,
    SpatialWindow,
    SummarySurface,
    TimeInterval,
    localdiag,
    localtest,
)
from stpoint import io
from stpoint.cli import main

import io_reference as ref

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0**53, 3.0, -17.0, 0.1]
FINITE = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(-1e300, 1e300, allow_nan=False),
)
ANY = st.one_of(FINITE, st.sampled_from([np.inf, -np.inf, np.nan]), st.floats())
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e300, 2.0**53, 1.0, 0.1]),
    st.floats(5e-324, 1e300),
)
LABELS = st.one_of(
    st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "é", "日本", " x ", "#"]),
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=6),
)
BLOCKS = st.integers(1, 7)
BOUND = 1e300


def floats(draw, strategy, n):
    return np.array(draw(st.lists(strategy, min_size=n, max_size=n)), dtype=float)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def patterns(draw):
    n = draw(st.integers(0, 30))
    coords = np.column_stack([floats(draw, FINITE, n) for _ in range(3)])
    marks = {}
    for k in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["mag", "type", "a,b", 'q"', "é", ""])) + str(k)
        if draw(st.booleans()):
            marks[name] = MarkColumn("continuous", floats(draw, ANY, n))
        else:
            levels = tuple(sorted(set(draw(st.lists(LABELS, min_size=1, max_size=4)))))
            codes = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
            marks[name] = MarkColumn("categorical", np.array(codes, dtype=np.int64), levels)
    return PointPattern(
        coords.reshape(n, 3),
        SpatialWindow(-BOUND, BOUND, -BOUND, BOUND),
        TimeInterval(-BOUND, BOUND),
        marks,
    )


@st.composite
def grids(draw):
    nx, ny, nt = (draw(st.integers(2, 4)) for _ in range(3))
    origin = [draw(st.sampled_from([-0.0, 0.0, -3.0, 1e-300])) for _ in range(3)]
    steps = [draw(st.sampled_from([5e-324, 0.1, 1.0, 1e100])) for _ in range(3)]
    values = floats(draw, FINITE, nt * ny * nx).reshape(nt, ny, nx)
    return CovariateGrid(
        "cov", origin[0], steps[0], nx, origin[1], steps[1], ny,
        origin[2], steps[2], nt, values,
    )


@st.composite
def surfaces(draw, values=ANY):
    lags = st.lists(FINITE, min_size=1, max_size=4, unique=True)
    rs = np.sort(np.array(draw(lags)))
    hs = np.sort(np.array(draw(lags)))
    shape = (len(rs), len(hs))
    est = floats(draw, values, rs.size * hs.size).reshape(shape)
    theo = floats(draw, values, rs.size * hs.size).reshape(shape)
    return SummarySurface(rs, hs, est, theo, "K")


@st.composite
def listas(draw):
    """0 to 4 surfaces on one drawn lag grid, as one (n, nr, nh) stack."""
    grid = draw(surfaces())
    n = draw(st.integers(0, 4))
    est = floats(draw, ANY, n * grid.est.size).reshape(n, *grid.est.shape)
    ids = draw(st.lists(st.integers(1, 2**62), min_size=n, max_size=n))
    return ListaSet(np.array(ids, dtype=np.int64), grid.rs, grid.hs, est, grid.theo, "K")


def assert_same_bytes(write, reference, obj, tmp_path):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write(obj, ours)
    reference(obj, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


WRITERS = {
    "pattern": (patterns(), io.write_pattern_csv, ref.write_pattern_csv),
    "covariate": (grids(), io.write_covariate_csv, ref.write_covariate_csv),
    "surface": (surfaces(), io.write_surface_csv, ref.write_surface_csv),
    "lista": (listas(), io.write_surface_csv, ref.write_surface_csv),
    "intensity": (
        st.integers(0, 30).flatmap(lambda n: st.lists(ANY, min_size=n, max_size=n)),
        io.write_intensity_csv,
        ref.write_intensity_csv,
    ),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(WRITERS)), data=st.data(), block=BLOCKS)
def test_writers_match_reference_bytes(tmp_path_factory, kind, data, block):
    strategy, write, reference = WRITERS[kind]
    obj = data.draw(strategy)
    with mock.patch.object(io, "_BLOCK_ROWS", block):
        assert_same_bytes(write, reference, obj, tmp_path_factory.mktemp(kind))


def test_writers_match_reference_bytes_across_real_blocks(tmp_path):
    rng = np.random.default_rng(8)
    n = 2 * io._BLOCK_ROWS + 3
    values = rng.choice(np.array(EDGES + [np.inf, -np.inf, np.nan]), n)
    pattern = PointPattern(
        np.column_stack([rng.choice(np.array(EDGES), n), rng.random(n), rng.random(n)]),
        SpatialWindow(-BOUND, BOUND, -BOUND, BOUND),
        TimeInterval(-BOUND, BOUND),
        {
            "mag": MarkColumn("continuous", values),
            "type": MarkColumn("categorical", rng.integers(0, 3, n), ("", "a,b", 'q"\n')),
        },
    )
    assert_same_bytes(io.write_pattern_csv, ref.write_pattern_csv, pattern, tmp_path)
    grid = CovariateGrid("c", 0.0, 0.1, 41, -1.0, 1e-300, 20, 0.0, 2.0**53, 20,
                         rng.normal(size=(20, 20, 41)))
    assert_same_bytes(io.write_covariate_csv, ref.write_covariate_csv, grid, tmp_path)
    assert_same_bytes(io.write_intensity_csv, ref.write_intensity_csv, values, tmp_path)
    # 75 surfaces of 16 x 14 lags: 16800 rows over three blocks, with repeated
    # ids, lags and theoretical values, and -0.0 and nan among the estimates
    rs, hs = np.linspace(0.0, 0.25, 16), np.linspace(0.0, 0.5, 14)
    theo = np.pi * rs[:, None] ** 2 * 2 * hs[None, :]
    est = rng.choice(np.array([-0.0, 0.0, np.nan, 1.5, -2.0]), (75, 16, 14))
    lista = ListaSet(rng.integers(1, 40, 75), rs, hs, est, theo, "K")
    assert len(lista) * rs.size * hs.size > 2 * io._BLOCK_ROWS
    assert_same_bytes(io.write_surface_csv, ref.write_surface_csv, lista, tmp_path)


def test_level_formatting_keys_floats_by_their_bits(tmp_path):
    """Values that compare equal (0.0 and -0.0) or unequal to themselves
    (nan) share blocks with each other and with +-inf and +-5e-324: every
    block must still print each value as the reference's per-row codec does,
    next to int64 ids, a bool column and a quoted-label column."""
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    values = np.array(edges * 4 + edges[::-1] * 4)
    n = len(values)
    ids = np.arange(n, dtype=np.int64) % 5 * 2**40
    flags = np.arange(n) % 3 == 0
    labels = np.array(["", "a,b", 'q"', "two\nlines"] * (n // 4), dtype=object)
    expect = tmp_path / "expect.csv"
    with open(expect, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "value", "flag", "label"])
        for row in zip(ids, values, flags, labels):
            w.writerow([str(int(row[0])), ref.fmt_float(row[1]), str(int(row[2])), row[3]])
    quoted = np.array([io._quote(s) for s in labels], dtype=object)
    for block in (1, 3, io._BLOCK_ROWS):
        path = tmp_path / f"block{block}.csv"
        with mock.patch.object(io, "_BLOCK_ROWS", block):
            io._write_csv(path, ["id", "value", "flag", "label"], [ids, values, flags, quoted])
        assert path.read_bytes() == expect.read_bytes(), block


@settings(max_examples=40, deadline=None)
@given(grid=grids())
def test_covariate_reader_matches_reference_bits(tmp_path_factory, grid):
    path = tmp_path_factory.mktemp("cov") / "cov.csv"
    ref.write_covariate_csv(grid, path)
    assert same_bits(io.read_covariate_csv(path), ref.read_covariate_csv(path))


@settings(max_examples=40, deadline=None)
@given(surface=surfaces())
def test_surface_reader_matches_reference_bits(tmp_path_factory, surface):
    path = tmp_path_factory.mktemp("surf") / "surface.csv"
    ref.write_surface_csv(surface, path)
    ours, theirs = io.read_surface_csv(path), ref.read_surface_csv(path)
    for attr in ("rs", "hs", "est", "theo"):
        assert same_bits(getattr(ours, attr), getattr(theirs, attr))


@settings(max_examples=40, deadline=None)
@given(values=st.lists(POSITIVE, min_size=1, max_size=30), header=st.booleans())
def test_intensity_reader_matches_reference_bits(tmp_path_factory, values, header):
    path = tmp_path_factory.mktemp("lam") / "lam.csv"
    ref.write_intensity_csv(values, path)
    if not header:
        path.write_text(path.read_text().split("\n", 1)[1])
    assert same_bits(io.read_intensity_csv(path), ref.read_intensity_csv(path))


def test_cli_tables_match_reference(tmp_path, capsys):
    sim = ["simulate", "poisson", "--lambda", "150", "--window", "0,1,0,1",
           "--time", "0,1"]
    for name, seed in (("bg", "2"), ("alt", "3")):
        assert main(sim + ["--seed", seed, "-o", str(tmp_path / name)]) == 0
    bg_csv, alt_csv = (str(tmp_path / name / "pattern.csv") for name in ("bg", "alt"))
    win, iv = SpatialWindow(0, 1, 0, 1), TimeInterval(0, 1)
    bg = io.read_pattern_csv(bg_csv, window=win, interval=iv)
    alt = io.read_pattern_csv(alt_csv, window=win, interval=iv)
    lam = np.full(bg.n, bg.n / bg.volume)
    io.write_intensity_csv(lam, tmp_path / "lam.csv")

    out = tmp_path / "dl"
    assert main(["diagnose", "local", "--pattern", bg_csv, "--window", "0,1,0,1",
                 "--time", "0,1", "--intensity", str(tmp_path / "lam.csv"),
                 "--p", "0.9", "-o", str(out)]) == 0
    lib = localdiag(bg, lam, p=0.9)
    assert (out / "scores.csv").read_text() == ref.scores_csv(lib.scores, lib.flagged_ids)
    flagged = json.loads((out / "diag.json").read_text())["flagged_ids"]
    assert flagged == sorted(set(int(i) for i in lib.flagged_ids))

    out = tmp_path / "tl"
    assert main(["test", "local", "--background", bg_csv, "--alt", alt_csv,
                 "--window", "0,1,0,1", "--time", "0,1", "--k", "19",
                 "--seed", "5", "-o", str(out)]) == 0
    lib = localtest(bg, alt, k=19, seed=5)
    expect = ref.scores_csv(lib.pvalues, lib.significant_ids)
    expect = expect.replace("id,score,flagged", "id,pvalue,significant", 1)
    assert (out / "pvalues.csv").read_text() == expect
    significant = json.loads((out / "test.json").read_text())["significant_ids"]
    assert significant == sorted(set(int(i) for i in lib.significant_ids))
    capsys.readouterr()
