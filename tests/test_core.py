"""Pattern containers: windows, intervals, marks, table construction."""

import numpy as np
import pytest

from stpoint import (
    MarkColumn,
    PointPattern,
    SpatialWindow,
    TimeInterval,
    pattern_from_table,
    temporal_multiplicity,
)


def test_window_extent_and_area():
    w = SpatialWindow(0.0, 2.0, -1.0, 3.0)
    assert w.width == 2.0
    assert w.height == 4.0
    assert w.area == 8.0


@pytest.mark.parametrize(
    "bounds",
    [(1.0, 1.0, 0.0, 1.0), (2.0, 1.0, 0.0, 1.0), (0.0, 1.0, 5.0, 5.0)],
)
def test_window_rejects_empty_extent(bounds):
    with pytest.raises(ValueError):
        SpatialWindow(*bounds)


def test_window_rejects_nonfinite():
    with pytest.raises(ValueError):
        SpatialWindow(0.0, np.inf, 0.0, 1.0)


def test_interval_validation():
    assert TimeInterval(1.0, 4.0).length == 3.0
    with pytest.raises(ValueError):
        TimeInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        TimeInterval(0.0, np.nan)


def test_temporal_multiplicity_examples():
    iv = TimeInterval(0.0, 1.0)
    # both t - tau and t + tau inside
    assert temporal_multiplicity(iv, 0.5, 0.2) == 2
    # t - tau falls below t0, t + tau still inside
    assert temporal_multiplicity(iv, 0.1, 0.2) == 1
    # both shifted times leave the interval
    assert temporal_multiplicity(iv, 0.5, 0.8) == 0


def test_temporal_multiplicity_boundary_and_zero():
    iv = TimeInterval(0.0, 1.0)
    # inclusive comparisons on both ends
    assert temporal_multiplicity(iv, 0.5, 0.5) == 2
    assert temporal_multiplicity(iv, 0.0, 0.0) == 2
    # interior point, tau = 0
    assert temporal_multiplicity(iv, 0.3, 0.0) == 2


def test_temporal_multiplicity_vectorised():
    iv = TimeInterval(0.0, 1.0)
    out = temporal_multiplicity(iv, np.array([0.5, 0.1, 0.5]), np.array([0.2, 0.2, 0.8]))
    assert out.tolist() == [2, 1, 0]
    with pytest.raises(ValueError):
        temporal_multiplicity(iv, 0.5, -0.1)


def test_pattern_str_format():
    pat = pattern_from_table(
        [(0.1, 0.2, 0.3), (0.9, 0.8, 0.7)],
        window=SpatialWindow(0.0, 1.0, 0.0, 1.0),
        interval=TimeInterval(0.0, 1.0),
    )
    text = str(pat)
    lines = text.splitlines()
    assert lines[0] == "Spatio-temporal planar point pattern"
    assert lines[1] == "2 points"
    assert lines[2] == "Enclosing window: rectangle = [0, 1] x [0, 1]"
    assert lines[3] == "Time period: [0, 1]"


def test_enclosing_window_defaults_to_exact_ranges():
    rows = [(0.2, 0.5, 1.0), (0.8, 0.1, 3.0), (0.4, 0.9, 2.0)]
    pat = pattern_from_table(rows)
    assert pat.window == SpatialWindow(0.2, 0.8, 0.1, 0.9)
    assert pat.interval == TimeInterval(1.0, 3.0)
    assert pat.volume == pytest.approx(0.6 * 0.8 * 2.0)


def test_single_point_pattern():
    pat = pattern_from_table(
        [(0.5, 0.5, 0.5)],
        window=SpatialWindow(0.0, 1.0, 0.0, 1.0),
        interval=TimeInterval(0.0, 1.0),
    )
    assert pat.n == 1
    assert "1 points" in str(pat)


def test_events_outside_domain_rejected():
    w = SpatialWindow(0.0, 1.0, 0.0, 1.0)
    iv = TimeInterval(0.0, 1.0)
    with pytest.raises(ValueError):
        PointPattern(np.array([[1.5, 0.5, 0.5]]), w, iv)
    with pytest.raises(ValueError):
        PointPattern(np.array([[0.5, 0.5, 2.0]]), w, iv)


def test_categorical_mark_inference():
    rows = [(0.1, 0.1, 0.1, "A"), (0.2, 0.2, 0.2, "B"), (0.3, 0.3, 0.3, "A")]
    pat = pattern_from_table(rows, names=["type"])
    m = pat.marks["type"]
    assert m.kind == "categorical"
    assert m.levels == ("A", "B")
    assert m.labels.tolist() == ["A", "B", "A"]
    counts = {lv: int((m.values == k).sum()) for k, lv in enumerate(m.levels)}
    assert counts == {"A": 2, "B": 1}


def test_numeric_string_marks_become_continuous():
    # CSV readers hand every field back as text; numeric columns must not
    # silently turn categorical on a round trip
    rows = [(0.1, 0.1, 0.1, "2.5"), (0.2, 0.2, 0.2, "3.5")]
    pat = pattern_from_table(rows, names=["size"])
    assert pat.marks["size"].kind == "continuous"
    assert pat.marks["size"].values.tolist() == [2.5, 3.5]


def test_label_naming_non_finite_is_categorical():
    # a label is text that does not parse as a float, whatever it says
    rows = [(0.1, 0.2, 0.3, "non-finite zone"), (0.4, 0.5, 0.6, "ok")]
    m = pattern_from_table(rows, names=["label"]).marks["label"]
    assert m.kind == "categorical"
    assert m.labels.tolist() == ["non-finite zone", "ok"]
    # numbers that parse but are not finite are still refused
    for bad in ("nan", "inf"):
        rows = [(0.1, 0.2, 0.3, "1.5"), (0.4, 0.5, 0.6, bad)]
        with pytest.raises(ValueError, match="mark 'size' has non-finite values"):
            pattern_from_table(rows, names=["size"])


def test_mark_column_validation():
    with pytest.raises(ValueError):
        MarkColumn("weird", np.array([1.0]))
    with pytest.raises(ValueError):
        MarkColumn("categorical", np.array([0, 2]), levels=("a", "b"))
    with pytest.raises(ValueError):
        MarkColumn("categorical", np.array([0]), levels=None)


def test_subset_keeps_marks_and_domain():
    rows = [(0.1, 0.1, 0.1, "A"), (0.2, 0.2, 0.2, "B"), (0.3, 0.3, 0.3, "A")]
    pat = pattern_from_table(
        rows,
        names=["type"],
        window=SpatialWindow(0.0, 1.0, 0.0, 1.0),
        interval=TimeInterval(0.0, 1.0),
    )
    sub = pat.subset([0, 2])
    assert sub.n == 2
    assert sub.window == pat.window
    assert sub.marks["type"].labels.tolist() == ["A", "A"]


def test_subset_of_no_rows_is_the_empty_pattern():
    rows = [(0.1, 0.1, 0.1, "A"), (0.2, 0.2, 0.2, "B")]
    pat = pattern_from_table(rows, names=["type"])
    sub = pat.subset([])
    assert sub.n == 0 and sub.coords.shape == (0, 3)
    assert sub.window == pat.window and sub.interval == pat.interval
    assert sub.marks["type"].labels.tolist() == []


def test_table_shape_errors():
    with pytest.raises(ValueError):
        pattern_from_table([])
    with pytest.raises(ValueError):
        pattern_from_table([(0.1, 0.2)])
    with pytest.raises(ValueError):
        pattern_from_table([(0.1, 0.2, 0.3), (0.1, 0.2, 0.3, 1.0)])
    with pytest.raises(ValueError):
        pattern_from_table([(0.1, "oops", 0.3)])
    with pytest.raises(ValueError):
        pattern_from_table([(0.1, 0.2, 0.3)], names=["a", "b"])


def test_coords_are_readonly():
    pat = pattern_from_table([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])
    with pytest.raises(ValueError):
        pat.coords[0, 0] = 99.0
