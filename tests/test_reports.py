"""CSV schema round trips and parse diagnostics."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histlearn.errors import DataFormatError
from histlearn.models import EpochStats, EvalReport
from histlearn.reports import (
    read_bar_chart,
    read_eval_reports,
    read_histogram_dump,
    read_loss_curve,
    write_bar_chart,
    write_eval_reports,
    write_histogram_dump,
    write_loss_curve,
)


def sample_reports():
    rng = np.random.default_rng(0)
    out = []
    for model in ("lenet", "dadm"):
        for transform in ("none", "rotate", "translate", "flip", "shuffle"):
            per_class = list(rng.uniform(0, 100, 10))
            out.append(EvalReport(model, transform, float(rng.uniform(0, 100)), per_class, float(rng.uniform(-5, 90))))
    return out


def test_eval_reports_round_trip(tmp_path):
    reports = sample_reports()
    meta = {"eval_seed": "17", "model": "lenet"}
    path = tmp_path / "reports.csv"
    write_eval_reports(path, reports, meta)
    loaded, got_meta = read_eval_reports(path)
    assert got_meta == meta
    assert loaded == reports  # floats round-trip via repr


def test_loss_curve_round_trip(tmp_path):
    curve = [EpochStats(1, 2.19382984, 45.3125), EpochStats(2, 1.0000000001, 88.0)]
    path = tmp_path / "curve.csv"
    write_loss_curve(path, curve, {"arch": "base"})
    loaded, meta = read_loss_curve(path)
    assert loaded == curve
    assert meta == {"arch": "base"}


def test_bar_chart_rows(tmp_path):
    reports = sample_reports()
    path = tmp_path / "bar_chart.csv"
    write_bar_chart(path, reports)
    rows = read_bar_chart(path)
    assert len(rows) == 2 * 5  # models x transforms
    assert rows[0] == ("lenet", "none", reports[0].top1)


def test_histogram_dump_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    centers = np.linspace(-1, 1, 16)
    masses = rng.random(16)
    path = tmp_path / "hist_original.csv"
    write_histogram_dump(path, centers, masses)
    got_centers, got_masses = read_histogram_dump(path)
    assert np.array_equal(got_centers, centers)
    assert np.array_equal(got_masses, masses)


def _cut_after(items, n):
    """The first ``n`` of ``items``, then an error: a write cut partway."""
    yield from items[:n]
    raise OSError("cut partway")


# file name -> a write of it whose rows pass through ``cut``
CUT_WRITES = {
    "reports.csv": lambda path, cut: write_eval_reports(path, cut(sample_reports()), {"eval_seed": "3"}),
    "loss_curve.csv": lambda path, cut: write_loss_curve(path, cut([EpochStats(e, 1.5, 50.0) for e in (1, 2)])),
    "bar_chart.csv": lambda path, cut: write_bar_chart(path, cut(sample_reports())),
    "hist_original.csv": lambda path, cut: write_histogram_dump(path, np.zeros(8), cut(list(np.ones(8)))),
}


@pytest.mark.parametrize("name", CUT_WRITES)
def test_write_cut_partway_leaves_previous_file(name, tmp_path):
    # each file is built whole, then renamed into place: a cut leaves the
    # previous bytes, not a shorter file that still parses, and no temp file
    write = CUT_WRITES[name]
    path = tmp_path / name
    write(path, list)
    before = path.read_bytes()
    with pytest.raises(OSError, match="cut partway"):
        write(path, lambda items: _cut_after(items[::-1], 1))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_malformed_csv_names_line(tmp_path):
    path = tmp_path / "reports.csv"
    write_eval_reports(path, sample_reports()[:2], {})
    lines = path.read_text().splitlines()
    lines[2] = "lenet,rotate,not-a-number,0.0," + ",".join(["1"] * 10)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        read_eval_reports(path)
    assert "line 3" in str(err.value)


# (column, text): a value no evaluation writes
IMPOSSIBLE = [
    ("top1", "nan"), ("top1", "inf"), ("top1", "250.0"), ("top1", "-0.5"),
    ("delta", "-inf"), ("delta", "100.5"), ("delta", "-101.0"),
    ("class3", "-7.0"), ("class9", "nan"),
    ("transform", "sideways"),
]


@pytest.mark.parametrize("column, text", IMPOSSIBLE, ids=[f"{c}={t}" for c, t in IMPOSSIBLE])
def test_impossible_value_names_file_and_line(column, text, tmp_path):
    path = tmp_path / "reports.csv"
    write_eval_reports(path, sample_reports()[:3], {"eval_seed": "0"})
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")  # line 4, the second report
    cells[lines[1].split(",").index(column)] = text
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        read_eval_reports(path)
    assert str(err.value).startswith(f"{path}: line 4: ") and repr(text) in str(err.value)


def test_bounds_themselves_are_read(tmp_path):
    path = tmp_path / "reports.csv"
    edges = [EvalReport("dadm", "none", 100.0, [0.0] * 9 + [100.0], -100.0),
             EvalReport("dadm", "rotate", 0.0, [100.0] * 10, 100.0)]
    write_eval_reports(path, edges)
    assert read_eval_reports(path)[0] == edges


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "reports.csv"
    write_eval_reports(path, sample_reports()[:1], {})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("short,row\n")
    with pytest.raises(DataFormatError) as err:
        read_eval_reports(path)
    assert "line 3" in str(err.value)


def test_repeated_model_and_transform_names_both_lines(tmp_path):
    path = tmp_path / "reports.csv"
    reports = sample_reports()
    # line 1 is the metadata, line 2 the header: reports[i] is on line i + 3
    write_eval_reports(path, [reports[0], reports[1], reports[2], reports[1]], {"eval_seed": "0"})
    with pytest.raises(DataFormatError) as err:
        read_eval_reports(path)
    message = str(err.value)
    assert "line 6" in message and "line 4" in message and "'rotate'" in message
    # the same transform under another model is no repeat
    write_eval_reports(path, [reports[1], reports[6]], {})
    assert [(r.model, r.transform) for r in read_eval_reports(path)[0]] == [("lenet", "rotate"), ("dadm", "rotate")]


def test_header_mismatch_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataFormatError) as err:
        read_eval_reports(path)
    assert "header" in str(err.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        read_loss_curve(path)


def test_non_integer_epoch_names_file_and_line(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("epoch,mean_loss,train_acc\n1,2.5,40.0\n2.0,1.5,60.0\n")
    with pytest.raises(DataFormatError) as err:
        read_loss_curve(path)
    assert "curve.csv" in str(err.value) and "line 3" in str(err.value)


def test_undecodable_bytes_name_file_and_line(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_bytes(b"epoch,mean_loss,train_acc\n1,2.5,40.0\n2,1.5\xff,60.0\n")
    with pytest.raises(DataFormatError) as err:
        read_loss_curve(path)
    assert "curve.csv" in str(err.value) and "line 3" in str(err.value)


def _write_valid_csv(path, name):
    """Write one valid file of the named CSV schema; returns its reader."""
    reports = sample_reports()[:3]
    write, args, read = {
        "eval": (write_eval_reports, (reports, {"eval_seed": "0"}), read_eval_reports),
        "curve": (write_loss_curve, ([EpochStats(1, 2.25, 40.0), EpochStats(2, 1.5, 61.0)],), read_loss_curve),
        "bar": (write_bar_chart, (reports,), read_bar_chart),
        "hist": (write_histogram_dump, (np.linspace(-1, 1, 4), np.full(4, 0.25)), read_histogram_dump),
    }[name]
    write(path, *args)
    return read


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["eval", "curve", "bar", "hist"]),
    flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=4),
    cut=st.none() | st.integers(min_value=0),
)
def test_corrupted_csv_parses_or_raises_data_format_error(tmp_path_factory, name, flips, cut):
    # flip (xor) a few bytes and maybe truncate a valid file: every reader
    # either parses the result or rejects it as a data error, never with
    # another exception
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.csv"
    read = _write_valid_csv(path, name)
    data = bytearray(path.read_bytes())
    for position, mask in flips:
        data[position % len(data)] ^= mask
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    path.write_bytes(bytes(data))
    try:
        read(path)
    except DataFormatError:
        pass
