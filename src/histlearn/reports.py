"""CSV schemas for experiment outputs.

All writers produce files that parse back to equal values (floats are
written with ``repr`` so they round-trip bit for bit).  Leading lines of
the form ``# key=value`` carry run metadata (for example the evaluation
transform seed) and are returned as a dict by the readers.  Parse errors
name the offending line number.
"""

import io

import numpy as np

from .errors import DataFormatError
from .models import EpochStats, EvalReport

EVAL_HEADER = ["model", "transform", "top1", "delta"] + [f"class{c}" for c in range(10)]
CURVE_HEADER = ["epoch", "mean_loss", "train_acc"]
BAR_HEADER = ["model", "transform", "top1"]
HIST_HEADER = ["bin_center", "mass"]


def _fmt(value) -> str:
    if isinstance(value, float):  # incl. np.float64; repr of the builtin round-trips
        return repr(float(value))
    return str(value)


def _read_lines(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: line {lineno}: not UTF-8 text") from exc
    meta = {}
    rows = []
    # newline=None reads "\r\n" and "\r" line ends as "\n", as text-mode open() does
    with io.StringIO(text, newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
                continue
            rows.append((lineno, line.split(",")))
    return meta, rows


def _records(path, rows, expected):
    """Yield ``(lineno, cells)`` for each row under the header ``expected``,
    checking the header first and each row's field count as it comes."""
    if not rows:
        raise DataFormatError(f"{path}: empty CSV")
    lineno, header = rows[0]
    if header != expected:
        raise DataFormatError(
            f"{path}: line {lineno}: header {header} does not match expected {expected}"
        )
    for lineno, cells in rows[1:]:
        if len(cells) != len(expected):
            raise DataFormatError(
                f"{path}: line {lineno}: expected {len(expected)} fields, got {len(cells)}"
            )
        yield lineno, cells


def _parse_number(path, lineno, text, kind=float):
    try:
        return kind(text)
    except ValueError as exc:
        raise DataFormatError(f"{path}: line {lineno}: bad number {text!r}") from exc


def write_eval_reports(path, reports, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(EVAL_HEADER) + "\n")
        for r in reports:
            cells = [r.model, r.transform, _fmt(r.top1), _fmt(r.delta)]
            cells += [_fmt(v) for v in r.per_class]
            fh.write(",".join(cells) + "\n")


def read_eval_reports(path):
    """Returns ``(reports, meta)``; inverse of :func:`write_eval_reports`.
    A (model, transform) pair given on two rows is a ``DataFormatError``
    naming both lines."""
    meta, rows = _read_lines(path)
    reports = []
    first_line = {}
    for lineno, cells in _records(path, rows, EVAL_HEADER):
        key = (cells[0], cells[1])
        if key in first_line:
            raise DataFormatError(
                f"{path}: line {lineno}: model {key[0]!r}, transform {key[1]!r} "
                f"repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        reports.append(
            EvalReport(
                model=cells[0],
                transform=cells[1],
                top1=_parse_number(path, lineno, cells[2]),
                delta=_parse_number(path, lineno, cells[3]),
                per_class=[_parse_number(path, lineno, c) for c in cells[4:]],
            )
        )
    return reports, meta


def write_loss_curve(path, curve, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(CURVE_HEADER) + "\n")
        for s in curve:
            fh.write(f"{s.epoch},{_fmt(s.mean_loss)},{_fmt(s.train_accuracy)}\n")


def read_loss_curve(path):
    meta, rows = _read_lines(path)
    curve = []
    for lineno, cells in _records(path, rows, CURVE_HEADER):
        curve.append(
            EpochStats(
                epoch=_parse_number(path, lineno, cells[0], int),
                mean_loss=_parse_number(path, lineno, cells[1]),
                train_accuracy=_parse_number(path, lineno, cells[2]),
            )
        )
    return curve, meta


def write_bar_chart(path, reports):
    """Accuracy matrix flattened to one (model, transform, top1) row each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(BAR_HEADER) + "\n")
        for r in reports:
            fh.write(f"{r.model},{r.transform},{_fmt(r.top1)}\n")


def read_bar_chart(path):
    _, rows = _read_lines(path)
    out = []
    for lineno, cells in _records(path, rows, BAR_HEADER):
        out.append((cells[0], cells[1], _parse_number(path, lineno, cells[2])))
    return out


def write_histogram_dump(path, centers, masses):
    centers = np.asarray(centers)
    masses = np.asarray(masses)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HIST_HEADER) + "\n")
        for c, m in zip(centers, masses):
            fh.write(f"{_fmt(float(c))},{_fmt(float(m))}\n")


def read_histogram_dump(path):
    _, rows = _read_lines(path)
    centers = []
    masses = []
    for lineno, cells in _records(path, rows, HIST_HEADER):
        centers.append(_parse_number(path, lineno, cells[0]))
        masses.append(_parse_number(path, lineno, cells[1]))
    return np.array(centers), np.array(masses)
