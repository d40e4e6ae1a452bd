"""CSV schemas for experiment outputs.

All writers produce files that parse back to equal values (floats are
written with ``repr`` so they round-trip bit for bit), each through
:func:`~histlearn.data.write_atomic`, so a reader never sees a torn file.
Leading lines of the form ``# key=value`` carry run metadata (for example
the evaluation transform seed) and are returned as a dict by the readers.
Parse errors name the offending line number.
"""

import numpy as np

from .data import write_atomic
from .errors import DataFormatError, read_text_lines
from .models import EpochStats, EvalReport
from .transforms import TRANSFORM_KINDS

EVAL_HEADER = ["model", "transform", "top1", "delta"] + [f"class{c}" for c in range(10)]
CURVE_HEADER = ["epoch", "mean_loss", "train_acc"]
BAR_HEADER = ["model", "transform", "top1"]
HIST_HEADER = ["bin_center", "mass"]


def _fmt(value) -> str:
    if isinstance(value, float):  # incl. np.float64; repr of the builtin round-trips
        return repr(float(value))
    return str(value)


def _read_lines(path):
    meta = {}
    rows = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
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


def _parse_percent(path, lineno, field, text, low=0.0):
    """``text`` as a percentage in [low, 100]; NaN and inf are outside."""
    value = _parse_number(path, lineno, text)
    if not low <= value <= 100.0:
        raise DataFormatError(f"{path}: line {lineno}: {field} {text!r} is outside [{low:g}, 100]")
    return value


def _write_csv(path, header, rows, meta=None):
    """The ``# key=value`` lines of ``meta``, the header, then one line of
    cells per row, written atomically once every line is built: a failed
    write leaves the previous file as it was."""
    lines = [f"# {key}={value}\n" for key, value in (meta or {}).items()]
    lines += [",".join(_fmt(c) for c in cells) + "\n" for cells in [header, *rows]]
    write_atomic(path, ["".join(lines).encode("utf-8")])


def write_eval_reports(path, reports, meta=None):
    rows = ([r.model, r.transform, r.top1, r.delta, *r.per_class] for r in reports)
    _write_csv(path, EVAL_HEADER, rows, meta)


def read_eval_reports(path):
    """Returns ``(reports, meta)``; inverse of :func:`write_eval_reports`.
    Each row must hold a transform of ``TRANSFORM_KINDS``, ``top1`` and
    every per-class accuracy in [0, 100] and ``delta`` in [-100, 100], so
    nothing that is not a finite percentage reaches a chart.  A
    (model, transform) pair given on two rows is a ``DataFormatError``
    naming both lines."""
    meta, rows = _read_lines(path)
    reports = []
    first_line = {}
    for lineno, cells in _records(path, rows, EVAL_HEADER):
        if cells[1] not in TRANSFORM_KINDS:
            raise DataFormatError(
                f"{path}: line {lineno}: unknown transform {cells[1]!r}, expected one of {TRANSFORM_KINDS}"
            )
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
                top1=_parse_percent(path, lineno, "top1", cells[2]),
                delta=_parse_percent(path, lineno, "delta", cells[3], low=-100.0),
                per_class=[
                    _parse_percent(path, lineno, name, text) for name, text in zip(EVAL_HEADER[4:], cells[4:])
                ],
            )
        )
    return reports, meta


def write_loss_curve(path, curve, meta=None):
    _write_csv(path, CURVE_HEADER, ([s.epoch, s.mean_loss, s.train_accuracy] for s in curve), meta)


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
    _write_csv(path, BAR_HEADER, ([r.model, r.transform, r.top1] for r in reports))


def read_bar_chart(path):
    _, rows = _read_lines(path)
    out = []
    for lineno, cells in _records(path, rows, BAR_HEADER):
        out.append((cells[0], cells[1], _parse_number(path, lineno, cells[2])))
    return out


def write_histogram_dump(path, centers, masses):
    _write_csv(path, HIST_HEADER, ([float(c), float(m)] for c, m in zip(centers, masses)))


def read_histogram_dump(path):
    _, rows = _read_lines(path)
    centers = []
    masses = []
    for lineno, cells in _records(path, rows, HIST_HEADER):
        centers.append(_parse_number(path, lineno, cells[0]))
        masses.append(_parse_number(path, lineno, cells[1]))
    return np.array(centers), np.array(masses)
