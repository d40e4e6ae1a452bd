"""Exception types shared across the package, and the one reader of text
files that refuses bytes that are not UTF-8 as a `DataFormatError`.

The CLI maps these onto its exit-code contract: usage problems exit 1,
`DataFormatError` (and other I/O trouble) exits 2, failed property checks
exit 3.  This module loads no numpy, so the CLI reads its config file
before the BLAS thread caps are set.
"""

import io


class HistlearnError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(HistlearnError):
    """Operands have incompatible shapes; the message names both."""


class DataFormatError(HistlearnError):
    """A file (IDX, CSV, checkpoint) is malformed or fails verification."""


class NonFiniteError(HistlearnError):
    """A NaN or Inf appeared where a finite value is required."""


def read_text_lines(path):
    """The lines of the text file at ``path``, each with its ``"\n"``
    (``"\r\n"`` and ``"\r"`` ends read as ``"\n"``, as text-mode ``open``
    reads them).  A file that is not UTF-8 text is a ``DataFormatError``
    naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: line {lineno}: not UTF-8 text") from exc
    return io.StringIO(text, newline=None).readlines()
