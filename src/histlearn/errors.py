"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 1,
`DataFormatError` (and other I/O trouble) exits 2, failed property checks
exit 3.
"""


class HistlearnError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(HistlearnError):
    """Operands have incompatible shapes; the message names both."""


class DataFormatError(HistlearnError):
    """A file (IDX, CSV, checkpoint) is malformed or fails verification."""


class NonFiniteError(HistlearnError):
    """A NaN or Inf appeared where a finite value is required."""
